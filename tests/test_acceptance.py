"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also enforces its stated wall-clock limit.  Bound constants marked
as calibrated come from tests/fixtures/calibration.json and are regression
pins of this implementation, not claims about any ideal coder.
"""

import math
import random
import subprocess
import sys
import time
from itertools import product

import pytest

from conftest import ranks_of, render
from sbc.adversary import db_power, de_bruijn, separation_experiment
from sbc.entropy import h0, hk, superadditive_check
from sbc.machine import (
    INPUT,
    REWRITE,
    BudgetExceededError,
    CapabilityError,
    ExpansionError,
    Machine,
    MachineConfig,
    ModelKind,
)
from sbc.pipelines import (
    BlockPlan,
    block_encode,
    decode_container,
    encode_bwt_dc_ac,
    encode_bwt_mtf_rle_ac,
    encode_kth_order,
)
from sbc.stream_bwt import (
    default_rw_machine,
    rw_bwt_encode,
    rw_bwt_invert,
    sort_chars_via_bwt,
    sort_numbers_via_bwt,
)
from sbc.stream_st import default_streamsort_machine, streamsort_st
from sbc.transforms import bwt, bwt_inverse, st


class Clock:
    def __init__(self, limit_s, label):
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} took {elapsed:.1f}s, limit {self.limit}s"
            print(f"[criterion] {self.label}: PASS ({elapsed:.1f}s)")
        else:
            print(f"[criterion] {self.label}: FAIL")


def test_criterion_1_fixed_example_fidelity():
    with Clock(1, "1 fixed-example fidelity"):
        ranks, alphabet = ranks_of("mississippi")
        image = rw_bwt_encode(ranks)
        assert render(image, alphabet) == "ms#spipissii"
        assert rw_bwt_invert(image) == ranks


def test_criterion_2_oracle_equivalence_exhaustive():
    with Clock(300, "2 oracle equivalence, exhaustive"):
        def check(s, sigma):
            t = bwt(s)
            assert bwt_inverse(t) == s
            assert rw_bwt_encode(s) == t
            assert rw_bwt_invert(t) == s
            for k in range(4):
                assert streamsort_st(s, k, sigma=sigma) == st(s, k)

        for length in range(1, 13):
            for bits in product(range(2), repeat=length):
                check(list(bits), 2)
        for length in range(1, 9):
            for trits in product(range(3), repeat=length):
                check(list(trits), 3)


def test_criterion_3_codec_roundtrips():
    with Clock(300, "3 codec roundtrips"):
        encoders = [
            lambda s, sigma: encode_bwt_mtf_rle_ac(s, sigma),
            lambda s, sigma: encode_bwt_dc_ac(s, sigma),
            lambda s, sigma: block_encode(s, sigma, BlockPlan.for_length(max(len(s), 2), 0.5, 0.25)),
            lambda s, sigma: encode_kth_order(s, sigma, 2),
        ]
        rng = random.Random(0xACCE)
        for sigma in (2, 4):
            for _ in range(1000):
                n = rng.randrange(0, 1 << 12) if rng.random() < 0.2 else rng.randrange(0, 260)
                s = [rng.randrange(sigma) for _ in range(n)]
                for encode in encoders:
                    back, _, _ = decode_container(encode(s, sigma))
                    assert back == s
        for length in range(0, 11):
            for bits in product(range(2), repeat=length):
                s = list(bits)
                for encode in encoders:
                    back, _, _ = decode_container(encode(s, 2))
                    assert back == s


def test_criterion_4_resource_shapes(calibration):
    with Clock(120, "4 resource shapes"):
        a = calibration["rw_pass_a"]
        b = calibration["rw_pass_b"]
        for exp in (8, 10, 12, 14):
            n = 2 ** exp
            bound = math.ceil(math.log2(n + 1))
            machine = default_rw_machine(bytes(n))
            rounds = []
            rw_bwt_encode([0] * n, machine, on_round=lambda tr: rounds.append(1))
            assert len(rounds) <= bound
            assert machine.ledger().passes <= a * bound * bound + b

        # pad passes: records of 8 bits double until they hold ceil(log2 n) bits
        c = calibration["st_mem_c"]
        for exp in (8, 10, 12, 14):
            n = 2 ** exp
            s = [i & 1 for i in range(n)]
            machine = default_streamsort_machine(bytes(s))
            stats = {}
            streamsort_st(s, 2, machine=machine, sigma=2, stats=stats)
            expected_pads = math.ceil(math.log2(max(1, math.ceil(math.log2(n)) / 8)))
            assert stats["pad_passes"] == expected_pads
            assert machine.ledger().peak_memory_bits <= c * math.log2(n)


def test_criterion_5_entropy_correctness(corpus):
    with Clock(60, "5 entropy correctness"):
        assert abs(h0("mississippi") - 1.8230) < 1e-3
        for sigma in (2, 3):
            for k in range(1, 6):
                s = db_power(de_bruijn(sigma, k), 4)
                assert abs(hk(s, k, cyclic=True)) <= 1e-12
        rng = random.Random(0xE27)
        for _ in range(1000):
            a = [rng.randrange(3) for _ in range(rng.randrange(1, 30))]
            bpart = [rng.randrange(3) for _ in range(rng.randrange(1, 30))]
            assert superadditive_check(a, bpart, rng.randrange(4), tol=1e-9)
        for data in corpus.values():
            values = [hk(data, k) for k in range(5)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-9


def test_criterion_6_separation_demonstration(calibration):
    with Clock(120, "6 tradeoff separation"):
        reports = [separation_experiment(n, 0.5, 0.25) for n in (2**12, 2**14, 2**16)]
        final = reports[-1]
        assert final.k == math.ceil(0.625 * 16) == 10
        assert final.ratio >= calibration["separation_min_ratio"]
        ratios = [r.ratio for r in reports]
        assert ratios == sorted(ratios)


def test_criterion_7_bound_shape_regression(calibration, corpus):
    with Clock(120, "7 bound-shape regression"):
        c1 = calibration["bound_c1"]
        c2 = calibration["bound_c2"]
        for name, data in corpus.items():
            ranks, alphabet = ranks_of(data)
            sigma = len(alphabet)
            n = len(ranks)
            size_mtf = 8 * len(encode_bwt_mtf_rle_ac(ranks, sigma))
            size_dc = 8 * len(encode_bwt_dc_ac(ranks, sigma))
            for k in (0, 1, 2):
                nhk = n * hk(ranks, k)
                assert size_mtf <= 3.4 * nhk + c1 * sigma ** k, (name, k)
                assert size_dc <= 1.8 * nhk + c2 * (sigma ** k) * math.log2(n), (name, k)


def test_criterion_8_sorting_reductions():
    with Clock(60, "8 sorting reductions"):
        for length in range(0, 7):
            for s in product(range(3), repeat=length):
                assert sort_chars_via_bwt(list(s)) == sorted(s)
        rng = random.Random(0x5027)
        for _ in range(100):
            s = [rng.randrange(6) for _ in range(rng.randrange(0, 80))]
            assert sort_chars_via_bwt(s) == sorted(s)
        for xs in ([3, 1, 2, 0], [0, 1, 2, 3], [5, 5, 5, 5]):
            assert sort_numbers_via_bwt(xs) == sorted(xs)
        for _ in range(100):
            n = rng.choice([4, 8, 16])
            xs = [rng.randrange(n * n) for _ in range(n)]
            assert sort_numbers_via_bwt(xs) == sorted(xs)


def test_criterion_9_model_guards_and_exit_codes():
    with Clock(30, "9 model guards and exit codes"):
        machine = Machine(MachineConfig(ModelKind.STANDARD, 1024), b"ab")
        with machine.begin_pass(INPUT) as p:
            p.read_all()
        with pytest.raises(CapabilityError):
            machine.begin_pass(INPUT)

        machine = Machine(MachineConfig(ModelKind.MULTIPASS, 1024), b"ab")
        with pytest.raises(CapabilityError):
            machine.sort_pass(key=lambda r: r)

        machine = Machine(MachineConfig(ModelKind.STANDARD, 100), b"")
        with pytest.raises(BudgetExceededError):
            machine.charge_memory(101)

        machine = Machine(MachineConfig(ModelKind.W_STREAMS, 1024), bytes(64))
        with pytest.raises(ExpansionError):
            with machine.begin_pass(INPUT, mode=REWRITE) as p:
                p.write_many([rec * 3 for rec in p.read_all()])

        def run_cli(args, data=b""):
            return subprocess.run([sys.executable, "-m", "sbc", *args],
                                  input=data, capture_output=True)

        assert run_cli(["compress", "--pipeline", "bwt-dc-ac"], b"abc").returncode == 0
        assert run_cli(["compress", "--pipeline", "bogus"], b"abc").returncode == 1
        assert run_cli(["decompress"], b"not a container").returncode == 2
        assert run_cli(
            ["compress", "--pipeline", "kth-order", "--model", "standard",
             "--memory-budget-bits", "16"], b"abcabc",
        ).returncode == 3
