import math
import os
import random
from itertools import product

import pytest

from conftest import CORPUS_DIR, ranks_of
from sbc import pipelines
from sbc.machine import INPUT, CapabilityError, Machine, MachineConfig, MachineLedger, ModelKind
from sbc.pipelines import _dc_ac_payload, encode_st_dc_ac, parse_container
from sbc.stream_st import (
    _check_key_width,
    default_streamsort_machine,
    streamsort_st,
    streamsort_st_best_k,
)
from sbc.transforms import st


def test_k_zero_is_identity_with_marker():
    rng = random.Random(0)
    for _ in range(30):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 50))]
        assert streamsort_st(s, 0, sigma=3) == s + [-1]


def test_matches_reference_exhaustive():
    for length in range(0, 11):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            for k in range(4):
                assert streamsort_st(s, k, sigma=2) == st(s, k)


def test_matches_reference_random():
    rng = random.Random(1)
    for _ in range(500):
        sigma = rng.choice([2, 3, 4])
        s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 300))]
        k = rng.randrange(5)
        assert streamsort_st(s, k, sigma=sigma) == st(s, k)


def tuple_key_records(s, k, sigma, width_bytes):
    """The key pass's records as a per-tuple tracker and packer wrote them.

    The tracker is a list of the k nearest shifted characters, most recent
    first, packed char_width bits each into a big-endian key.
    """
    char_width = max(1, sigma.bit_length())
    key_bytes = (k * char_width + 7) // 8

    def pack_key(ctx):
        value = 0
        for v in ctx:
            value = (value << char_width) | v
        return value.to_bytes(key_bytes, "big")

    tracker = [0] * k  # position 0's context: the marker, then zeros
    records = []
    for c in s:
        records.append(pack_key(tracker) + bytes([c + 1]) + b"\x00" * (width_bytes - 1))
        if k:
            tracker = [c + 1] + tracker[:k - 1]
    records.append(pack_key(tracker) + b"\x00" * width_bytes)
    return records


def test_packed_keys_match_tuple_keys():
    # sigma=5 and 17 put a key field across a byte boundary; the short
    # inputs have k > n, so their keys wrap through the marker repeatedly.
    rng = random.Random(5)
    cases = [(5, 3, 40), (17, 2, 40), (5, 3, 8), (17, 2, 300), (2, 8, 2), (2, 5, 0), (3, 4, 2),
             (5, 0, 20), (250, 1, 50)]
    for sigma, k, n in cases:
        for _ in range(20):
            s = [rng.randrange(sigma) for _ in range(n)]
            machine = default_streamsort_machine(bytes(s))
            keyed = []
            sort_pass = machine.sort_pass

            def capture(key):
                keyed.extend(machine.tapes[INPUT].records)
                sort_pass(key)

            machine.sort_pass = capture
            stats = {}
            assert streamsort_st(s, k, machine=machine, sigma=sigma, stats=stats) == st(s, k)
            assert keyed == tuple_key_records(s, k, sigma, 2 ** stats["pad_passes"]), (sigma, k, s)


def test_pad_pass_arithmetic():
    # Records start at 8 bits and double until they reach ceil(log2 n) bits,
    # so the pad-pass count is exactly ceil(log2(ceil(log2 n) / 8)).
    cases = [(2**16, 1), (2**8, 0), (300, 1), (2**12, 1), (70000, 2)]
    for n, expected in cases:
        s = [0] * n
        stats = {}
        streamsort_st(s, 1, sigma=2, stats=stats)
        assert stats["pad_passes"] == expected, n


def test_pad_passes_respect_expansion():
    s = [1, 0] * 3000
    machine = default_streamsort_machine(bytes(s))
    streamsort_st(s, 2, machine=machine, sigma=2)
    bits = machine.ledger().per_pass_tape_bits
    for before, after in zip(bits, bits[1:]):
        # growth per pass never exceeds the factor plus one record
        assert after <= 2 * before + 64


def test_peak_memory_logarithmic(calibration):
    c = calibration["st_mem_c"]
    for n in (2**8, 2**10, 2**12, 2**14):
        s = [i & 1 for i in range(n)]
        machine = default_streamsort_machine(bytes(s))
        streamsort_st(s, 3, machine=machine, sigma=2)
        assert machine.ledger().peak_memory_bits <= c * math.log2(n)


def test_key_width_guard():
    with pytest.raises(ValueError):
        streamsort_st([0, 1] * 8, 40, sigma=2)
    # The guard grows with k, so best-k checks k_max once, before any pass,
    # instead of running every smaller k first.
    with open(os.path.join(CORPUS_DIR, "english.txt"), "rb") as fh:
        s, alphabet = ranks_of(fh.read())
    machine = default_streamsort_machine(bytes(s))
    with pytest.raises(ValueError, match="^context length too large for a logarithmic key$"):
        streamsort_st_best_k(s, 20, machine=machine, sigma=len(alphabet))
    assert machine.ledger() == MachineLedger()


def test_wrong_model_rejected():
    machine = Machine(MachineConfig(ModelKind.MULTIPASS, memory_budget_bits=1 << 16), b"\x00")
    with pytest.raises(CapabilityError):
        streamsort_st([0], 1, machine=machine, sigma=2)
    # best-k runs every k on the given machine, so it must be a streamsort one.
    for config in (MachineConfig(ModelKind.STANDARD, memory_budget_bits=1 << 16),
                   MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=1 << 16, work_tapes=4)):
        machine = Machine(config)
        with pytest.raises(CapabilityError):
            streamsort_st_best_k([0, 1, 0, 1, 1, 0] * 10, 2, machine=machine, sigma=2)
        assert machine.ledger() == MachineLedger()


def test_sort_pass_counted_once_per_run():
    s = [0, 1, 1, 0] * 8
    machine = default_streamsort_machine(bytes(s))
    streamsort_st(s, 2, machine=machine, sigma=2)
    assert machine.ledger().sort_passes == 1


def test_best_k_is_min_over_candidates():
    rng = random.Random(2)
    s = [rng.randrange(2) for _ in range(300)]
    per_k = {k: len(_dc_ac_payload([c + 1 for c in st(s, k)], 3)) for k in range(4)}
    container = streamsort_st_best_k(s, 3, sigma=2)
    header, _, payload = parse_container(container)
    assert len(payload) == min(per_k.values())
    assert header.k == min(k for k in per_k if per_k[k] == len(payload))  # ties: smallest k
    for k_max in (-1, 255):
        with pytest.raises(ValueError):
            streamsort_st_best_k(s, k_max, sigma=2)


def test_best_k_selection_matches_the_all_k_oracle():
    # Both best-k paths give the oracle's (k, payload), ties included:
    # sigma = 1, and every k >= n, which all give the transform.
    rng = random.Random(28)
    cases = [(1, n, k_max) for n in (0, 1, 5, 40) for k_max in range(6)]
    cases += [(rng.randint(1, 4), n, 5) for n in range(4)]
    cases += [(rng.randint(1, 4), rng.randint(0, 80), rng.randint(0, 5)) for _ in range(150)]
    ties = 0
    for sigma, n, k_max in cases:
        s = [rng.randrange(sigma) for _ in range(n)]
        # The oracle codes every k in full; index() takes the smallest k.
        sizes = [len(_dc_ac_payload([c + 1 for c in st(s, k, sigma)], sigma + 1))
                 for k in range(k_max + 1)]
        k = sizes.index(min(sizes))
        want = (k, _dc_ac_payload([c + 1 for c in st(s, k, sigma)], sigma + 1))
        ties += sizes.count(sizes[k]) > 1
        paths = [encode_st_dc_ac(s, sigma, k_max)]
        try:
            _check_key_width(n, k_max, sigma)
        except ValueError:
            pass  # the machine path refuses such a k_max before any pass
        else:
            paths.append(streamsort_st_best_k(s, k_max, sigma=sigma))
        for container in paths:
            header, _, payload = parse_container(container)
            assert (header.k, payload) == want, (sigma, s, k_max)
    assert ties > 20


def test_an_abandoned_candidate_leaves_the_machine_clean(monkeypatch):
    # On english.txt at k_max = 4, k = 4 wins and every other k is
    # abandoned before its payload is finished; each still runs all its
    # passes, so the ledger totals are those the all-k search gave when it
    # coded every k in full: (passes, sort_passes, peak_memory_bits,
    # total_output_bits, summed tape bits).
    with open(os.path.join(CORPUS_DIR, "english.txt"), "rb") as fh:
        s, alphabet = ranks_of(fh.read())
    abandoned = []
    code = pipelines._dc_ac_code

    def recording_code(*args):
        payload = code(*args)
        abandoned.append(payload is None)
        return payload

    monkeypatch.setattr(pipelines, "_dc_ac_code", recording_code)
    budget = 1 << 16
    machine = Machine(MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=budget), bytes(s))
    streamsort_st_best_k(s, 4, machine=machine, sigma=len(alphabet))
    assert abandoned == [False, True, True, True, True]
    led = machine.ledger()
    assert led.sort_passes == 4 + 1
    assert (led.passes, led.sort_passes, led.peak_memory_bits, led.total_output_bits,
            sum(led.per_pass_tape_bits)) == (27, 5, 680, 9928, 1691200)
    machine.charge_memory(budget)  # nothing stays charged


def test_best_k_loads_the_string_onto_an_empty_machine():
    rng = random.Random(4)
    for sigma, n, k_max in ((2, 300, 3), (5, 120, 2), (1, 7, 1), (3, 0, 2)):
        s = [rng.randrange(sigma) for _ in range(n)]
        machine = Machine(MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=1 << 16))
        assert (streamsort_st_best_k(s, k_max, machine=machine, sigma=sigma)
                == streamsort_st_best_k(s, k_max, sigma=sigma))
        assert machine.ledger().sort_passes == k_max + 1


def test_best_k_picks_context_on_markov_source():
    rng = random.Random(3)
    s = []
    sym = 0
    for _ in range(1500):
        s.append(sym)
        sym = (sym + 1) % 3 if rng.random() < 0.95 else rng.randrange(3)
    container = streamsort_st_best_k(s, 3, sigma=3)
    header, _, _ = parse_container(container)
    assert header.k >= 1


def test_best_k_pass_budget(calibration):
    a = calibration["best_k_pass_a"]
    b = calibration["best_k_pass_b"]
    for n in (2**8, 2**10, 2**12):
        s = [i & 1 for i in range(n)]
        machine = Machine(MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=1 << 16))
        k_max = max(1, math.ceil(math.log2(n)) // 2)
        streamsort_st_best_k(s, k_max, machine=machine, sigma=2)
        level = math.ceil(math.log2(n))
        loglevel = max(1, math.ceil(math.log2(level)))
        assert machine.ledger().passes <= a * level * loglevel + b
