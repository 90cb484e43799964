#!/usr/bin/env python3
"""Measure the implementation constants asserted by the regression tests.

Run once from the repository root and commit the resulting
tests/fixtures/calibration.json; the suite checks that :func:`measure`
still reproduces it.  The values are properties of this implementation
(coder overheads, pass-accounting granularity), frozen with headroom so
the suite flags regressions rather than re-deriving bounds.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from sbc.adversary import db_power, de_bruijn, separation_experiment
from sbc.entropy import hk
from sbc.machine import Machine, MachineConfig, ModelKind
from sbc.pipelines import BlockPlan, block_encode, encode_bwt_dc_ac, encode_bwt_mtf_rle_ac, ranks_of
from sbc.stream_bwt import default_rw_machine, rw_bwt_encode, rw_bwt_invert
from sbc.stream_st import default_streamsort_machine, streamsort_st, streamsort_st_best_k
from sbc.transforms import bwt

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "fixtures")
CORPUS = os.path.join(FIXTURES, "corpus")


def measure():
    """The calibration constants, as tests/fixtures/calibration.json holds them."""
    out = {}

    # Pass-count shape of the doubling transform and its inverse, worse of
    # the two directions on the worst case input.
    worst = 0.0
    for n in (2**8, 2**10, 2**12, 2**14):
        forward = default_rw_machine(bytes(n))
        rw_bwt_encode([0] * n, forward)
        image = bwt([0] * n)
        inverse = default_rw_machine(bytes(c + 1 for c in image))
        rw_bwt_invert(image, inverse)
        passes = max(forward.ledger().passes, inverse.ledger().passes)
        level = math.ceil(math.log2(n + 1))
        worst = max(worst, (passes - 40) / level**2)
    out["rw_pass_a"] = math.ceil(worst * 1.2)
    out["rw_pass_b"] = 40

    # Peak charged memory of the streamsort transform.
    worst = 0.0
    for n in (2**8, 2**10, 2**12, 2**14):
        s = [i & 1 for i in range(n)]
        machine = default_streamsort_machine(bytes(s))
        streamsort_st(s, 3, machine=machine, sigma=2)
        worst = max(worst, machine.ledger().peak_memory_bits / math.log2(n))
    out["st_mem_c"] = math.ceil(worst * 1.2)

    # Pass budget of the best-k driver.
    worst = 0.0
    for n in (2**8, 2**10, 2**12):
        s = [i & 1 for i in range(n)]
        machine = Machine(MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=1 << 16))
        k_max = max(1, math.ceil(math.log2(n)) // 2)
        streamsort_st_best_k(s, k_max, machine=machine, sigma=2)
        level = math.ceil(math.log2(n))
        loglevel = max(1, math.ceil(math.log2(level)))
        worst = max(worst, (machine.ledger().passes - 20) / (level * loglevel))
    out["best_k_pass_a"] = math.ceil(worst * 1.2)
    out["best_k_pass_b"] = 20

    # Size-bound constants over the desk corpus.
    c1 = c2 = 0.0
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), "rb") as fh:
            data = fh.read()
        ranks, sigma, _ = ranks_of(data)
        n = len(ranks)
        size_mtf = 8 * len(encode_bwt_mtf_rle_ac(ranks, sigma))
        size_dc = 8 * len(encode_bwt_dc_ac(ranks, sigma))
        for k in (0, 1, 2):
            nhk = n * hk(ranks, k)
            c1 = max(c1, (size_mtf - 3.4 * nhk) / sigma**k)
            c2 = max(c2, (size_dc - 1.8 * nhk) / (sigma**k * math.log2(n)))
    out["bound_c1"] = math.ceil(max(c1, 1) * 1.15)
    out["bound_c2"] = math.ceil(max(c2, 1) * 1.15)

    # Per-block accounting constant on a covering-sequence power.
    d = de_bruijn(2, 6)
    s = db_power(d, 16)
    plan = BlockPlan.for_length(len(s), 0.5, 0.25)
    container = block_encode(s, 2, plan)
    k = 2
    pieces = [s[i:i + plan.block_len] for i in range(0, len(s), plan.block_len)]
    fixed = sum(len(b) * hk(b, k) for b in pieces)
    varying = sum((2**k) * math.log2(max(len(b), 2)) for b in pieces)
    out["block_account_c"] = math.ceil((8 * len(container) - fixed) / varying * 1.15)

    # Separation ratio floor.
    report = separation_experiment(2**16, 0.5, 0.25)
    out["separation_min_ratio"] = math.floor(report.ratio * 0.85 * 100) / 100
    return out


def main():
    out = measure()
    with open(os.path.join(FIXTURES, "calibration.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
