"""Smoke test of the benchmark itself, at a tiny input size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that every workload, traced and untraced, prints exactly the
metrics BENCHMARK.json lists with zero failed operations, that the report
line carries the per-layer metrics that exist on one workload only, that
corrupted outputs are counted as failed operations rather than raised, and
that the ``repetitive`` containers are the two ``separation_experiment``
compares.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SCALE = 1 / 32
SECONDS = 0.5

# Per-layer metrics that exist on one workload only; the report line must
# carry them there.
ONLY_ON = {
    "text": ["transforms.st_s"],
    "repetitive": ["transforms.st_s", "adversary.de_bruijn_s"]
    + [f"machine.{f}.block-kth" for f in ("passes", "sort_passes", "peak_memory_bits",
                                          "tape_bits_swept", "total_output_bits")],
    "wide": ["transforms.st_s"],
    "tape": ["machine.sort_pass_s", "stream_st.streamsort_st_s", "stream_st.best_k",
             "stream_st.pad_passes"]
    + [f"machine.{f}.{p}" for f in ("passes", "sort_passes", "peak_memory_bits",
                                    "tape_bits_swept", "total_output_bits")
       for p in workloads.PIPELINES],
}


def check_metrics(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            report, result, _ = run.run(name, seed=1, seconds=SECONDS, trace=trace, scale=SCALE)
            where = f"{name} trace={int(trace)}"
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != wanted:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(wanted ^ set(result['metrics']))}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{where}: {result['failed']} failed: {report['errors']}")
            if trace:
                missing = [m for m in ONLY_ON[name] if m not in report["metrics"]]
                if missing:
                    failures.append(f"{where}: report lacks {missing}")


def check_corruption(failures: list) -> None:
    """A flipped container byte and a wrong tape output are failed ops."""
    setup = run.setup

    def corrupting_setup(*args):
        sbc, wl, fp, setup_s = setup(*args)
        for op in wl.ops:
            inner = op.run
            if op.name == "decompress.bwt-dc-ac":
                def flipped(results, inner=inner):
                    data = bytearray(results["compress.bwt-dc-ac"])
                    data[len(data) // 2] ^= 0xFF
                    return inner({"compress.bwt-dc-ac": bytes(data)})
                op.run = flipped
            elif op.name == "simulate.rw-bwt":
                def reversed_output(results, inner=inner):
                    machine, out = inner(results)
                    return machine, out[::-1]
                op.run = reversed_output
        return sbc, wl, fp, setup_s

    run.setup = corrupting_setup
    try:
        report, result, runner = run.run("text", seed=1, seconds=SECONDS, trace=False, scale=SCALE)
    except Exception as exc:
        failures.append(f"corruption raised {type(exc).__name__}: {exc}")
        return
    finally:
        run.setup = setup
    rounds = len(runner.round_seconds[False])
    if result["correct"] or result["failed"] != 2 * rounds:
        failures.append(f"corruption: expected {2 * rounds} failed ops, got {result['failed']}")


def check_separation(failures: list) -> None:
    """The repetitive containers are the two separation_experiment compares."""
    sbc, wl, _, _ = run.setup("repetitive", 1, SCALE)
    results = {}
    for op in wl.ops:
        if op.name in ("compress.block-kth", "compress.bwt-dc-ac"):
            out = op.run(results)
            results[op.name] = out[1] if op.machine else out
    n = len(wl.input)
    report = sbc.adversary.separation_experiment(n, 0.5, 0.25)
    got = (8 * len(results["compress.block-kth"]), 8 * len(results["compress.bwt-dc-ac"]))
    if report.n != n or got != (report.size_block_bits, report.size_full_bits):
        failures.append(f"separation: bench sizes {got} != experiment "
                        f"{(report.size_block_bits, report.size_full_bits)} at n={n}")


def main() -> int:
    failures: list = []
    check_metrics(failures)
    check_corruption(failures)
    check_separation(failures)
    for line in failures:
        print("FAIL", line)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
