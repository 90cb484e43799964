"""sbc benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload text --seed 1 --seconds 30 --trace 0

It imports ``sbc`` from ``src/`` in this one process (no threads, no
subprocesses), generates the workload's inputs from the seed, and runs
rounds of operations until the time is spent; every operation is timed
once per round and metrics are medians over rounds.  Every output is
checked outside the timed region; a wrong or raising operation counts as
failed, never aborts the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, derives the per-layer metrics from the spans
of the traced ones, reports the slowdown of traced rounds as the tracing
overhead, and writes the spans to ``perfbench/out/``.  The last line of
stdout is the result object; the line before it is a report with the
environment stamp, the input fingerprint, the sample counts and every
metric, including per-layer ones that exist on one workload only.  The
names and units of the result's metrics come from BENCHMARK.json.
README.md maps metrics to layers and workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 7
# An untraced sample of a short operation repeats it until it lasts about
# this long; the repeat count is fixed from its first run.
MIN_SAMPLE_SECONDS = 0.2
# The reference loop's time on the machine the bounds were set on (a 2-CPU
# x86-64 VM running CPython 3.11).  Every end-to-end time is reported as
# measured time x REFERENCE_SECONDS / the reference loop's time around it.
REFERENCE_SECONDS = 0.02
# At most this many distinct failure messages go into the report.
MAX_ERRORS = 10


def reference_seconds() -> float:
    """Time one fixed piece of Python work that does not touch sbc.

    On a shared machine the host's speed drifts by tens of percent within
    seconds, and it moves every operation alike.  The loop does the mix the
    operations do (integer arithmetic, tuple sorting, dict updates); timing
    it on both sides of each operation and dividing cancels most of that
    drift, so the metrics follow the program instead of the host.
    """
    t0 = clock()
    x = 12345
    keys = []
    for i in range(16000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        keys.append((x % 97, x % 89, i))
    keys.sort()
    sums: dict = {}
    for a, b, _ in keys:
        sums[a] = sums.get(a, 0) + b
    return clock() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_SECONDS * 2 / (before + after)


def load_sbc():
    """A fresh import of the package under test from src/."""
    for name in [m for m in sys.modules if m == "sbc" or m.startswith("sbc.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    sbc = importlib.import_module("sbc")
    for sub in ("adversary", "entropy", "machine", "pipelines", "stream_bwt", "stream_st", "transforms"):
        importlib.import_module(f"sbc.{sub}")
    return sbc


def setup(name: str, seed: int, scale: float):
    """Import, generate inputs and oracles; repeated, the median is setup_s.

    Returns the median at reference speed and the median wall time.
    """
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = clock()
        sbc = load_sbc()
        wl = workloads.build(sbc, ROOT, name, seed, scale)
        fp = workloads.fingerprint(sbc, wl.input)
        wall.append(clock() - t0)
        times.append(at_reference_speed(wall[-1], before, reference_seconds()))
    return sbc, wl, fp, (statistics.median(times), statistics.median(wall))


class Runner:
    """Runs rounds of a workload's ops and keeps timings, outputs and failures."""

    def __init__(self, sbc, wl) -> None:
        self.sbc = sbc
        self.wl = wl
        self.times = {op.name: [] for op in wl.ops}       # at reference speed
        self.wall_times = {op.name: [] for op in wl.ops}
        self.reference: list = []  # every reference loop time of the run
        self.repeats: dict = {}    # op name -> calls per untraced sample
        self.round_seconds = {False: [], True: []}  # keyed by traced
        self.op_seconds = {False: [], True: []}     # the ops' share, at reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.outputs: dict = {}
        self.ledgers: dict = {}
        self.tracer = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS and message not in self.errors:
            self.errors.append(message)

    def round(self, index: int, tracer=None) -> None:
        results: dict = {}
        ledgers: dict = {}
        start = clock()
        busy = 0.0
        before = reference_seconds()
        for op in self.wl.ops:
            self.attempted += 1
            if op.needs is not None and op.needs not in results:
                self._fail(f"{op.name}: skipped, {op.needs} failed")
                continue
            layer = "stream_bwt" if op.name.startswith("simulate.") else "pipelines"
            repeats = self.repeats.get(op.name, 1) if tracer is None else 1
            try:
                t0 = clock()
                if tracer is None:
                    for _ in range(repeats):
                        out = op.run(results)
                else:
                    out = tracer.op(index, op.name, layer, lambda: op.run(results))
                dt = (clock() - t0) / repeats
            except Exception as exc:  # a failing op is counted, never fatal
                self._fail(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            after = reference_seconds()
            self.reference.append(after)
            self.times[op.name].append(at_reference_speed(dt, before, after))
            self.wall_times[op.name].append(dt)
            busy += self.times[op.name][-1]
            before = after
            self.repeats.setdefault(op.name, max(1, math.ceil(MIN_SAMPLE_SECONDS / dt)))
            if op.machine:
                machine, out = out
                ledgers[op.name] = spans.ledger_of(machine)
            try:
                problem = op.check(out)
            except Exception as exc:
                problem = f"{op.name}: check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self._fail(problem)
                continue
            results[op.name] = out
        self.round_seconds[tracer is not None].append(clock() - start)
        self.op_seconds[tracer is not None].append(busy)
        self._check_separation(results)
        self.outputs, self.ledgers = results, ledgers

    def _check_separation(self, results: dict) -> None:
        floor = self.wl.separation_floor
        if floor is None:
            return
        self.attempted += 1
        ratio = separation_ratio(results)
        if ratio is None or ratio < floor:
            self._fail(f"separation ratio {ratio} below the calibrated floor {floor}")


def separation_ratio(results: dict):
    """Block-coded over full-memory container bits (the experiment's ratio)."""
    block, full = results.get("compress.block-kth"), results.get("compress.bwt-dc-ac")
    if block is None or full is None:
        return None
    return len(block) / len(full)


def run_rounds(runner: Runner, seconds: float, traced: bool) -> None:
    """Rounds until the next one would overrun; traced runs alternate.

    A traced run needs one untraced and one traced round at least; either
    run does at least one round.
    """
    deadline = clock() + seconds
    tracer = spans.Tracer() if traced else None
    index = 0
    while True:
        done = runner.round_seconds[False] + runner.round_seconds[True]
        enough = len(done) >= (2 if traced else 1)
        if enough and clock() + statistics.median(done) > deadline:
            break
        use = tracer is not None and index % 2 == 1
        if use:
            tracer.install(runner.sbc)
        try:
            runner.round(index, tracer if use else None)
        finally:
            if use:
                tracer.uninstall()
        index += 1
    runner.tracer = tracer


def end_to_end(runner: Runner, setup_s: tuple) -> dict:
    """End-to-end metrics at reference speed, plus their wall-clock twins."""
    wl = runner.wl
    metrics = {}
    for op in wl.ops:
        if runner.times[op.name]:
            kind, name = op.name.split(".", 1)
            metrics[f"{kind}_kchar_s.{name}"] = op.chars / 1000 / statistics.median(runner.times[op.name])
            metrics[f"wall.{kind}_kchar_s.{name}"] = op.chars / 1000 / statistics.median(
                runner.wall_times[op.name])
    bits = chars = 0
    for op in wl.ops:
        if op.name.startswith("compress.") and op.name in runner.outputs:
            bits += 8 * len(runner.outputs[op.name])
            chars += op.chars
    if chars:
        metrics["bits_per_char"] = bits / chars
    metrics["setup_s"], metrics["wall.setup_s"] = setup_s
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(runner: Runner, fingerprint: dict) -> dict:
    sbc, wl, results = runner.sbc, runner.wl, runner.outputs
    pl = sbc.pipelines
    metrics = runner.tracer.layer_metrics(runner.ledgers)
    metrics.update(spans.count_rounds(wl.ops))
    metrics.update(wl.setup_layers)
    container_bits = 0
    for op in wl.ops:
        if op.name.startswith("compress.") and op.name in results:
            container = results[op.name]
            pipeline = op.name.split(".", 1)[1]
            metrics[f"pipelines.bits_per_char.{pipeline}"] = 8 * len(container) / op.chars
            header, _, payload = pl.parse_container(container)
            container_bits += 8 * (len(container) - len(payload))
            if pipeline == "block-kth":
                count, frame_bits = block_frames(pl, payload)
                metrics["pipelines.block_count"] = count
                metrics["pipelines.block_frame_bits"] = frame_bits
            if pipeline == "st-dc-ac" and op.machine:
                metrics["stream_st.best_k"] = header.k
    metrics["pipelines.container_overhead_bits"] = container_bits
    ratio = separation_ratio(results)
    if ratio is not None:
        metrics["adversary.separation_ratio"] = ratio
    metrics["entropy.h0"] = fingerprint["h0"]
    metrics["entropy.h2"] = fingerprint["h2"]
    plain = statistics.median(runner.op_seconds[False])
    metrics["tracing_overhead_pct"] = 100 * (statistics.median(runner.op_seconds[True]) / plain - 1)
    return metrics


def block_frames(pl, payload: bytes):
    """Number of block frames and the bits of their varint headers."""
    count = frame_bits = pos = 0
    while pos < len(payload):
        start = pos
        _, pos = pl.read_varint(payload, pos)
        plen, pos = pl.read_varint(payload, pos)
        frame_bits += 8 * (pos - start)
        pos += plen
        count += 1
    return count, frame_bits


def unit_of(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    if "kchar_s" in name:
        return "kchar/s"
    if "_s." in name or name.endswith("_s"):
        return "s"
    if "bits_per_char" in name or name.startswith("entropy."):
        return "bits/char"
    if "_bits" in name:
        return "bit"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """One benchmark run; returns the report and result as printed, and the runner.

    ``scale`` shrinks the inputs for the smoke test only; the command line
    always runs at full size, so every reported figure is comparable.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sbc, wl, fingerprint, setup_s = setup(workload, seed, scale)
    runner = Runner(sbc, wl)
    run_rounds(runner, seconds, trace)
    if trace:
        all_metrics = per_layer(runner, fingerprint)
        wanted = spec["per_layer"]
    else:
        all_metrics = end_to_end(runner, setup_s)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {m["name"]: {"value": all_metrics[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in all_metrics}
    report = {
        "workload": workload,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "settings": {"seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
                     "setup_repeats": SETUP_REPEATS},
        "fingerprint": fingerprint,
        "rounds": {"untraced": len(runner.round_seconds[False]),
                   "traced": len(runner.round_seconds[True])},
        "samples": {name: len(t) for name, t in runner.times.items()},
        "repeats": runner.repeats,
        "reference_s": {"nominal": REFERENCE_SECONDS,
                        "median": statistics.median(runner.reference) if runner.reference else None},
        "errors": runner.errors,
        "metrics": {name: {"value": v, "unit": units.get(name) or unit_of(name)}
                    for name, v in sorted(all_metrics.items())},
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return report, result, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sbc" / "__init__.py").is_file():
        print(f"perfbench: no sbc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report, result, runner = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if runner.tracer is not None:
        runner.tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
