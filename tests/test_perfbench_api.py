"""The names the benchmark in perfbench/ patches and calls still exist.

perfbench/spans.py rebinds names inside sbc modules and perfbench/workloads.py
calls entry points, private helpers among them.  A rename or deletion in
src/ that breaks either shows here, at a tiny scale, instead of only when
the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

import sbc

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_ops_run_traced(name):
    tracer = spans.Tracer()
    tracer.install(sbc)
    try:
        wl = workloads.build(sbc, ROOT, name, 1, 1 / 64)
        results = {}
        problems = []
        for op in wl.ops:
            layer = "stream_bwt" if op.name.startswith("simulate.") else "pipelines"
            out = tracer.op(0, op.name, layer, lambda: op.run(results))
            if op.machine:
                _, out = out
            problem = op.check(out)
            if problem is not None:
                problems.append(problem)
            results[op.name] = out
    finally:
        tracer.uninstall()
    assert problems == []
    assert {rec[spans.NAME] for rec in tracer.spans} >= {
        "transforms.bwt", "transforms.bwt_inverse",
        "coders.kth_order_encode", "coders.kth_order_decode",
    }
