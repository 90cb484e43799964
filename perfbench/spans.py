"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` rebinds the names one ``sbc`` module imported from
another (for example ``sbc.pipelines.bwt`` or ``sbc.stream_bwt.tape_merge_sort``)
to wrappers that record a span per call: name, start, end, parent span and
op id.  Nothing inside ``src/`` changes; ``uninstall`` restores every name.
Spans stay in memory until ``dump``; ``layer_metrics`` derives the
per-layer metrics from them.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List

clock = time.perf_counter

# Span fields: name, start, end, parent index (-1 at top), op id, and the
# seconds a transform spent inside callbacks into the coder (the gap source
# handed to _dc_reconstruct), which belong to the coder layer.
NAME, START, END, PARENT, OP, CALLBACK = range(6)

#: Spans whose time is not coding: a pipeline's "coding self" time is its
#: op span minus these children, plus the callback time inside them.
_NOT_CODING = ("transforms.", "machine.", "stream_st.", "stream_bwt.")

# Ledger fields reported per machine-backed op.
LEDGER = ("passes", "sort_passes", "peak_memory_bits", "tape_bits_swept", "total_output_bits")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.ops: List[tuple] = []   # op id -> (round, op name)
        self.begin_pass_calls: List[int] = []  # per op id
        self.pad_passes: List[int] = []        # per op id
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, len(self.ops) - 1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = clock()
        self._stack.pop()

    def op(self, round_index: int, name: str, layer: str, fn: Callable[[], object]):
        """Run one benchmark op inside its top-level span."""
        self.ops.append((round_index, name))
        self.begin_pass_calls.append(0)
        self.pad_passes.append(0)
        rec = self._open(f"{layer}.{name}")
        try:
            return fn()
        finally:
            self._close(rec)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _reconstruct(self, fn: Callable) -> Callable:
        def wrapper(first_occurrence, n, next_gap):
            rec = self._open("transforms.dc_reconstruct")

            def timed_gap():
                t0 = clock()
                try:
                    return next_gap()
                finally:
                    rec[CALLBACK] += clock() - t0
            try:
                return fn(first_occurrence, n, timed_gap)
            finally:
                self._close(rec)
        return wrapper

    def _counted_begin_pass(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.begin_pass_calls[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _streamsort_with_stats(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            stats = kwargs.setdefault("stats", {})
            out = fn(*args, **kwargs)
            self.pad_passes[-1] += stats["pad_passes"]
            return out
        return self._spanned("stream_st.streamsort_st", wrapper)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, sbc) -> None:
        pl, tr, sb, sst, m = sbc.pipelines, sbc.transforms, sbc.stream_bwt, sbc.stream_st, sbc.machine
        for owner in (pl, tr):  # tr: the host transform of the --model paths
            self._patch(owner, "bwt", self._spanned("transforms.bwt", owner.bwt))
        self._patch(pl, "bwt_inverse", self._spanned("transforms.bwt_inverse", pl.bwt_inverse))
        self._patch(pl, "st", self._spanned("transforms.st", pl.st))
        self._patch(pl, "dc_encode", self._spanned("transforms.dc_encode", pl.dc_encode))
        self._patch(pl, "_dc_reconstruct", self._reconstruct(pl._dc_reconstruct))
        self._patch(pl, "kth_order_encode", self._spanned("coders.kth_order_encode", pl.kth_order_encode))
        self._patch(pl, "kth_order_decode", self._spanned("coders.kth_order_decode", pl.kth_order_decode))
        self._patch(sb, "tape_merge_sort", self._spanned("machine.tape_merge_sort", sb.tape_merge_sort))
        self._patch(sst, "streamsort_st", self._streamsort_with_stats(sst.streamsort_st))
        self._patch(m.Machine, "sort_pass", self._spanned("machine.sort_pass", m.Machine.sort_pass))
        self._patch(m.Machine, "begin_pass", self._counted_begin_pass(m.Machine.begin_pass))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the ops and spans as JSON lines, one record per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op_id, (round_index, name) in enumerate(self.ops):
                fh.write(json.dumps({"op": op_id, "round": round_index, "name": name}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "callback_s"), rec))) + "\n")

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, ledgers: Dict[str, dict]) -> Dict[str, float]:
        """Per-round medians of span times and counts, keyed by metric name.

        ``ledgers`` maps machine-backed op names to their (deterministic)
        ledger fields.
        """
        children: Dict[int, List[int]] = defaultdict(list)
        for i, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append(i)
        rounds = sorted({r for r, _ in self.ops})
        per_round: Dict[str, Dict[int, float]] = defaultdict(lambda: {r: 0.0 for r in rounds})

        def add(metric: str, op_id: int, value: float) -> None:
            per_round[metric][self.ops[op_id][0]] += value

        for i, rec in enumerate(self.spans):
            name, dur, op_id = rec[NAME], rec[END] - rec[START], rec[OP]
            if name.startswith(("transforms.", "coders.", "machine.", "stream_st.")):
                add(f"{name}_s", op_id, dur - rec[CALLBACK])
                add(f"{name}_calls", op_id, 1)
            if rec[PARENT] == -1:
                op = self.ops[op_id][1]
                kids = [self.spans[j] for j in children[i]]
                if op.startswith(("compress.", "decompress.")):
                    not_coding = sum(k[END] - k[START] - k[CALLBACK] for k in kids
                                     if k[NAME].startswith(_NOT_CODING))
                    add(f"coders.coding_self_s.{op.split('.', 1)[1]}", op_id, dur - not_coding)
                if op.startswith("simulate."):
                    merge = sum(k[END] - k[START] for k in kids if k[NAME] == "machine.tape_merge_sort")
                    add(f"stream_bwt.self_s.{op.split('.', 1)[1]}", op_id, dur - merge)
                if op == "compress.st-dc-ac" and self.pad_passes[op_id]:
                    add("stream_st.pad_passes", op_id, self.pad_passes[op_id])
                add("machine.begin_pass_calls", op_id, self.begin_pass_calls[op_id])

        metrics = {name: statistics.median(values.values()) for name, values in per_round.items()}
        for op, ledger in ledgers.items():
            for key in LEDGER:
                metrics[f"machine.{key}.{op.split('.', 1)[1]}"] = ledger[key]
        return metrics


def ledger_of(machine) -> dict:
    led = machine.ledger()
    return {
        "passes": led.passes,
        "sort_passes": led.sort_passes,
        "peak_memory_bits": led.peak_memory_bits,
        "tape_bits_swept": sum(led.per_pass_tape_bits),
        "total_output_bits": led.total_output_bits,
    }


def count_rounds(ops) -> Dict[str, int]:
    """Doubling rounds of each tape simulation, through the public on_round hook.

    Run once, untimed and untraced, because the hook decodes the whole tape
    every round, which would inflate the traced self time.
    """
    counts: Dict[str, int] = {}
    for op in ops:
        if op.name.startswith("simulate."):
            name = op.name.split(".", 1)[1]
            counts[f"stream_bwt.rounds.{name}"] = 0

            def hook(_triples, key=f"stream_bwt.rounds.{name}"):
                counts[key] += 1

            op.run({}, on_round=hook)
    return counts
