"""Command-line interface.

Subcommands: compress, decompress, entropy, transform, simulate,
adversary, bench.  Input comes from a positional path or stdin, output
goes to --output or stdout; output is buffered fully and written once, so
error paths never leave partial files.  Exit codes: 0 success, 1 usage
error, 2 malformed container or input, 3 resource budget exceeded or
host memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable, List, Optional, Sequence

from . import adversary as adv
from . import entropy as ent
from . import pipelines as pl
from . import stream_bwt as sbwt
from . import transforms as tr
from .machine import (
    BudgetExceededError,
    CapabilityError,
    ExpansionError,
    Machine,
    MachineConfig,
    MachineError,
    ModelKind,
)

_DEFAULT_BUDGET = 1 << 40


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _read_input(path: Optional[str]) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: Optional[str], data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)  # the mode open() would have given
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _ranks_of(data: bytes, sigma: Optional[int]):
    """Input bytes as (ranks, sigma, alphabet bytes): the bytes themselves
    under a declared ``sigma``, else :func:`sbc.pipelines.ranks_of`."""
    if sigma is None:
        return pl.ranks_of(data)
    if not 1 <= sigma <= 255:
        raise _UsageError("sigma must be in 1..255")
    tr._validate_ranks(data, sigma)
    return list(data), sigma, bytes(range(sigma))


def _emit_json(args, payload: dict) -> None:
    if args.json:
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _machine_for(model: ModelKind, data: bytes, budget_bits: Optional[int], trace: bool) -> Machine:
    """A machine over ``data``, with the transform's work tapes if read-write; no
    budget means 2^40 bits, ``trace`` writes pass lines to stderr."""
    work_tapes = sbwt.RW_WORK_TAPES if model is ModelKind.READ_WRITE else 0
    machine = Machine(MachineConfig(model, budget_bits or _DEFAULT_BUDGET, work_tapes), data)
    if trace:
        machine.trace = lambda line: sys.stderr.write(line + "\n")
    return machine


# The flags that only a machine reads: usage errors where none runs.
_MACHINE_FLAGS = ("trace", "memory_budget_bits")


def _reject_flags(args, names: Sequence[str], reason: str) -> None:
    """The first given flag of ``names`` is a usage error: what runs does not read it."""
    for name in names:
        given = getattr(args, name)
        if given is not None and given is not False:
            raise _UsageError(f"--{name.replace('_', '-')} {reason}")


def _check_exponents(c: float, epsilon: float) -> None:
    """A pair that ``pipelines.check_exponents`` refuses is a usage error naming both flags."""
    try:
        pl.check_exponents(c, epsilon)
    except ValueError as exc:
        raise _UsageError(f"--c {c} and --epsilon {epsilon}: {exc}") from None


def _report(machine: Optional[Machine], host_stages: Sequence[str], **fields) -> dict:
    """A ``--json`` report or ``bench`` row: ``fields``, the machine's ledger
    when a machine ran, and ``host_stages`` when any stage ran on the host."""
    if machine is not None:
        led = machine.ledger()
        fields.update(passes=led.passes, sort_passes=led.sort_passes,
                      peak_memory_bits=led.peak_memory_bits,
                      total_output_bits=led.total_output_bits)
    if host_stages:
        fields["host_stages"] = list(host_stages)
    return fields


def _compress(entry: pl.Pipeline, ranks: List[int], sigma: int, alphabet: bytes, k: int,
              c: float, epsilon: float, machine: Optional[Machine]):
    """Encode with one pipeline on the given machine; returns (container, report)."""
    container = entry.encode(ranks, sigma, alphabet, k, c, epsilon, machine)
    # With no machine, the whole pipeline is host work.
    host_stages = [entry.name] if machine is None else entry.host_stages
    return container, _report(machine, host_stages, pipeline=entry.name, n=len(ranks),
                              sigma=sigma, size_bits=8 * len(container))


# -- subcommands ------------------------------------------------------------


def _cmd_compress(args) -> int:
    if not args.model:
        _reject_flags(args, _MACHINE_FLAGS, "needs --model: without it no machine runs")
    entry = pl.PIPELINES[args.pipeline]
    if entry.default_k(0) == pl.K_AUTO:  # K_AUTO at any length: the pipeline takes no k
        _reject_flags(args, ("k",), f"has no effect: {entry.name} takes no context length")
    _check_exponents(args.c, args.epsilon)
    data = _read_input(args.input)
    ranks, sigma, alphabet = _ranks_of(data, args.sigma)
    machine = None
    if args.model:
        machine = _machine_for(ModelKind(args.model), bytes(ranks), args.memory_budget_bits, args.trace)
    k = args.k if args.k is not None else entry.default_k(len(ranks))
    container, report = _compress(entry, ranks, sigma, alphabet, k, args.c, args.epsilon, machine)
    _write_output(args.output, container)
    _emit_json(args, report)
    return 0


def _cmd_decompress(args) -> int:
    data = _read_input(args.input)
    ranks, header, alphabet = pl.decode_container(data)
    out = bytes(alphabet[r] for r in ranks)
    _write_output(args.output, out)
    _emit_json(args, _report(None, ["decode"], pipeline=pl.PIPELINES_BY_ID[header.pipeline].name,
                             n=header.n, sigma=header.sigma, size_bits=8 * len(data)))
    return 0


def _cmd_entropy(args) -> int:
    paths = args.inputs or [None]
    lines = []
    for path in paths:
        data = _read_input(path)
        if not data:
            raise ValueError("entropy of an empty input is undefined")
        report = ent.entropy_report(data, args.kmax)
        lines.append(json.dumps({
            "n": report.n,
            "sigma": report.sigma,
            "h": [report.hk_by_k[k] for k in sorted(report.hk_by_k)],
        }))
    _write_output(args.output, ("\n".join(lines) + "\n").encode())
    return 0


def _cmd_transform(args) -> int:
    if args.op != "st":
        _reject_flags(args, ("k",), f"has no effect: {args.op} takes no context length")
    data = _read_input(args.input)
    if args.op == "bwt":
        body = tr.bwt(list(data))
        out = bytes(0xFF if c == tr.SENTINEL else c for c in body)
    elif args.op == "unbwt":
        body = [tr.SENTINEL if b == 0xFF else b for b in data]
        out = bytes(tr.bwt_inverse(body))
    elif args.op == "st":
        body = tr.st(list(data), args.k if args.k is not None else 1)
        out = bytes(0xFF if c == tr.SENTINEL else c for c in body)
    elif args.op == "mtf":
        out = bytes(tr.mtf_encode(data, list(range(256))))
    elif args.op == "dc":
        first, gaps = tr.dc_encode(data, 256)
        parts = [pl.write_varint(len(data))]
        parts += [pl.write_varint(0 if pos is None else pos + 1) for pos in first]
        parts.append(pl.write_varint(len(gaps)))
        parts += [pl.write_varint(g) for g in gaps]
        out = b"".join(parts)
    else:  # pragma: no cover
        raise _UsageError(f"unknown op {args.op}")
    _write_output(args.output, out)
    return 0


def _render_char(c: int) -> str:
    if c == tr.SENTINEL:
        return "#"
    return chr(c) if 33 <= c <= 126 else f"\\x{c:02x}"


def _render_ranked(records) -> str:
    """One tab-separated row per record: tag - 1, value (``?`` if None), char."""
    return "\n".join(f"{tag}\t{'?' if value is None else value}\t{_render_char(c)}"
                     for tag, value, c in records)


def _cmd_simulate(args) -> int:
    if args.algo in ("sort-chars", "sort-numbers"):
        _reject_flags(args, _MACHINE_FLAGS,
                      f"has no effect: {args.algo} runs on the host, on no machine")
    data = _read_input(args.input)
    out_lines: List[str] = []

    # Each round's tape, rendered for --trace.
    on_round = (lambda rows: out_lines.extend((_render_ranked(rows), ""))) if args.trace else None

    if args.algo == "rw-bwt":
        machine = _machine_for(ModelKind.READ_WRITE, data, args.memory_budget_bits, args.trace)
        result = sbwt.rw_bwt_encode(list(data), machine, on_round=on_round)
        out_lines.append("".join(_render_char(c) for c in result))
    elif args.algo == "rw-unbwt":
        marker = 0xFF if 0xFF in data else ord("#")
        body = [tr.SENTINEL if b == marker else b for b in data]
        machine = _machine_for(ModelKind.READ_WRITE, bytes(c + 1 for c in body),
                               args.memory_budget_bits, args.trace)
        result = sbwt.rw_bwt_invert(body, machine, on_round=on_round)
        out_lines.append("".join(_render_char(c) for c in result))
    elif args.algo == "rw-sa":
        machine = _machine_for(ModelKind.READ_WRITE, data, args.memory_budget_bits, args.trace)
        result = sbwt.rw_suffix_array(list(data), machine)
        out_lines.append(" ".join(map(str, result)))
    elif args.algo == "sort-chars":
        result = sbwt.sort_chars_via_bwt(list(data))
        out_lines.append("".join(_render_char(c) for c in result))
        machine = None
    elif args.algo == "sort-numbers":
        xs = [int(tok) for tok in data.split()]
        result = sbwt.sort_numbers_via_bwt(xs)
        out_lines.append(" ".join(map(str, result)))
        machine = None
    else:  # pragma: no cover
        raise _UsageError(f"unknown algorithm {args.algo}")
    _write_output(args.output, ("\n".join(out_lines) + "\n").encode())
    _emit_json(args, _report(machine, [args.algo] if machine is None else []))
    return 0


def _cmd_adversary(args) -> int:
    if args.experiment:
        _reject_flags(args, ("sigma", "k", "power"), "has no effect with --experiment")
        if args.n is None or args.c is None or args.epsilon is None:
            raise _UsageError("--experiment needs --n, --c and --epsilon")
        _check_exponents(args.c, args.epsilon)
        report = adv.separation_experiment(args.n, args.c, args.epsilon)
        payload = {
            "n": report.n, "c": report.c, "epsilon": report.epsilon, "k": report.k,
            "size_block_bits": report.size_block_bits,
            "size_full_bits": report.size_full_bits,
            "ratio": report.ratio,
        }
        _write_output(args.output, (json.dumps(payload, sort_keys=True) + "\n").encode())
        return 0
    _reject_flags(args, ("n", "c", "epsilon"), "needs --experiment")
    if args.sigma is None or args.k is None:
        raise _UsageError("need --sigma and --k (or --experiment)")
    prefix = adv.de_bruijn(args.sigma, args.k)
    s = adv.db_power(prefix, 1 if args.power is None else args.power)
    if args.sigma <= 26:
        out = "".join(chr(ord("a") + c) for c in s).encode()
    else:
        out = bytes(s)
    _write_output(args.output, out)
    return 0


_BENCH_COLUMNS = [
    "file", "pipeline", "k", "c", "epsilon", "model",
    "n", "sigma", "h0", "h1", "h2", "h3", "h4",
    "size_bits", "passes", "sort_passes", "peak_memory_bits", "total_output_bits", "wall_time",
    "host_stages",
]


def _bench_cell(ranks: List[int], sigma: int, alphabet: bytes, entry: pl.Pipeline,
                k: Optional[int], c: float, epsilon: float) -> dict:
    default_k = entry.default_k(len(ranks))
    if k is None or default_k == pl.K_AUTO:  # the k the container carries
        k = default_k
    machine = _machine_for(entry.model, bytes(ranks), None, False)
    started = time.perf_counter()
    _, report = _compress(entry, ranks, sigma, alphabet, k, c, epsilon, machine)
    wall = time.perf_counter() - started
    report.update(k=k, c=c, epsilon=epsilon, model=entry.model.value, wall_time=f"{wall:.6f}",
                  host_stages="+".join(report.get("host_stages", ())))
    return report


def _cmd_bench(args) -> int:
    pipelines = args.pipelines.split(",")
    for name in pipelines:
        if name not in pl.PIPELINES:
            raise _UsageError(f"unknown pipeline {name}")
    _check_exponents(args.c, args.epsilon)
    try:
        files = sorted(
            f for f in os.listdir(args.corpus)
            if os.path.isfile(os.path.join(args.corpus, f))
        )
    except OSError as exc:
        raise _UsageError(f"cannot read corpus directory: {exc}") from None
    rows = []
    skipped = 0
    for fname in files:
        try:
            with open(os.path.join(args.corpus, fname), "rb") as fh:
                data = fh.read()
            ranks, sigma, alphabet = pl.ranks_of(data)
        except (OSError, ValueError) as exc:  # unreadable, or not representable
            sys.stderr.write(f"warning: skipping {fname}: {exc}\n")
            skipped += 1
            continue
        entropy = {f"h{kk}": f"{ent.hk(data, kk):.6f}" if data else "" for kk in range(5)}
        for pipeline in pipelines:
            try:
                row = _bench_cell(ranks, sigma, alphabet, pl.PIPELINES[pipeline], args.k, args.c,
                                  args.epsilon)
            except (ValueError, CapabilityError) as exc:  # this pipeline refuses this input
                sys.stderr.write(f"warning: skipping {fname} {pipeline}: {exc}\n")
                skipped += 1
                continue
            row.update(entropy, file=fname)
            rows.append(row)
    rows.sort(key=lambda r: (r["file"], r["pipeline"], r["k"], r["c"], r["epsilon"], r["model"]))
    lines = [",".join(_BENCH_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in _BENCH_COLUMNS))
    _write_output(args.output, ("\n".join(lines) + "\n").encode())
    return 1 if skipped else 0


# -- parser -------------------------------------------------------------------


def _checked(parse: Callable, ok: Callable[..., bool], rule: str) -> Callable:
    """An argparse type: ``parse`` the text, and reject a value that is not ``ok``."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text}")
        return value
    check.__name__ = parse.__name__  # argparse's "invalid int value" names it
    return check


positive_int = _checked(int, lambda v: v > 0, "positive")
non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
finite_float = _checked(float, math.isfinite, "finite")
# The container header keeps K_AUTO for "no context length".
context_length = _checked(int, lambda v: 0 <= v < pl.K_AUTO, f"in 0..{pl.K_AUTO - 1}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="input file (default: stdin)")
        p.add_argument("--output", "-o", default=None, help="output file (default: stdout)")

    # Only the subcommands whose handlers read them take --json and --trace.
    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="write a one-line JSON ledger/report to stderr")

    def add_trace(p):
        p.add_argument("--trace", action="store_true",
                       help="emit per-pass trace lines")

    p = sub.add_parser("compress", help="compress a byte stream into a container")
    add_io(p)
    add_json(p)
    add_trace(p)
    p.add_argument("--pipeline", choices=sorted(pl.PIPELINES), default="bwt-dc-ac")
    p.add_argument("--k", type=context_length, default=None,
                   help="context length (kth-order) or maximum context length (st-dc-ac)")
    p.add_argument("--c", type=finite_float, default=0.5, help="memory exponent for block-kth")
    p.add_argument("--epsilon", type=finite_float, default=0.25,
                   help="redundancy exponent for block-kth")
    p.add_argument("--memory-budget-bits", type=positive_int, default=None)
    p.add_argument("--model", choices=sorted(m.value for m in ModelKind), default=None,
                   help="run the pipeline's stages on a machine of this model")
    p.add_argument("--sigma", type=int, default=None,
                   help="declare the alphabet size instead of inferring it")

    p = sub.add_parser("decompress", help="decode a container back to bytes")
    add_io(p)
    add_json(p)

    p = sub.add_parser("entropy", help="order-0..k entropy report as JSON")
    p.add_argument("inputs", nargs="*", default=None, help="input files (default: stdin)")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--kmax", type=non_negative_int, default=4)

    p = sub.add_parser("transform", help="raw transforms on byte streams")
    add_io(p)
    p.add_argument("--op", choices=["bwt", "unbwt", "st", "mtf", "dc"], required=True)
    p.add_argument("--k", type=non_negative_int, default=None, help="context length for st")

    p = sub.add_parser("simulate", help="run a tape-machine algorithm")
    add_io(p)
    p.add_argument("--algo", choices=["rw-bwt", "rw-unbwt", "rw-sa", "sort-chars", "sort-numbers"],
                   required=True)
    p.add_argument("--memory-budget-bits", type=positive_int, default=None)
    add_json(p)
    add_trace(p)

    p = sub.add_parser("adversary", help="emit covering-sequence powers or run the experiment")
    add_io(p, with_input=False)
    p.add_argument("--sigma", type=_checked(int, lambda v: 2 <= v <= 256, "in 2..256"), default=None)
    p.add_argument("--k", type=positive_int, default=None)
    p.add_argument("--power", type=positive_int, default=None, help="repetitions (default: 1)")
    p.add_argument("--experiment", action="store_true")
    p.add_argument("--n", type=_checked(int, lambda v: v >= 2, "at least 2"), default=None)
    p.add_argument("--c", type=finite_float, default=None)
    p.add_argument("--epsilon", type=finite_float, default=None)

    p = sub.add_parser("bench", help="benchmark a corpus directory to CSV")
    p.add_argument("corpus")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--pipelines", default="bwt-dc-ac")
    p.add_argument("--k", type=context_length, default=None)
    p.add_argument("--c", type=finite_float, default=0.5)
    p.add_argument("--epsilon", type=finite_float, default=0.25)
    return parser


_HANDLERS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "entropy": _cmd_entropy,
    "transform": _cmd_transform,
    "simulate": _cmd_simulate,
    "adversary": _cmd_adversary,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (BudgetExceededError, ExpansionError) as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 3
    except MemoryError:
        sys.stderr.write("resource error: out of memory\n")
        return 3
    except CapabilityError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except pl.FormatError as exc:
        sys.stderr.write(f"format error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except MachineError as exc:
        sys.stderr.write(f"machine error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
