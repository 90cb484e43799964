"""Seeded inputs and the operation table of each benchmark workload.

Every workload runs the same operation kinds, so that every end-to-end
metric exists on every workload: compress with the five pipelines,
decompress with the four decodable ones, and the two tape simulations.
What differs is the input and, on ``tape``, that every compress runs on the
simulated machine its ``compress --model`` path uses.  README.md says why
each workload exists.

Inputs depend only on the seed and the size scale.  Oracles (the expected
outputs of the tape simulations and of the streamsort encoder) are computed
here, during set-up, so that checks outside the timed region are cheap.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

PIPELINES = ("bwt-mtf-rle-ac", "bwt-dc-ac", "block-kth", "kth-order", "st-dc-ac")
DECODABLE = PIPELINES[:4]
WORKLOADS = ("text", "repetitive", "wide", "tape")

# Characters of the in-memory st-dc-ac input (a prefix of the workload's).
ST_CHARS = 16 * 1024

# The CLI's budget when --memory-budget-bits is not given.
UNLIMITED_BITS = 1 << 40


@dataclass
class Op:
    """One timed operation.

    ``run(results)`` does the timed work and returns its output; ``check``
    gets that output outside the timed region and returns None when it is
    correct, else a one-line reason.  ``results`` maps op names of the
    current round to their outputs, so a decompress reads the container
    its compress produced in the same round.
    """

    name: str           # e.g. "compress.bwt-dc-ac", "simulate.rw-bwt"
    chars: int          # characters the throughput metric counts
    run: Callable[[Dict[str, object]], object]
    check: Callable[[object], Optional[str]]
    needs: Optional[str] = None  # op whose output this one consumes
    machine: bool = False        # run() returns (machine, output)


@dataclass
class Workload:
    ops: List[Op]
    input: List[int]  # the generated input the fingerprint identifies
    setup_layers: Dict[str, float] = field(default_factory=dict)
    separation_floor: Optional[float] = None


# -- input generators ------------------------------------------------------


def markov_text(corpus: bytes, n: int, seed: int, order: int = 3) -> bytes:
    """n bytes from an order-``order`` character chain fitted to ``corpus``.

    The corpus is read cyclically, so every context has a successor.
    Successors are kept with multiplicity, so a uniform choice among them
    samples the fitted distribution.
    """
    m = len(corpus)
    table: Dict[bytes, List[int]] = {}
    for i in range(m):
        ctx = bytes(corpus[(i + j) % m] for j in range(order))
        table.setdefault(ctx, []).append(corpus[(i + order) % m])
    rng = random.Random(seed)
    start = rng.randrange(m)
    out = bytearray(corpus[(start + j) % m] for j in range(order))
    while len(out) < n:
        out.append(rng.choice(table[bytes(out[-order:])]))
    return bytes(out[:n])


def wide_source(n: int, seed: int, sigma: int = 250, likely: int = 8, noise: float = 0.1) -> List[int]:
    """Order-1 Markov ranks: each symbol has ``likely`` favoured successors.

    The successor table is fixed, so every seed samples the same source,
    as the text generator's seeds all sample one fitted chain.
    """
    table = random.Random(sigma)
    successors = [table.sample(range(sigma), likely) for _ in range(sigma)]
    rng = random.Random(seed)
    out = [rng.randrange(sigma)]
    while len(out) < n:
        if rng.random() < noise:
            out.append(rng.randrange(sigma))
        else:
            out.append(rng.choice(successors[out[-1]]))
    return out


def ranks_of(data: bytes):
    """Dense ranks of the distinct bytes, as ``sbc compress`` assigns them, and sigma."""
    alphabet = sorted(set(data))
    rank = {b: i for i, b in enumerate(alphabet)}
    return [rank[b] for b in data], len(alphabet)


def fingerprint(sbc, ranks: List[int]) -> dict:
    return {
        "n": len(ranks),
        "sigma": len(set(ranks)),
        "sha256": hashlib.sha256(bytes(ranks)).hexdigest(),
        "h0": sbc.entropy.h0(ranks),
        "h2": sbc.entropy.hk(ranks, 2),
    }


# -- checks ----------------------------------------------------------------


def _equal(expected: List[int], what: str) -> Callable[[object], Optional[str]]:
    def check(out) -> Optional[str]:
        if out == expected:
            return None
        if not isinstance(out, list) or len(out) != len(expected):
            return f"{what}: wrong length"
        first = next(i for i, (a, b) in enumerate(zip(out, expected)) if a != b)
        return f"{what}: first mismatch at {first}"
    return check


def _decoded_equal(expected: List[int]) -> Callable[[object], Optional[str]]:
    inner = _equal(expected, "decompress")
    return lambda out: inner(out[0])


def _st_container_check(sbc, s: List[int], sigma: int, k_max: int,
                        oracle: Optional[bytes]) -> Callable[[object], Optional[str]]:
    """Check an st-dc-ac container, which no public decoder accepts.

    With an oracle container the check is byte equality.  Without one, the
    first container is verified against the definition (the payload decodes
    to the length-k sort for the header's k) and later ones must equal it
    byte for byte; the encoder is deterministic.
    """
    pl, tr = sbc.pipelines, sbc.transforms
    verified: List[bytes] = [] if oracle is None else [oracle]

    def check(container) -> Optional[str]:
        if verified:
            return None if container == verified[0] else "st-dc-ac: container differs from the oracle"
        header, _, payload = pl.parse_container(container)
        if header.pipeline is not pl.PipelineId.ST_DC_AC or header.n != len(s) or header.k > k_max:
            return "st-dc-ac: bad header"
        body = pl._dc_ac_decode(payload, len(s) + 1, sigma + 1)
        if body != [c + 1 for c in tr.st(s, header.k, sigma)]:
            return "st-dc-ac: payload is not the length-k sort"
        verified.append(container)
        return None

    return check


# -- operation builders ----------------------------------------------------


def _memory_ops(sbc, s: List[int], sigma: int, kth_k: int, st_k_max: int,
                block_machine_bits: Optional[int]) -> List[Op]:
    """In-memory compress and decompress of one input with every pipeline.

    ``block_machine_bits`` runs block-kth on a standard machine with that
    budget instead (the separation experiment's configuration).  st-dc-ac
    runs on a prefix: it sorts k_max + 1 times, and at full length it alone
    would take half of a round and leave every metric fewer samples.
    """
    pl, m = sbc.pipelines, sbc.machine
    n = len(s)
    st_s = s[:ST_CHARS]
    plan = pl.BlockPlan.for_length(n, 0.5, 0.25)

    def block(_):
        if block_machine_bits is None:
            return pl.block_encode(s, sigma, plan)
        mach = m.Machine(m.MachineConfig(m.ModelKind.STANDARD, memory_budget_bits=block_machine_bits),
                         bytes(s))
        return mach, pl.block_encode(s, sigma, plan, machine=mach)

    compress = {
        "bwt-mtf-rle-ac": lambda _: pl.encode_bwt_mtf_rle_ac(s, sigma),
        "bwt-dc-ac": lambda _: pl.encode_bwt_dc_ac(s, sigma),
        "block-kth": block,
        "kth-order": lambda _: pl.encode_kth_order(s, sigma, kth_k),
        "st-dc-ac": lambda _: pl.encode_st_dc_ac(st_s, sigma, st_k_max),
    }
    ops = []
    for p in PIPELINES:
        check = _st_container_check(sbc, st_s, sigma, st_k_max, None) if p == "st-dc-ac" else _no_check
        ops.append(Op(f"compress.{p}", len(st_s) if p == "st-dc-ac" else n, compress[p], check,
                      machine=p == "block-kth" and block_machine_bits is not None))
    ops += _decompress_ops(sbc, s)
    return ops


def _no_check(_) -> Optional[str]:
    # Containers of decodable pipelines are checked by their decompress op.
    return None


def _decompress_ops(sbc, s: List[int]) -> List[Op]:
    decode = sbc.pipelines.decode_container
    return [Op(f"decompress.{p}", len(s), lambda res, p=p: decode(res[f"compress.{p}"]),
               _decoded_equal(s), needs=f"compress.{p}") for p in DECODABLE]


def _simulation_ops(sbc, prefix: List[int]) -> List[Op]:
    sb, tr = sbc.stream_bwt, sbc.transforms
    transformed = tr.bwt(prefix)

    def encode(_, on_round=None):
        mach = sb.default_rw_machine(bytes(prefix))
        return mach, sb.rw_bwt_encode(prefix, machine=mach, on_round=on_round)

    def invert(_, on_round=None):
        mach = sb.default_rw_machine(bytes(c + 1 for c in transformed))
        return mach, sb.rw_bwt_invert(transformed, machine=mach, on_round=on_round)

    return [
        Op("simulate.rw-bwt", len(prefix), encode, _equal(transformed, "rw-bwt"), machine=True),
        Op("simulate.rw-unbwt", len(prefix), invert, _equal(prefix, "rw-unbwt"), machine=True),
    ]


def _model_ops(sbc, s: List[int], sigma: int, st_s: List[int], st_k_max: int) -> List[Op]:
    """The ``sbc compress --model`` paths, each on the machine the CLI uses."""
    pl, tr, m, sst = sbc.pipelines, sbc.transforms, sbc.machine, sbc.stream_st
    n = len(s)
    alphabet = bytes(range(sigma))

    def machine(kind, data: bytes, work_tapes: int = 0):
        return m.Machine(m.MachineConfig(kind, memory_budget_bits=UNLIMITED_BITS,
                                         work_tapes=work_tapes), data)

    def header(pid, payload: bytes) -> bytes:
        h = pl.ContainerHeader(pid, sigma, pl.K_AUTO, n, 0, 8 * len(payload))
        return pl.build_container(h, alphabet, payload)

    def mtf(_):
        body = tr.bwt(s, sigma)
        mach = machine(m.ModelKind.STANDARD, bytes(c + 1 for c in body))
        return mach, header(pl.PipelineId.BWT_MTF_RLE_AC, pl.mtf_rle_ac_encode_stream(mach, sigma))

    def dc(_):
        body = tr.bwt(s, sigma)
        mach = machine(m.ModelKind.READ_WRITE, bytes(c + 1 for c in body), work_tapes=1)
        return mach, header(pl.PipelineId.BWT_DC_AC, pl.dc_ac_encode_stream(mach, sigma))

    def block(_):
        mach = machine(m.ModelKind.STANDARD, bytes(s))
        return mach, pl.block_encode(s, sigma, pl.BlockPlan.for_length(n, 0.5, 0.25), machine=mach)

    def kth(_):
        mach = machine(m.ModelKind.STANDARD, bytes(s))
        return mach, pl.encode_kth_order(s, sigma, 2, machine=mach)

    def st(_):
        mach = machine(m.ModelKind.STREAM_SORT, b"")
        return mach, sst.streamsort_st_best_k(st_s, st_k_max, machine=mach, sigma=sigma)

    oracle = pl.encode_st_dc_ac(st_s, sigma, st_k_max)
    runs = {"bwt-mtf-rle-ac": mtf, "bwt-dc-ac": dc, "block-kth": block, "kth-order": kth, "st-dc-ac": st}
    ops = []
    for p in PIPELINES:
        check = _st_container_check(sbc, st_s, sigma, st_k_max, oracle) if p == "st-dc-ac" else _no_check
        ops.append(Op(f"compress.{p}", len(st_s) if p == "st-dc-ac" else n, runs[p], check, machine=True))
    return ops + _decompress_ops(sbc, s)


# -- workloads -------------------------------------------------------------


def _scaled(n: int, scale: float, floor: int = 64) -> int:
    return max(floor, int(n * scale))


def build(sbc, root, name: str, seed: int, scale: float) -> Workload:
    """Generate the inputs and operations of one workload."""
    corpus_dir = root / "tests" / "fixtures" / "corpus"
    if name in ("text", "tape"):
        corpus = (corpus_dir / "english.txt").read_bytes() + (corpus_dir / "service.log").read_bytes()
    if name == "text":
        s, sigma = ranks_of(markov_text(corpus, _scaled(64 * 1024, scale), seed))
        ops = _memory_ops(sbc, s, sigma, kth_k=2, st_k_max=3, block_machine_bits=None)
        # 2 KiB: on 1 KiB the doubling takes 5 or 6 rounds depending on the
        # seed, which splits the throughput in two.  The tail, so that the
        # tape workload (same generator and seed) does not repeat it.
        ops += _simulation_ops(sbc, s[-_scaled(2048, scale):])
        return Workload(ops, s)
    if name == "repetitive":
        return _repetitive(sbc, root, scale)
    if name == "wide":
        sigma = 250
        s = wide_source(_scaled(32 * 1024, scale), seed, sigma)
        ops = _memory_ops(sbc, s, sigma, kth_k=1, st_k_max=1, block_machine_bits=None)
        ops += _simulation_ops(sbc, s[:_scaled(1024, scale)])
        return Workload(ops, s)
    if name == "tape":
        s, sigma = ranks_of(markov_text(corpus, _scaled(16 * 1024, scale), seed))
        st_s = s[:_scaled(4096, scale)]
        ops = _model_ops(sbc, s, sigma, st_s, st_k_max=4)
        ops += _simulation_ops(sbc, s[:_scaled(2048, scale)])
        return Workload(ops, s)
    raise ValueError(f"unknown workload {name!r}")


def _repetitive(sbc, root, scale: float) -> Workload:
    """The De Bruijn power of ``separation_experiment(n, 0.5, 0.25)``.

    The parameters are derived exactly as the experiment derives them, so
    the block-kth and bwt-dc-ac containers are the two it compares.  The
    input does not depend on the seed.
    """
    adv = sbc.adversary
    # The experiment needs n >= 2^12 for its budget to hold a block.
    target = 1 << max(12, round(math.log2(_scaled(1 << 16, scale))))
    c, epsilon = 0.5, 0.25
    k = math.ceil((c + epsilon / 2) * math.log2(target))
    t0 = time.perf_counter()
    prefix = adv.de_bruijn(2, k)
    s = adv.db_power(prefix, max(1, round(target / 2 ** k)))
    de_bruijn_s = time.perf_counter() - t0
    budget = adv.MEMORY_SLACK * math.ceil(len(s) ** c)
    ops = _memory_ops(sbc, s, 2, kth_k=2, st_k_max=3, block_machine_bits=budget)
    # Two periods, so the longest repeat is a full period and the doubling
    # runs its maximal number of rounds.
    ops += _simulation_ops(sbc, s[:2 * len(prefix)])
    calibration = json.loads((root / "tests" / "fixtures" / "calibration.json").read_text())
    # The floor is pinned by tools/calibrate.py at n = 2^16 only.
    floor = calibration["separation_min_ratio"] if target == 1 << 16 else None
    return Workload(ops, s,
                    setup_layers={"adversary.de_bruijn_s": de_bruijn_s}, separation_floor=floor)
