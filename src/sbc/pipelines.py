"""Compressor pipelines and the byte-exact container format.

A container is::

    magic "SBC1" | pipeline (1) | sigma (1) | k (1) | n varint |
    block_len varint | payload_bits varint | alphabet (sigma bytes) | payload

Varints are unsigned little-endian base-128.  ``k`` is 255 when the
pipeline has no fixed context length (or selected it automatically); the
alphabet table maps ranks back to the caller's byte values so decoding
needs no side information.  All pipelines shift transform symbols up by
one before modelling so the inline end marker becomes symbol 0.

The block pipeline splits the input into blocks sized ``ceil(n**(c-e/2))``
and compresses each independently with the transform+distance+adaptive
stand-in coder, framing every block with its own varint lengths so
decoding is a single forward walk.  When the total length is unknown up
front, block sizes derive from a running estimate that starts at 16 and
doubles every time it is consumed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .coders import (
    FreqModel,
    SymbolDecoder,
    SymbolEncoder,
    _ceil_log2,
    _charge,
    kth_order_decode,
    kth_order_encode,
)
from .machine import INPUT, REVERSE, WRITE, CapabilityError, Machine, ModelKind
from .transforms import _dc_reconstruct, bwt, bwt_inverse, dc_encode, mtf_encode, st


class FormatError(Exception):
    """Container or payload data is malformed."""


class PipelineId(enum.IntEnum):
    BWT_MTF_RLE_AC = 1
    BWT_DC_AC = 2
    ST_DC_AC = 3
    BLOCK_KTH = 4
    KTH_ORDER = 5


K_AUTO = 255
MAGIC = b"SBC1"


def write_varint(value: int) -> bytes:
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        out.append(b | (0x80 if value else 0))
        if not value:
            return bytes(out)


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise FormatError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("varint too long")


@dataclass(frozen=True)
class ContainerHeader:
    pipeline: PipelineId
    sigma: int
    k: int
    n: int
    block_len: int
    payload_bits: int

    def serialize(self) -> bytes:
        if not 0 <= self.sigma <= 255:
            raise ValueError("sigma must fit one byte")
        if not 0 <= self.k <= 255:
            raise ValueError("k must fit one byte")
        return (
            MAGIC
            + bytes([int(self.pipeline), self.sigma, self.k])
            + write_varint(self.n)
            + write_varint(self.block_len)
            + write_varint(self.payload_bits)
        )


def parse_header(data: bytes, pos: int = 0) -> Tuple[ContainerHeader, int]:
    if data[pos:pos + 4] != MAGIC:
        raise FormatError("bad magic")
    pos += 4
    if pos + 3 > len(data):
        raise FormatError("truncated header")
    try:
        pipeline = PipelineId(data[pos])
    except ValueError:
        raise FormatError(f"unknown pipeline id {data[pos]}") from None
    sigma = data[pos + 1]
    k = data[pos + 2]
    pos += 3
    n, pos = read_varint(data, pos)
    block_len, pos = read_varint(data, pos)
    payload_bits, pos = read_varint(data, pos)
    return ContainerHeader(pipeline, sigma, k, n, block_len, payload_bits), pos


def build_container(header: ContainerHeader, alphabet: bytes, payload: bytes) -> bytes:
    if len(alphabet) != header.sigma:
        raise ValueError("alphabet table must have sigma entries")
    if (header.payload_bits + 7) // 8 != len(payload):
        raise ValueError("payload_bits inconsistent with payload")
    return header.serialize() + alphabet + payload


def parse_container(data: bytes) -> Tuple[ContainerHeader, bytes, bytes]:
    header, pos = parse_header(data)
    alphabet = data[pos:pos + header.sigma]
    if len(alphabet) != header.sigma:
        raise FormatError("truncated alphabet table")
    payload = data[pos + header.sigma:]
    if (header.payload_bits + 7) // 8 != len(payload):
        raise FormatError("payload length mismatch")
    return header, alphabet, payload


def _container(pipeline: PipelineId, sigma: int, k: int, n: int, payload: bytes,
               alphabet: Optional[bytes], block_len: int = 0) -> bytes:
    """Frame payload; a missing alphabet table means the identity ranks."""
    header = ContainerHeader(pipeline, sigma, k, n, block_len, 8 * len(payload))
    return build_container(header, alphabet or bytes(range(sigma)), payload)


def _best_k(k_max: int, payload_for: Callable[[int], bytes]) -> Tuple[int, bytes]:
    """The shortest payload_for(k) over k = 0..k_max; the smallest k wins ties."""
    if not 0 <= k_max < K_AUTO:
        raise ValueError("k_max must be in 0..254")
    return min(((k, payload_for(k)) for k in range(k_max + 1)), key=lambda kp: len(kp[1]))


def _release(machine: Optional[Machine], bits: int) -> None:
    if machine is not None and bits:
        machine.release_memory(bits)


# -- move-to-front + run-length + adaptive payload -------------------------


def _mtf_rle_ac_payload(symbols: Iterable[int], sigma_total: int, machine=None) -> bytes:
    """One streaming pass: per-symbol list index, maximal runs, then coding.

    ``symbols`` are shifted values 0..sigma_total-1 (end marker already 0).
    """
    sym_model = FreqModel(sigma_total)
    run_model = FreqModel(2)
    charged = _charge(
        machine,
        sym_model.state_bits() + run_model.state_bits()
        + sigma_total * max(1, _ceil_log2(max(sigma_total, 2)))  # the self-organizing list
        + 128 + 64,  # coder registers and run bookkeeping
    )
    enc = SymbolEncoder()
    indices = mtf_encode(symbols, range(sigma_total))
    for i, run in groupby(indices):
        enc.put(sym_model, i)
        enc.put_delta(run_model, len(list(run)))
    _release(machine, charged)
    return enc.finish() if indices else b""


def _mtf_rle_ac_decode(payload: bytes, count: int, sigma_total: int) -> List[int]:
    if count == 0:
        return []
    sym_model = FreqModel(sigma_total)
    run_model = FreqModel(2)
    dec = SymbolDecoder(payload)
    table = list(range(sigma_total))
    out: List[int] = []
    while len(out) < count:
        index = dec.get(sym_model)
        run = dec.get_delta(run_model)
        if len(out) + run > count:
            raise FormatError("run overflows declared length")
        for _ in range(run):
            c = table[index]
            out.append(c)
            if index:
                table.insert(0, table.pop(index))
        # After the first emission the repeated index keeps resolving
        # against the updated list, mirroring the encoder exactly.
    return out


def mtf_rle_ac_encode_stream(machine: Machine, sigma: int) -> bytes:
    """Standard-model pass over an already-transformed stream on the input tape.

    Tape records are single shifted symbols (end marker 0, rank r at r+1).
    The payload is written to the output tape and returned.
    """
    with machine.begin_pass(INPUT) as p:
        payload = _mtf_rle_ac_payload([rec[0] for rec in p.read_all()], sigma + 1, machine)
    machine.write_output(payload)
    return payload


# -- distance coding + adaptive payload ------------------------------------


def _dc_ac_code(first: Iterable[Optional[int]], gaps: Iterable[int]) -> bytes:
    """First-occurrence table then per-run gaps, all delta-coded adaptively."""
    enc = SymbolEncoder()
    enc.put_deltas(FreqModel(2), (1 if pos is None else pos + 2 for pos in first))
    enc.put_deltas(FreqModel(2), (gap + 1 for gap in gaps))
    return enc.finish()


def _dc_ac_payload(body_shifted: Sequence[int], sigma_total: int, machine=None) -> bytes:
    n = len(body_shifted)
    charged = _charge(
        machine,
        2 * FreqModel(2).state_bits()  # the two models of _dc_ac_code
        + sigma_total * _ceil_log2(n + 2)  # last-occurrence register per symbol
        + 2 * _ceil_log2(n + 2) + 128,
    )
    stream = dc_encode(body_shifted, alphabet=range(sigma_total))
    payload = _dc_ac_code(map(stream.first_occurrence.get, range(sigma_total)), stream.gaps)
    _release(machine, charged)
    return payload


def _dc_ac_decode(payload: bytes, count: int, sigma_total: int) -> List[int]:
    dec = SymbolDecoder(payload)
    fo_model = FreqModel(2)
    gap_model = FreqModel(2)
    first = {}
    for sym in range(sigma_total):
        v = dec.get_delta(fo_model) - 1
        first[sym] = None if v == 0 else v - 1
    try:
        return _dc_reconstruct(first, count, lambda: dec.get_delta(gap_model) - 1)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def dc_ac_encode_stream(machine: Machine, sigma: int) -> bytes:
    """Distance-code a transformed stream using read-write tape passes.

    Gap emission looks forward to each symbol's next occurrence, so the
    machine realization scans the input tape backwards with one
    last-seen register per symbol, parks the per-run records on a work
    tape, and replays them in forward order; constant passes, logarithmic
    memory.  Requires a read-write machine with at least one work tape.
    """
    if machine.config.model is not ModelKind.READ_WRITE:
        raise CapabilityError("streaming distance coding needs the read-write model")
    if machine.config.work_tapes < 1:
        raise CapabilityError("streaming distance coding needs a work tape")
    n = len(machine.tapes[INPUT].records)
    sigma_total = sigma + 1
    charged = _charge(machine, sigma_total * _ceil_log2(n + 2) * 2 + 256)
    # Reverse sweep: per maximal run, the distance from its end to the
    # symbol's next occurrence (0 when it never recurs), emitted last run
    # first, plus each symbol's first occurrence as a side product.
    next_start: dict = {}
    first: dict = {sym: None for sym in range(sigma_total)}
    gaps: List[bytes] = []
    run_end = None
    run_sym = None
    pos = n
    with machine.begin_pass(INPUT, direction=REVERSE) as rp, \
            machine.begin_pass("work0", mode=WRITE) as wp:
        for rec in rp.read_all():
            pos -= 1
            sym = rec[0]
            first[sym] = pos
            if sym != run_sym:
                if run_sym is not None:
                    nxt = next_start.get(run_sym)
                    gaps.append(write_varint(0 if nxt is None else nxt - run_end))
                    next_start[run_sym] = pos + 1
                run_sym = sym
                run_end = pos
        if run_sym is not None:
            nxt = next_start.get(run_sym)
            gaps.append(write_varint(0 if nxt is None else nxt - run_end))
        wp.write_many(gaps)
    # Replay reversed run records forward and code everything.
    with machine.begin_pass("work0", direction=REVERSE) as rp:
        payload = _dc_ac_code(map(first.get, range(sigma_total)),
                              (read_varint(rec, 0)[0] for rec in rp.read_all()))
    _release(machine, charged)
    machine.write_output(payload)
    return payload


# -- whole-string pipelines -------------------------------------------------


def encode_bwt_mtf_rle_ac(s: Sequence[int], sigma: int, alphabet: Optional[bytes] = None) -> bytes:
    body = bwt(s, sigma)
    payload = _mtf_rle_ac_payload((c + 1 for c in body), sigma + 1)
    return _container(PipelineId.BWT_MTF_RLE_AC, sigma, K_AUTO, len(s), payload, alphabet)


def encode_bwt_dc_ac(s: Sequence[int], sigma: int, alphabet: Optional[bytes] = None) -> bytes:
    body = bwt(s, sigma)
    payload = _dc_ac_payload([c + 1 for c in body], sigma + 1)
    return _container(PipelineId.BWT_DC_AC, sigma, K_AUTO, len(s), payload, alphabet)


def encode_st_dc_ac(s: Sequence[int], sigma: int, k_max: int,
                    alphabet: Optional[bytes] = None) -> bytes:
    """Try every context length up to k_max and keep the shortest payload.

    Encode-only: the length-k sort has no known inverse in these models, so
    no decode procedure exists for this pipeline.
    """
    best_k, payload = _best_k(k_max, lambda k: _dc_ac_payload([c + 1 for c in st(s, k, sigma)],
                                                              sigma + 1))
    return _container(PipelineId.ST_DC_AC, sigma, best_k, len(s), payload, alphabet)


def encode_kth_order(s: Sequence[int], sigma: int, k: int,
                     alphabet: Optional[bytes] = None, machine: Optional[Machine] = None) -> bytes:
    """Order-k container; a given machine's input tape is the input, s gives its length."""
    if not 0 <= k < K_AUTO:  # 255 is the header's auto marker
        raise ValueError("k must be in 0..254")
    if machine is not None:
        if len(machine.tapes[INPUT].records) != len(s):
            raise ValueError("machine input does not match the string")
        with machine.begin_pass(INPUT) as p:
            payload = kth_order_encode([rec[0] for rec in p.read_all()], sigma, k, machine)
        machine.write_output(payload)
    else:
        payload = kth_order_encode(list(s), sigma, k)
    return _container(PipelineId.KTH_ORDER, sigma, k, len(s), payload, alphabet)


# -- block scheme ------------------------------------------------------------


@dataclass(frozen=True)
class BlockPlan:
    """Exponents for the memory/redundancy tradeoff and the block size."""

    c: float
    epsilon: float
    block_len: int

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < self.c < 1 - self.epsilon:
            raise ValueError("need 1 - epsilon > c > epsilon > 0")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")

    @classmethod
    def for_length(cls, n: int, c: float, epsilon: float) -> "BlockPlan":
        return cls(c, epsilon, block_length(n, c, epsilon))


def block_length(n: int, c: float, epsilon: float) -> int:
    return max(1, math.ceil(n ** (c - epsilon / 2)))


INITIAL_LENGTH_ESTIMATE = 16


def block_boundaries(n: int, plan: BlockPlan, known_n: bool) -> List[int]:
    """Block lengths the encoder will use, in order.

    With the total length unknown, each block is sized from the running
    estimate current at its start; the estimate starts at 16 and doubles
    whenever that many characters have been consumed.
    """
    if n == 0:
        return []
    if known_n:
        full, rest = divmod(n, plan.block_len)
        return [plan.block_len] * full + ([rest] if rest else [])
    out = []
    consumed = 0
    estimate = INITIAL_LENGTH_ESTIMATE
    while consumed < n:
        length = min(block_length(estimate, plan.c, plan.epsilon), n - consumed)
        out.append(length)
        consumed += length
        while consumed >= estimate:
            estimate *= 2
    return out


def _encode_block(block: List[int], sigma: int, machine: Optional[Machine]) -> bytes:
    length = len(block)
    charged = _charge(
        machine,
        length * max(1, _ceil_log2(max(sigma, 2)))        # the buffered block
        + 2 * (length + 1) * _ceil_log2(length + 2),      # context-sort rank arrays
    )
    body = bwt(block, sigma)
    payload = _dc_ac_payload([c + 1 for c in body], sigma + 1, machine)
    _release(machine, charged)
    return write_varint(length) + write_varint(len(payload)) + payload


def block_encode(s: Sequence[int], sigma: int, plan: BlockPlan, known_n: bool = True,
                 alphabet: Optional[bytes] = None, machine: Optional[Machine] = None) -> bytes:
    """Split into independently coded blocks; single pass over the input.

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    s = list(s)
    n = len(s)
    lengths = block_boundaries(n, plan, known_n)
    frames: List[bytes] = []

    def run(symbols: Iterator[int]) -> None:
        for length in lengths:
            block = [next(symbols) for _ in range(length)]
            frames.append(_encode_block(block, sigma, machine))

    if machine is not None:
        if len(machine.tapes[INPUT].records) != n:
            raise ValueError("machine input does not match the string")
        with machine.begin_pass(INPUT) as p:
            run(rec[0] for rec in p.read_all())
            for frame in frames:
                machine.write_output(frame)
    else:
        run(iter(s))
    return _container(PipelineId.BLOCK_KTH, sigma, K_AUTO, n, b"".join(frames), alphabet,
                      block_len=plan.block_len if known_n and n else 0)


def _decode_block_kth(header: ContainerHeader, payload: bytes) -> List[int]:
    n, sigma = header.n, header.sigma
    out: List[int] = []
    pos = 0
    while len(out) < n:
        block_n, pos = read_varint(payload, pos)
        plen, pos = read_varint(payload, pos)
        if pos + plen > len(payload):
            raise FormatError("truncated block frame")
        body = _dc_ac_decode(payload[pos:pos + plen], block_n + 1, sigma + 1)
        block = bwt_inverse([c - 1 for c in body])
        pos += plen
        if len(block) != block_n:
            raise FormatError("block length mismatch")
        out.extend(block)
    if pos != len(payload):
        raise FormatError("trailing bytes after final block")
    return out


# -- the pipeline table ---------------------------------------------------
#
# Entries reach the transforms and coders only through this module's
# globals, looked up at call time, so patching them here traces every call.


@dataclass(frozen=True)
class Pipeline:
    """One compressor: its name, streaming machine, encoder and decoder.

    ``encode(s, sigma, alphabet, k, c, epsilon, machine)`` returns the
    container.  The caller owns the machine: None runs the pipeline in
    memory; otherwise it is a machine of ``model`` with ``work_tapes`` work
    tapes over ``bytes(s)``, and the pipeline streams on it.
    ``decode(header, payload)`` returns the ranks; it is None for
    encode-only pipelines.
    """

    id: PipelineId
    name: str
    model: ModelKind
    work_tapes: int
    default_k: Callable[[int], int]  # input length -> k for ``sbc compress``; 255: none
    encode: Callable[..., bytes]
    decode: Optional[Callable[[ContainerHeader, bytes], List[int]]]

    def check_model(self, model: ModelKind) -> None:
        if model is not self.model:
            raise CapabilityError(f"{self.name} streams on the {self.model.value} model")


def _run_bwt(pipeline, encode, encode_stream, s, sigma, alphabet, k, c, epsilon, machine):
    """Encoder of a transform pipeline; its machine streams the host transform."""
    if machine is None:
        return encode(s, sigma, alphabet)
    # Host stage: the transform replaces the input on the tape, end marker 0.
    machine.tapes[INPUT].records = [bytes((x + 1,)) for x in bwt(s, sigma)]
    payload = encode_stream(machine, sigma)
    return _container(pipeline, sigma, K_AUTO, len(s), payload, alphabet)


def _run_st_dc_ac(s, sigma, alphabet, k, c, epsilon, machine):
    if machine is None:
        return encode_st_dc_ac(s, sigma, k, alphabet)
    from .stream_st import streamsort_st_best_k  # stream_st imports this module
    return streamsort_st_best_k(s, k, machine=machine, sigma=sigma, alphabet=alphabet)


def _run_block_kth(s, sigma, alphabet, k, c, epsilon, machine):
    plan = BlockPlan.for_length(len(s), c, epsilon)
    return block_encode(s, sigma, plan, alphabet=alphabet, machine=machine)


def _run_kth_order(s, sigma, alphabet, k, c, epsilon, machine):
    return encode_kth_order(s, sigma, k, alphabet, machine=machine)


def _bwt_decode(decode_body, header: ContainerHeader, payload: bytes) -> List[int]:
    return bwt_inverse([c - 1 for c in decode_body(payload, header.n + 1, header.sigma + 1)])


def _decode_kth_order(header: ContainerHeader, payload: bytes) -> List[int]:
    return kth_order_decode(payload, header.n, header.sigma, 0 if header.k == K_AUTO else header.k)


#: The pipelines by CLI name.
PIPELINES: Dict[str, Pipeline] = {p.name: p for p in (
    Pipeline(PipelineId.BWT_MTF_RLE_AC, "bwt-mtf-rle-ac", ModelKind.STANDARD, 0,
             lambda n: K_AUTO,
             functools.partial(_run_bwt, PipelineId.BWT_MTF_RLE_AC, encode_bwt_mtf_rle_ac,
                               mtf_rle_ac_encode_stream),
             functools.partial(_bwt_decode, _mtf_rle_ac_decode)),
    Pipeline(PipelineId.BWT_DC_AC, "bwt-dc-ac", ModelKind.READ_WRITE, 1, lambda n: K_AUTO,
             functools.partial(_run_bwt, PipelineId.BWT_DC_AC, encode_bwt_dc_ac,
                               dc_ac_encode_stream),
             functools.partial(_bwt_decode, _dc_ac_decode)),
    Pipeline(PipelineId.ST_DC_AC, "st-dc-ac", ModelKind.STREAM_SORT, 0,
             lambda n: min(4, max(1, n).bit_length()), _run_st_dc_ac, None),
    Pipeline(PipelineId.BLOCK_KTH, "block-kth", ModelKind.STANDARD, 0, lambda n: K_AUTO,
             _run_block_kth, _decode_block_kth),
    Pipeline(PipelineId.KTH_ORDER, "kth-order", ModelKind.STANDARD, 0, lambda n: 2,
             _run_kth_order, _decode_kth_order),
)}
PIPELINES_BY_ID = {p.id: p for p in PIPELINES.values()}


# -- decoding ----------------------------------------------------------------


def decode_container(data: bytes) -> Tuple[List[int], ContainerHeader, bytes]:
    """Decode any decodable container to (ranks, header, alphabet)."""
    header, alphabet, payload = parse_container(data)
    decode = PIPELINES_BY_ID[header.pipeline].decode
    if decode is None:
        raise FormatError(f"pipeline {header.pipeline.name} is encode-only")
    try:
        ranks = decode(header, payload)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if len(ranks) != header.n:
        raise FormatError("decoded length mismatch")
    return ranks, header, alphabet
