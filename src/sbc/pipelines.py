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
from dataclasses import dataclass, replace
from itertools import accumulate, groupby, islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coders import (
    FreqModel,
    SymbolDecoder,
    SymbolEncoder,
    _ceil_log2,
    kth_order_decode,
    kth_order_encode,
)
from .machine import INPUT, REVERSE, WRITE, Machine, ModelKind, held
from .stream_bwt import rw_bwt_onto_input
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


def ranks_of(data: bytes) -> Tuple[List[int], int, bytes]:
    """``data`` as (ranks, sigma, alphabet table): each byte's rank among the
    distinct bytes, in byte order, which the table maps back."""
    alphabet = bytes(sorted(set(data)))
    if len(alphabet) > 255:
        raise ValueError("more than 255 distinct bytes; not representable")
    ranks = data.translate(bytes.maketrans(alphabet, bytes(range(len(alphabet)))))
    return list(ranks), len(alphabet), alphabet


def _best_k(k_max: int, payload_for: Callable[[int, Optional[int]], Optional[bytes]]
            ) -> Tuple[int, bytes]:
    """The shortest payload over k = 0..k_max; the smallest k wins ties.

    ``payload_for(k, limit)`` runs from k = k_max down, ``limit`` the best
    length so far (None at k_max), and may give up with None once it must
    be longer.  Giving up skips only coding, so a machine's ledger is that
    of every k coded in full.  Going down, a tie is kept: the smallest k wins.
    """
    if not 0 <= k_max < K_AUTO:
        raise ValueError("k_max must be in 0..254")
    best_k, best = k_max, payload_for(k_max, None)
    for k in range(k_max - 1, -1, -1):
        payload = payload_for(k, len(best))
        if payload is not None and len(payload) <= len(best):
            best_k, best = k, payload
    return best_k, best


def _code_tape(code: Callable[[List[int]], bytes], machine: Optional[Machine], sigma: int,
               s: Optional[Sequence[int]] = None) -> bytes:
    """Run a stage's ``code`` on ``s``, or on a given machine's input tape,
    which must hold ``len(s)`` (any number without ``s``) ranks below
    ``sigma``; returns the payload.  One read pass sweeps the tape and
    ``code`` runs inside it, so the pass's memory peak includes what the
    coder charges, and the payload goes to the output tape."""
    if machine is None:
        return code(list(s))
    machine.require(length=None if s is None else len(s), sigma=sigma)
    with machine.begin_pass(INPUT) as p:
        payload = code([rec[0] for rec in p.read_all()])
    machine.write_output(payload)
    return payload


# -- move-to-front + run-length + adaptive payload -------------------------


def _mtf_rle_ac_payload(symbols: Iterable[int], sigma_total: int, machine=None) -> bytes:
    """One streaming pass: per-symbol list index, maximal runs, then coding.

    ``symbols`` are shifted values 0..sigma_total-1 (end marker already 0).
    """
    sym_model = FreqModel(sigma_total)
    run_model = FreqModel(2)
    with held(machine, sym_model.state_bits() + run_model.state_bits()
              + sigma_total * max(1, _ceil_log2(max(sigma_total, 2)))  # the self-organizing list
              + 128 + 64):  # coder registers and run bookkeeping
        enc = SymbolEncoder()
        indices = mtf_encode(symbols, range(sigma_total))
        for i, run in groupby(indices):
            enc.put(sym_model, i)
            enc.put_delta(run_model, len(list(run)))
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
    """One read pass over an already-transformed stream on the input tape,
    on a machine of any model: the last pass of the read-write pipeline.

    Tape records are single shifted symbols (end marker 0, rank r at r+1).
    The payload is written to the output tape and returned.
    """
    return _code_tape(lambda symbols: _mtf_rle_ac_payload(symbols, sigma + 1, machine), machine,
                      sigma + 1)


# -- distance coding + adaptive payload ------------------------------------


_GAP_CHUNK = 1024  # gaps coded between two looks at _dc_ac_code's limit


def _dc_ac_code(first: Iterable[Optional[int]], gaps: Iterable[int],
                limit: Optional[int] = None) -> Optional[bytes]:
    """First-occurrence table then per-run gaps, all delta-coded adaptively.

    Gaps are coded ``_GAP_CHUNK`` at a time, which changes no bit.  With a
    ``limit``, None comes back after the first chunk that leaves the
    payload sure to be longer than ``limit`` bytes (``min_length``).
    """
    enc = SymbolEncoder()
    enc.put_deltas(FreqModel(2), (1 if pos is None else pos + 2 for pos in first))
    gap_model = FreqModel(2)
    gaps = iter(gaps)
    for chunk in iter(lambda: [gap + 1 for gap in islice(gaps, _GAP_CHUNK)], []):
        enc.put_deltas(gap_model, chunk)
        if limit is not None and enc.min_length() > limit:
            return None
    return enc.finish()


def _dc_ac_payload(body_shifted: Sequence[int], sigma_total: int, machine=None,
                   limit: Optional[int] = None) -> Optional[bytes]:
    n = len(body_shifted)
    with held(machine, 2 * FreqModel(2).state_bits()  # the two models of _dc_ac_code
              + sigma_total * _ceil_log2(n + 2)  # last-occurrence register per symbol
              + 2 * _ceil_log2(n + 2) + 128):
        return _dc_ac_code(*dc_encode(body_shifted, sigma_total), limit)


def _dc_ac_decode(payload: bytes, count: int, sigma_total: int) -> List[int]:
    dec = SymbolDecoder(payload)
    fo_model = FreqModel(2)
    gap_model = FreqModel(2)
    deltas = (dec.get_delta(fo_model) for _ in range(sigma_total))
    first = [None if d == 1 else d - 2 for d in deltas]
    return _dc_reconstruct(first, count, lambda: dec.get_delta(gap_model) - 1)


def dc_ac_encode_stream(machine: Machine, sigma: int) -> bytes:
    """Distance-code a transformed stream using read-write tape passes.

    Gap emission looks forward to each symbol's next occurrence, so the
    machine realization sweeps the input tape backwards, runs
    :func:`dc_encode` on the swept symbols, parks the per-run gaps on a
    work tape last run first, and replays them forward into the coder;
    constant passes, logarithmic memory.  Requires a read-write machine
    with at least one work tape.
    """
    sigma_total = sigma + 1
    machine.require(ModelKind.READ_WRITE, work_tapes=1, sigma=sigma_total)
    n = len(machine.tapes[INPUT].records)
    with held(machine, sigma_total * _ceil_log2(n + 2) * 2 + 256):
        with machine.begin_pass(INPUT, direction=REVERSE) as rp, \
                machine.begin_pass("work0", mode=WRITE) as wp:
            first, gaps = dc_encode([rec[0] for rec in reversed(rp.read_all())], sigma_total)
            wp.write_many([write_varint(g) for g in reversed(gaps)])
        # Replay the gaps forward and code everything.
        with machine.begin_pass("work0", direction=REVERSE) as rp:
            payload = _dc_ac_code(first, (read_varint(rec, 0)[0] for rec in rp.read_all()))
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

    From k_max down, each k is coded only until it must lose to the best
    so far (:func:`_best_k`); the container is the one a full search picks.

    Encode-only: the length-k sort has an inverse (Schindler, DCC 1997;
    Nong & Zhang, IEEE Trans. Computers 56(11), 2007), but sbc has no
    decoder for it yet.
    """
    best_k, payload = _best_k(k_max, lambda k, limit: _dc_ac_payload(
        [c + 1 for c in st(s, k, sigma)], sigma + 1, limit=limit))
    return _container(PipelineId.ST_DC_AC, sigma, best_k, len(s), payload, alphabet)


def encode_kth_order(s: Sequence[int], sigma: int, k: int,
                     alphabet: Optional[bytes] = None, machine: Optional[Machine] = None) -> bytes:
    """Order-k container; a given machine's input tape is the input, s gives its length."""
    if not 0 <= k < K_AUTO:  # 255 is the header's auto marker
        raise ValueError("k must be in 0..254")
    payload = _code_tape(lambda symbols: kth_order_encode(symbols, sigma, k, machine), machine,
                         sigma, s)
    return _container(PipelineId.KTH_ORDER, sigma, k, len(s), payload, alphabet)


# -- block scheme ------------------------------------------------------------


@dataclass(frozen=True)
class BlockPlan:
    """Exponents for the memory/redundancy tradeoff and the block size."""

    c: float
    epsilon: float
    block_len: int

    def __post_init__(self) -> None:
        check_exponents(self.c, self.epsilon)
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")

    @classmethod
    def for_length(cls, n: int, c: float, epsilon: float) -> "BlockPlan":
        plan = cls(c, epsilon, 1)  # checks the exponents before block_length runs
        return replace(plan, block_len=block_length(n, c, epsilon))


def check_exponents(c: float, epsilon: float) -> None:
    """Raise ``ValueError`` unless 0 < epsilon < c < 1 - epsilon (so neither is NaN)."""
    if not 0 < epsilon < c < 1 - epsilon:
        raise ValueError("need 1 - epsilon > c > epsilon > 0")


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
    with held(machine, length * max(1, _ceil_log2(max(sigma, 2)))     # the buffered block
              + 2 * (length + 1) * _ceil_log2(length + 2)):        # context-sort rank arrays
        body = bwt(block, sigma)
        payload = _dc_ac_payload([c + 1 for c in body], sigma + 1, machine)
    return write_varint(length) + write_varint(len(payload)) + payload


def block_encode(s: Sequence[int], sigma: int, plan: BlockPlan, known_n: bool = True,
                 alphabet: Optional[bytes] = None, machine: Optional[Machine] = None) -> bytes:
    """Split into independently coded blocks; single pass over the input.

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    n = len(s)
    bounds = list(accumulate(block_boundaries(n, plan, known_n), initial=0))
    payload = _code_tape(lambda symbols: b"".join(
        _encode_block(symbols[start:end], sigma, machine)
        for start, end in zip(bounds, bounds[1:])), machine, sigma, s)
    return _container(PipelineId.BLOCK_KTH, sigma, K_AUTO, n, payload, alphabet,
                      block_len=plan.block_len if known_n and n else 0)


def _bwt_decode(decode_body, payload: bytes, n: int, sigma: int) -> List[int]:
    """Invert a transform payload of n characters over sigma ranks."""
    return bwt_inverse([c - 1 for c in decode_body(payload, n + 1, sigma + 1)])


def _decode_block_kth(header: ContainerHeader, payload: bytes) -> List[int]:
    n, sigma = header.n, header.sigma
    out: List[int] = []
    pos = 0
    while len(out) < n:
        block_n, pos = read_varint(payload, pos)
        plen, pos = read_varint(payload, pos)
        if pos + plen > len(payload):
            raise FormatError("truncated block frame")
        block = _bwt_decode(_dc_ac_decode, payload[pos:pos + plen], block_n, sigma)
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
    """One compressor: its name, home model, encoder and decoder.

    ``encode(s, sigma, alphabet, k, c, epsilon, machine)`` returns the
    container.  The caller owns the machine: None runs the pipeline in
    memory; otherwise it streams on a machine over ``bytes(s)`` (with
    ``stream_bwt.RW_WORK_TAPES`` work tapes if read-write), if its stages
    accept it.  ``model`` is the home model that ``bench`` and the pins use.
    ``decode(header, payload)`` returns the ranks; it is None for
    encode-only pipelines.  ``host_stages`` names the work the encoder does
    on the host, outside the machine's ledger, when it streams on a machine.
    """

    id: PipelineId
    name: str
    model: ModelKind
    default_k: Callable[[int], int]  # input length -> k for ``sbc compress``; 255: none
    encode: Callable[..., bytes]
    decode: Optional[Callable[[ContainerHeader, bytes], List[int]]]
    host_stages: Tuple[str, ...] = ()


def _run_bwt(pipeline, encode, encode_stream, s, sigma, alphabet, k, c, epsilon, machine):
    """Encoder of a transform pipeline; on a machine, the transform replaces
    the input on the input tape and ``encode_stream`` codes it there."""
    if machine is None:
        return encode(s, sigma, alphabet)
    rw_bwt_onto_input(s, machine)
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


def _decode_kth_order(header: ContainerHeader, payload: bytes) -> List[int]:
    if header.k == K_AUTO:  # encode_kth_order never writes the auto marker
        raise FormatError("kth-order container without a context length")
    return kth_order_decode(payload, header.n, header.sigma, header.k)


#: The pipelines by CLI name.
PIPELINES: Dict[str, Pipeline] = {p.name: p for p in (
    Pipeline(PipelineId.BWT_MTF_RLE_AC, "bwt-mtf-rle-ac", ModelKind.READ_WRITE, lambda n: K_AUTO,
             functools.partial(_run_bwt, PipelineId.BWT_MTF_RLE_AC, encode_bwt_mtf_rle_ac,
                               mtf_rle_ac_encode_stream),
             lambda h, payload: _bwt_decode(_mtf_rle_ac_decode, payload, h.n, h.sigma)),
    Pipeline(PipelineId.BWT_DC_AC, "bwt-dc-ac", ModelKind.READ_WRITE, lambda n: K_AUTO,
             functools.partial(_run_bwt, PipelineId.BWT_DC_AC, encode_bwt_dc_ac,
                               dc_ac_encode_stream),
             lambda h, payload: _bwt_decode(_dc_ac_decode, payload, h.n, h.sigma)),
    Pipeline(PipelineId.ST_DC_AC, "st-dc-ac", ModelKind.STREAM_SORT,
             lambda n: min(4, max(1, n).bit_length()), _run_st_dc_ac, None, ("input-reload",)),
    Pipeline(PipelineId.BLOCK_KTH, "block-kth", ModelKind.STANDARD, lambda n: K_AUTO,
             _run_block_kth, _decode_block_kth),
    Pipeline(PipelineId.KTH_ORDER, "kth-order", ModelKind.STANDARD, lambda n: 2,
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
