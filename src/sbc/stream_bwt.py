"""Prefix-doubling transform computation on read-write tape machines.

The forward direction tags every character of s+sentinel with its position
and forms triples (tagged char, 1, tagged successor).  Each round copies
the triples, sorts one copy by the right component and the other by the
left (ties by identifier), zips them into quintuples, sorts those by
(fourth, third character ignoring identifiers, second), with remaining
ties broken by the left identifier, then renumbers the middle triples with
1, 2, ... increasing whenever the middle differs from its predecessor.
The rank a middle number carries doubles its reach each round, so after at
most ceil(log2(n+1)) rounds the numbers are 1..n+1 and the right
components, in tape order, are the transform.

Inversion seeds triples from the stable sort of the transform (which pairs
every character with its predecessor), marks all positions unknown except
the sentinel's, and propagates known positions through the same
copy/sort/zip machinery: an unknown left position is one less than a known
right position.  When every position is known, sorting by position and
projecting the left characters recovers the string.

All tape sorting is :func:`sbc.machine.tape_merge_sort`, whose ledger
charges exactly the six sweeps per level of the bottom-up two-way merge
sort, so every round costs O(log n) head sweeps and the whole run
O(log^2 n).  The host computes the sorted tapes with one stable sort; the
record-by-record merge is the test oracle.  Tape contents in the middle of
a sort are not part of the contract; the passes, trace lines and tapes
after it are.
Records are fixed-width byte strings (32-bit identifiers realize the
O(log n) fields), so byte-wise comparison equals field-wise comparison.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence

from .machine import (
    INPUT,
    WRITE,
    CapabilityError,
    Machine,
    MachineConfig,
    ModelKind,
    tape_merge_sort,
)
from .transforms import SENTINEL, cyclic_context_order

_TRIPLE = struct.Struct(">BIIBI")  # left char, left id, mid, right char, right id
_UNKNOWN = 0  # position marker; real positions are 1..n+1

# Fixed working-register charge: a handful of records plus counters.  The
# 32-bit identifier fields realize the logarithmic-width bookkeeping.
_WORK_BITS = 8 * (_TRIPLE.size * 8) + 8 * (23 * 8) + 128


def _require_rw(machine: Machine) -> None:
    if machine.config.model is not ModelKind.READ_WRITE:
        raise CapabilityError("prefix doubling needs the read-write model")
    if machine.config.work_tapes < 4:
        raise CapabilityError("prefix doubling needs four work tapes")


def default_rw_machine(input_data: bytes = b"", budget_bits: Optional[int] = None) -> Machine:
    if budget_bits is None:
        budget_bits = 8192 + 64 * max(1, len(input_data)).bit_length()
    cfg = MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=budget_bits, work_tapes=4)
    return Machine(cfg, input_data)


def _decode_triples(records: Sequence[bytes]) -> List[tuple]:
    """Tape records as (left char, left id, mid, right char, right id) tuples.

    Characters are ranks with -1 for the sentinel; an unknown mid is None.
    """
    out = []
    for rec in records:
        lc, lid, mid, rc, rid = _TRIPLE.unpack(rec)
        out.append((lc - 1, lid, mid if mid != _UNKNOWN else None, rc - 1, rid))
    return out


def _right_key(rec: bytes) -> bytes:
    return rec[9:14]


def _left_key(rec: bytes) -> bytes:
    return rec[0:5]


def _mid_key(rec: bytes) -> bytes:
    return rec[5:9]


def _quint_key(rec: bytes):
    # fourth, third ignoring identifiers, second; final ties by left id.
    return rec[14:18], rec[9:10], rec[5:9], rec[1:5]


def _encode_rounds(s: Sequence[int], machine: Optional[Machine],
                   on_round: Optional[Callable[[List[tuple]], None]] = None) -> tuple:
    """Run the forward doubling rounds; returns (machine, tape holding triples)."""
    s = list(s)
    n = len(s)
    m = n + 1
    if machine is None:
        machine = default_rw_machine(bytes(s))
    _require_rw(machine)
    if len(machine.tapes[INPUT].records) != n:
        raise ValueError("machine input does not match the string")
    machine.charge_memory(_WORK_BITS)

    pack = _TRIPLE.pack
    with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
        recs = src.read_all()
        chars = [rec[0] + 1 for rec in recs] + [0]  # shifted; sentinel is 0
        dst.write_many(
            [pack(chars[i], i + 1, 1, chars[(i + 1) % m], (i + 1) % m + 1) for i in range(m)]
        )

    cur, spare1, spare2, spare3 = "work0", "work1", "work2", "work3"
    resolved = m == 1
    rounds = 0
    max_rounds = max(1, (m - 1).bit_length()) + 1
    while not resolved:
        rounds += 1
        if rounds > max_rounds:  # pragma: no cover - the doubling argument forbids it
            raise AssertionError("doubling failed to resolve in the round bound")
        with machine.begin_pass(cur) as rp, \
                machine.begin_pass(spare1, mode=WRITE) as w1, \
                machine.begin_pass(spare2, mode=WRITE) as w2:
            triples = rp.read_all()
            w1.write_many(triples)
            w2.write_many(triples)
        tape_merge_sort(machine, spare1, _right_key, cur, spare3)
        tape_merge_sort(machine, spare2, _left_key, cur, spare3)
        with machine.begin_pass(spare1) as r1, \
                machine.begin_pass(spare2) as r2, \
                machine.begin_pass(cur, mode=WRITE) as out:
            by_right = r1.read_all()
            by_left = r2.read_all()
            # Every tagged character occurs exactly once as a right and once
            # as a left, so the two sorted copies align row by row.
            out.write_many([a[:9] + b for a, b in zip(by_right, by_left)])
        tape_merge_sort(machine, cur, _quint_key, spare1, spare3)
        with machine.begin_pass(cur) as rp, machine.begin_pass(spare1, mode=WRITE) as out:
            rank = 0
            prev = None
            new_triples = []
            for q in rp.read_all():
                middle = q[5:18]  # second, third (with id), fourth
                signature = (middle[0:4], middle[4:5], middle[9:13])
                if signature != prev:
                    rank += 1
                    prev = signature
                new_triples.append(q[0:5] + rank.to_bytes(4, "big") + q[18:23])
            out.write_many(new_triples)
        resolved = rank == m
        cur, spare1 = spare1, cur
        if on_round is not None:
            on_round(_decode_triples(machine.tapes[cur].records))
    machine.release_memory(_WORK_BITS)
    return machine, cur


def rw_bwt_encode(s: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Compute the backward-context transform of s+sentinel on tape."""
    machine, tape = _encode_rounds(s, machine, on_round)
    out = []
    with machine.begin_pass(tape) as rp:
        for rec in rp.read_all():
            machine.write_output(rec[9:10])
            out.append(rec[9] - 1)
    return out


def rw_suffix_array(s: Sequence[int], machine: Optional[Machine] = None) -> List[int]:
    """Positions of s+sentinel sorted by backward context (0-indexed)."""
    machine, tape = _encode_rounds(s, machine, None)
    out = []
    with machine.begin_pass(tape) as rp:
        for rec in rp.read_all():
            rid = int.from_bytes(rec[10:14], "big")
            machine.write_output(rec[10:14])
            out.append(rid - 1)
    return out


def rw_bwt_invert(t: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Recover s from its transform on a read-write machine."""
    t = list(t)
    if t.count(SENTINEL) != 1:
        raise ValueError("expected exactly one sentinel")
    m = len(t)
    n = m - 1
    if machine is None:
        machine = default_rw_machine(bytes(c + 1 for c in t))
    _require_rw(machine)
    if len(machine.tapes[INPUT].records) != m:
        raise ValueError("machine input does not match the transform")
    machine.charge_memory(_WORK_BITS)

    pack = _TRIPLE.pack
    # Stable sort of the transform, tags riding along.
    with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
        recs = src.read_all()
        dst.write_many(
            [recs[j] + (j + 1).to_bytes(4, "big") for j in range(m)]
        )
    tape_merge_sort(machine, "work0", lambda r: r[0:1], "work1", "work2")
    with machine.begin_pass("work0") as su, machine.begin_pass(INPUT) as si, \
            machine.begin_pass("work1", mode=WRITE) as out:
        ordered = su.read_all()
        originals = si.read_all()
        triples = []
        for j in range(m):
            u = ordered[j]
            mid = m if u[0] == 0 else _UNKNOWN  # the sentinel's predecessor row seeds position n+1
            triples.append(u[0:5] + mid.to_bytes(4, "big") + originals[j] + (j + 1).to_bytes(4, "big"))
        out.write_many(triples)

    cur, spare1, spare2, spare3 = "work1", "work0", "work2", "work3"
    resolved = m == 1
    rounds = 0
    offset = 1  # tape-mates are this many string positions apart
    max_rounds = max(1, (m - 1).bit_length()) + 2
    while not resolved:
        rounds += 1
        if rounds > max_rounds:
            machine.release_memory(_WORK_BITS)
            raise ValueError("not a valid transform image: positions never resolve")
        with machine.begin_pass(cur) as rp, \
                machine.begin_pass(spare1, mode=WRITE) as w1, \
                machine.begin_pass(spare2, mode=WRITE) as w2:
            triples = rp.read_all()
            w1.write_many(triples)
            w2.write_many(triples)
        tape_merge_sort(machine, spare1, _right_key, cur, spare3)
        tape_merge_sort(machine, spare2, _left_key, cur, spare3)
        with machine.begin_pass(spare1) as r1, \
                machine.begin_pass(spare2) as r2, \
                machine.begin_pass(cur, mode=WRITE) as out:
            by_right = r1.read_all()
            by_left = r2.read_all()
            unknown = 0
            new_triples = []
            for a, b in zip(by_right, by_left):
                x = a[5:9]
                if x == b"\x00\x00\x00\x00":
                    # An unknown left position sits `offset` places before
                    # the shared middle; a known middle position resolves it.
                    y = int.from_bytes(b[5:9], "big")
                    if y != _UNKNOWN and y - offset >= 1:
                        x = (y - offset).to_bytes(4, "big")
                    else:
                        unknown += 1
                new_triples.append(a[0:5] + x + b[9:14])
            out.write_many(new_triples)
        resolved = unknown == 0
        offset <<= 1
        if on_round is not None:
            on_round(_decode_triples(machine.tapes[cur].records))

    tape_merge_sort(machine, cur, _mid_key, spare1, spare3)
    out: List[int] = []
    with machine.begin_pass(cur) as rp:
        expected = 1
        for rec in rp.read_all():
            mid = int.from_bytes(rec[5:9], "big")
            if mid != expected:
                machine.release_memory(_WORK_BITS)
                raise ValueError("not a valid transform image: positions are not a permutation")
            expected += 1
            if rec[0] != 0:
                machine.write_output(rec[0:1])
                out.append(rec[0] - 1)
    if len(out) != n:
        machine.release_memory(_WORK_BITS)
        raise ValueError("not a valid transform image")
    machine.release_memory(_WORK_BITS)
    return out


# -- sorting reductions -------------------------------------------------------


def sort_chars_via_bwt(s: Sequence[int]) -> List[int]:
    """Sort a string's characters by transforming its successor-pair string.

    Builds (s_1, s_0)(s_2, s_1)...(s_0, s_n) over the pair alphabet with the
    end marker as s_0, applies the backward-context sort, and reads the
    second components after the first row; those come out in nondecreasing
    order because the pairs sort by their predecessors' first components.
    """
    s = list(s)
    n = len(s)
    if n == 0:
        return []
    ext = [SENTINEL] + s
    m = n + 1
    pairs = [(ext[(j + 1) % m], ext[j]) for j in range(m)]
    order = cyclic_context_order(pairs, backward=True)
    out = [pairs[p][1] for p in order]
    if out[0] != SENTINEL:  # pragma: no cover - the marker pair sorts first
        raise AssertionError("marker pair did not sort first")
    return out[1:]


def sort_numbers_via_bwt(xs: Sequence[int]) -> List[int]:
    """Sort fixed-width numbers by transforming a bit-replacement string.

    Every bit j of every number x_i becomes the phrase
    ``x_i[j] 2 bits(x_i) bits(i) bits(j)`` over the alphabet {0, 1, 2};
    contexts are read forward here, starting at each character's successor.
    Only the leading bit of a phrase is followed by a 2, so those bits sort
    to the tail of the transform, ordered by (x_i, i, j); the final
    2*n*log2(n) characters are therefore the inputs' bits in sorted order.
    """
    xs = list(xs)
    n = len(xs)
    if n < 2 or n & (n - 1):
        raise ValueError("need a power-of-two count of numbers, at least 2")
    logn = n.bit_length() - 1
    width_x = 2 * logn
    width_i = logn
    width_j = max(1, (width_x - 1).bit_length())
    for x in xs:
        if not 0 <= x < (1 << width_x):
            raise ValueError(f"{x} does not fit in {width_x} bits")

    def bits(value: int, width: int) -> List[int]:
        return [(value >> (width - 1 - b)) & 1 for b in range(width)]

    g: List[int] = []
    for i, x in enumerate(xs):
        xbits = bits(x, width_x)
        ibits = bits(i, width_i)
        for j in range(width_x):
            g.append(xbits[j])
            g.append(2)
            g.extend(xbits)
            g.extend(ibits)
            g.extend(bits(j, width_j))

    order = cyclic_context_order(g, backward=False)
    tail_len = n * width_x
    tail = [g[p] for p in order[len(order) - tail_len:]]
    out = []
    for t in range(n):
        value = 0
        for b in tail[t * width_x:(t + 1) * width_x]:
            value = (value << 1) | b
        out.append(value)
    return out
