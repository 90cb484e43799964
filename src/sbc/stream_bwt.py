"""Prefix-doubling transform computation on read-write tape machines.

Both directions run one doubling round, :func:`_round` (copy the current
tape twice, sort one copy by the right component and the other by the
left, ties by identifier, and join them row by row), inside one working
scope, :func:`_working`; they differ in the join and in what follows it.

The forward direction tags every character of s+sentinel with its position
and forms triples (tagged char, 1, tagged successor).  Each round's join
zips the two copies into quintuples, which are sorted by (fourth, third
character ignoring identifiers, second), with remaining ties broken by the
left identifier, then renumbered in their middle triples with 1, 2, ...
increasing whenever the middle differs from its predecessor.  The rank a
middle number carries doubles its reach each round, so after at most
ceil(log2(n+1)) rounds the numbers are 1..n+1 and the right components, in
tape order, are the transform.

Inversion seeds triples from the stable sort of the transform (which pairs
every character with its predecessor), marks all positions unknown except
the sentinel's, and propagates known positions through the round with a
join that resolves them: an unknown left position lies ``offset`` places
before a known middle position, and ``offset`` doubles every round.  When
every position is known, sorting by position and projecting the left
characters recovers the string.

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
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from .machine import (
    INPUT,
    WRITE,
    CapabilityError,
    Machine,
    MachineConfig,
    ModelKind,
    held,
    tape_merge_sort,
)
from .transforms import SENTINEL, cyclic_context_order

_TRIPLE = struct.Struct(">BIIBI")  # left char, left id, mid, right char, right id
_UNKNOWN = 0  # position marker; real positions are 1..n+1

# Fixed working-register charge: a handful of records plus counters.  The
# 32-bit identifier fields realize the logarithmic-width bookkeeping.
_WORK_BITS = 8 * (_TRIPLE.size * 8) + 8 * (23 * 8) + 128


def default_rw_machine(input_data: bytes = b"") -> Machine:
    budget_bits = 8192 + 64 * max(1, len(input_data)).bit_length()
    cfg = MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=budget_bits, work_tapes=4)
    return Machine(cfg, input_data)


@contextmanager
def _working(machine: Optional[Machine], symbols: List[int], shift: int,
             what: str) -> Iterator[Machine]:
    """The checked read-write machine of one run, holding the working charge.

    Builds the default machine over ``symbols`` shifted by ``shift`` only
    when none is given; a given machine is checked against ``len(symbols)``
    alone.  The charge is released however the run ends.
    """
    if machine is None:
        machine = default_rw_machine(bytes(c + shift for c in symbols))
    if machine.config.model is not ModelKind.READ_WRITE:
        raise CapabilityError("prefix doubling needs the read-write model")
    if machine.config.work_tapes < 4:
        raise CapabilityError("prefix doubling needs four work tapes")
    if len(machine.tapes[INPUT].records) != len(symbols):
        raise ValueError(f"machine input does not match the {what}")
    with held(machine, _WORK_BITS):
        yield machine


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


def _round(machine: Machine, cur: str, copy1: str, copy2: str, scratch: str,
           join: Callable[[List[bytes], List[bytes]], List[bytes]]) -> None:
    """One doubling round: ``cur`` becomes ``join(by_right, by_left)``.

    One pass copies ``cur`` onto ``copy1`` and ``copy2``; the copies are
    sorted by right and by left component over ``cur`` and ``scratch``; one
    pass reads both and writes the join to ``cur``.  Every tagged character
    occurs exactly once as a right and once as a left, so the two sorted
    copies align row by row.
    """
    with machine.begin_pass(cur) as rp, \
            machine.begin_pass(copy1, mode=WRITE) as w1, \
            machine.begin_pass(copy2, mode=WRITE) as w2:
        records = rp.read_all()
        w1.write_many(records)
        w2.write_many(records)
    tape_merge_sort(machine, copy1, _right_key, cur, scratch)
    tape_merge_sort(machine, copy2, _left_key, cur, scratch)
    with machine.begin_pass(copy1) as r1, \
            machine.begin_pass(copy2) as r2, \
            machine.begin_pass(cur, mode=WRITE) as out:
        out.write_many(join(r1.read_all(), r2.read_all()))


def _quintuples(by_right: List[bytes], by_left: List[bytes]) -> List[bytes]:
    return [a[:9] + b for a, b in zip(by_right, by_left)]


def _encode(s: Sequence[int], machine: Optional[Machine],
            on_round: Optional[Callable[[List[tuple]], None]], field: slice) -> List[bytes]:
    """Run the forward doubling rounds, then write ``rec[field]`` of every
    resolved record to the output tape in one pass; returns those fields."""
    s = list(s)
    m = len(s) + 1
    with _working(machine, s, 0, "string") as machine:
        pack = _TRIPLE.pack
        with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
            recs = src.read_all()
            chars = [rec[0] + 1 for rec in recs] + [0]  # shifted; sentinel is 0
            dst.write_many(
                [pack(chars[i], i + 1, 1, chars[(i + 1) % m], (i + 1) % m + 1) for i in range(m)]
            )

        cur, spare1, spare2, spare3 = "work0", "work1", "work2", "work3"
        rank = 1  # every middle starts at 1; resolved when the ranks reach m
        rounds = 0
        max_rounds = max(1, (m - 1).bit_length()) + 1
        while rank < m:
            rounds += 1
            if rounds > max_rounds:  # pragma: no cover - the doubling argument forbids it
                raise AssertionError("doubling failed to resolve in the round bound")
            _round(machine, cur, spare1, spare2, spare3, _quintuples)
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
            cur, spare1 = spare1, cur
            if on_round is not None:
                on_round(_decode_triples(machine.tapes[cur].records))

        with machine.begin_pass(cur) as rp:
            fields = [rec[field] for rec in rp.read_all()]
            for f in fields:
                machine.write_output(f)
    return fields


def rw_bwt_encode(s: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Compute the backward-context transform of s+sentinel on tape.

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    return [f[0] - 1 for f in _encode(s, machine, on_round, slice(9, 10))]


def rw_suffix_array(s: Sequence[int], machine: Optional[Machine] = None) -> List[int]:
    """Positions of s+sentinel sorted by backward context (0-indexed).

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    return [int.from_bytes(f, "big") - 1 for f in _encode(s, machine, None, slice(10, 14))]


def rw_bwt_invert(t: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Recover s from its transform on a read-write machine.

    A given machine's input tape (ranks plus one, the sentinel as 0) is the
    input; ``t`` gives only its length and its one-sentinel check.
    """
    t = list(t)
    if t.count(SENTINEL) != 1:
        raise ValueError("expected exactly one sentinel")
    m = len(t)
    with _working(machine, t, 1, "transform") as machine:
        # Stable sort of the transform, tags riding along.
        with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
            recs = src.read_all()
            dst.write_many([recs[j] + (j + 1).to_bytes(4, "big") for j in range(m)])
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

        offset = 1  # tape-mates are this many string positions apart
        unknown = m - 1  # every position but the seeded one

        def resolve(by_right: List[bytes], by_left: List[bytes]) -> List[bytes]:
            nonlocal unknown
            unknown = 0
            triples = []
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
                triples.append(a[0:5] + x + b[9:14])
            return triples

        cur, spare1, spare2, spare3 = "work1", "work0", "work2", "work3"
        rounds = 0
        max_rounds = max(1, (m - 1).bit_length()) + 2
        while unknown:
            rounds += 1
            if rounds > max_rounds:
                raise ValueError("not a valid transform image: positions never resolve")
            _round(machine, cur, spare1, spare2, spare3, resolve)
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
                    raise ValueError("not a valid transform image: positions are not a permutation")
                expected += 1
                if rec[0] != 0:
                    machine.write_output(rec[0:1])
                    out.append(rec[0] - 1)
        if len(out) != m - 1:
            raise ValueError("not a valid transform image")
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
