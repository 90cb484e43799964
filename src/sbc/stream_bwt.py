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
O(log^2 n).  The host computes the sorted tapes with stable ``sorted``
calls; the record-by-record merge is the test oracle.  Tape contents in
the middle of a sort are not part of the contract; the passes, trace lines
and tapes after it are.

Records are fixed-width byte strings (32-bit identifiers realize the
O(log n) fields), so byte-wise comparison equals field-wise comparison.
The host does each round's per-record work with C-level builtins: sort
keys are ``operator.itemgetter`` slices, joins and new triples are
``map``s over ``add`` and one ``struct`` packing, renumbering takes its
ranks from ``accumulate`` over signature changes, and resolving unpacks
each mid column with one ``struct.unpack``.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter, ne
from typing import Callable, Iterator, List, Optional, Sequence

from .machine import (
    INPUT,
    WRITE,
    Machine,
    MachineConfig,
    ModelKind,
    held,
    tape_merge_sort,
)
from .transforms import SENTINEL, _validate_ranks, cyclic_context_order

_TRIPLE = struct.Struct(">BIIBI")  # left char, left id, mid, right char, right id
_RELINK = struct.Struct(">5sI5s")  # the same triple: tagged left, mid, tagged right
_ID = struct.Struct(">I")
_UNKNOWN = 0  # position marker; real positions are 1..n+1

# Fixed working-register charge: a handful of records plus counters.  The
# 32-bit identifier fields realize the logarithmic-width bookkeeping.
_WORK_BITS = 8 * (_TRIPLE.size * 8) + 8 * (23 * 8) + 128


def default_rw_machine(input_data: bytes = b"") -> Machine:
    budget_bits = 8192 + 64 * max(1, len(input_data)).bit_length()
    cfg = MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=budget_bits, work_tapes=4)
    return Machine(cfg, input_data)


@contextmanager
def _working(machine: Optional[Machine], symbols: Sequence[int], shift: int,
             check: Callable[[bytes], None]) -> Iterator[Machine]:
    """The checked read-write machine of one run, holding the working charge.

    Builds the default machine over ``symbols`` shifted by ``shift`` only
    when none is given; a given machine is checked against ``len(symbols)``
    alone.  ``check`` then reads the input tape's symbols as bytes, before
    any pass or charge.  The charge is released however the run ends.
    """
    if machine is None:
        machine = default_rw_machine(bytes(c + shift for c in symbols))
    machine.require(ModelKind.READ_WRITE, work_tapes=4, length=len(symbols))
    check(bytes(map(itemgetter(0), machine.tapes[INPUT].records)))
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


# Fields of a triple record.
_left_key = itemgetter(slice(0, 5))
_mid_key = itemgetter(slice(5, 9))
_right_key = itemgetter(slice(9, 14))
_char_key = itemgetter(slice(0, 1))
_left_and_mid = itemgetter(slice(0, 9))

# Fields of a quintuple record, a triple's left and mid followed by a whole
# triple.  Sort by fourth, third ignoring identifiers, second; final ties by
# left id.  Equal signatures (second, third ignoring identifiers, fourth)
# share a rank.
_quint_key = itemgetter(slice(14, 18), slice(9, 10), slice(5, 9), slice(1, 5))
_quint_signature = itemgetter(slice(5, 10), slice(14, 18))
_quint_right = itemgetter(slice(18, 23))


def _mids(records: List[bytes]) -> tuple:
    """The mid field of every triple record, as integers."""
    return struct.unpack(f">{len(records)}I", b"".join(map(_mid_key, records)))


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
    return list(map(add, map(_left_and_mid, by_right), by_left))


def _encode(s: Sequence[int], machine: Optional[Machine],
            on_round: Optional[Callable[[List[tuple]], None]], field: slice) -> List[bytes]:
    """Run the forward doubling rounds, then write ``rec[field]`` of every
    resolved record to the output tape in one pass; returns those fields."""
    m = len(s) + 1
    with _working(machine, s, 0, lambda tape: _validate_ranks(tape, None)) as machine:
        with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
            chars = [rec[0] + 1 for rec in src.read_all()] + [0]  # shifted; sentinel is 0
            # Position i is tagged i + 1; its successor is position (i + 1) mod m.
            dst.write_many(list(map(_TRIPLE.pack, chars, range(1, m + 1), repeat(1),
                                    chars[1:] + chars[:1], chain(range(2, m + 1), (1,)))))

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
                quints = rp.read_all()
                sigs = list(map(_quint_signature, quints))
                # The rank rises by one wherever the signature differs from its predecessor.
                ranks = list(accumulate(map(ne, sigs, chain((None,), sigs))))
                rank = ranks[-1]
                out.write_many(list(map(_RELINK.pack, map(_left_key, quints), ranks,
                                        map(_quint_right, quints))))
            cur, spare1 = spare1, cur
            if on_round is not None:
                on_round(_decode_triples(machine.tapes[cur].records))

        with machine.begin_pass(cur) as rp:
            fields = list(map(itemgetter(field), rp.read_all()))
            machine.write_output(*fields)
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
    input, and must hold exactly one sentinel; ``t`` gives only its length.
    """
    def one_sentinel(tape: bytes) -> None:
        if tape.count(0) != 1:
            raise ValueError("expected exactly one sentinel")

    m = len(t)
    with _working(machine, t, 1, one_sentinel) as machine:
        # Stable sort of the transform, tags riding along.
        ids = range(1, m + 1)
        with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
            dst.write_many(list(map(add, src.read_all(), map(_ID.pack, ids))))
        tape_merge_sort(machine, "work0", _char_key, "work1", "work2")
        with machine.begin_pass("work0") as su, machine.begin_pass(INPUT) as si, \
                machine.begin_pass("work1", mode=WRITE) as out:
            ordered = su.read_all()
            # The sentinel's predecessor row seeds position n+1.
            mids = [m if u[0] == 0 else _UNKNOWN for u in ordered]
            tagged = map(add, si.read_all(), map(_ID.pack, ids))
            out.write_many(list(map(_RELINK.pack, map(_left_key, ordered), mids, tagged)))

        offset = 1  # tape-mates are this many string positions apart
        unknown = m - 1  # every position but the seeded one

        def resolve(by_right: List[bytes], by_left: List[bytes]) -> List[bytes]:
            nonlocal unknown
            # An unknown left position sits `offset` places before the shared
            # middle; a known middle position resolves it.
            new = [x or (y - offset if y > offset else _UNKNOWN)
                   for x, y in zip(_mids(by_right), _mids(by_left))]
            unknown = new.count(_UNKNOWN)
            return list(map(_RELINK.pack, map(_left_key, by_right), new, map(_right_key, by_left)))

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
        with machine.begin_pass(cur) as rp:
            recs = rp.read_all()
            # Sorted by position, the tape must hold positions 1..m; the
            # characters before the first misplaced one are still written.
            placed = next(compress(count(), map(ne, _mids(recs), range(1, m + 1))), m)
            chars = [rec[0:1] for rec in recs[:placed] if rec[0] != 0]
            machine.write_output(*chars)
            if placed < m:
                raise ValueError("not a valid transform image: positions are not a permutation")
        out = [c - 1 for c in b"".join(chars)]
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
