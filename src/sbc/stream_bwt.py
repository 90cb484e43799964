"""Prefix-doubling transform computation on read-write tape machines.

Both directions run in one working scope, :func:`_working`.  The forward
direction is prefix doubling by position with resolved records set aside
(Dementiev, Kärkkäinen, Mehnert & Sanders, "Better external memory suffix
array construction", ACM JEA 12, 2008).  Position i of x = s+sentinel
(length m) is the record (tag i+1, next char x[i+1 mod m], pending flag,
rank), kept in position order.  The rank orders the cyclic backward string
x[i] x[i-1] ... of length h: first x[i] shifted up by one (the sentinel 0),
then one plus the number of smaller strings.  A record is pending while its
string is not unique.  A round copies the tape and joins each pending
record i with record i-h in one pass over the tape and its copy, the copy's
head h records behind.  The first h take partner rank 0.  That is exact: a
string reaching past position 0 holds the unique sentinel, so it is no
longer pending, and record h-1's true partner, the sentinel's, ranks
lowest.  Only the joined records are sorted by (rank, partner) and
renumbered: a run of equal pairs takes its group's rank plus its offset in
the group (in round 1, its first index plus one), and a run of one is
resolved.  They are sorted back by position and merged into the tape in one
pass.  Strings of length m-1 are unique, so nothing is pending after at
most max(1, ceil(log2(m-1))) rounds; one sort by rank then puts the next
chars (the transform) or the tags mod m (the suffix array) on the output
tape.

Inversion seeds triples (tagged left char, mid, tagged right char) from
the stable sort of the transform (which pairs every character with its
predecessor), marks all positions unknown except the sentinel's, and
propagates known positions.  A round copies the tape twice, sorts one
copy by the right component and the other by the left, and joins them row
by row, resolving positions: an unknown left position lies ``offset``
places before a known middle position, and ``offset`` doubles every round.
When every position is known, sorting by position and projecting the left
characters recovers the string.

All tape sorting is :func:`sbc.machine.tape_merge_sort`, whose ledger
charges exactly the six sweeps per level of the bottom-up two-way merge
sort, so every round costs O(log n) head sweeps and the whole run
O(log^2 n).  The host computes the sorted tapes with stable ``sorted``
calls; the record-by-record merge is the test oracle.  Tape contents in
the middle of a sort are not part of the contract; the passes, trace lines
and tapes after it are.

Records are fixed-width byte strings (32-bit ranks and identifiers realize
the O(log n) fields), so byte-wise comparison equals field-wise comparison.
The host does the per-record work with C-level builtins: ``itemgetter``
slices, ``map``s over ``add``, ``compress`` and ``accumulate``, and one
``struct`` call per column.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from itertools import accumulate, chain, compress, count, repeat
from operator import add, gt, itemgetter, ne, sub
from typing import Callable, Iterator, List, Optional, Sequence

from .machine import INPUT, WRITE, Machine, MachineConfig, ModelKind, held, tape_merge_sort
from .transforms import _validate_ranks, bwt

_RANKED = struct.Struct(">IBBI")  # position tag, next char, pending flag, rank
_FLAG_AND_RANK = struct.Struct(">BI")
_TRIPLE = struct.Struct(">BIIBI")  # left char, left id, mid, right char, right id
_RELINK = struct.Struct(">5sI5s")  # the same triple: tagged left, mid, tagged right
_ID = struct.Struct(">I")
_UNKNOWN = 0  # position marker; real positions are 1..n+1

# Fixed working-register charge, pinned at 2,496 bits: a few records of either
# direction (10- and 13-byte forward records, 14-byte triples) plus counters.
_WORK_BITS = 2496


def default_rw_machine(input_data: bytes = b"") -> Machine:
    budget_bits = 8192 + 64 * max(1, len(input_data)).bit_length()
    cfg = MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=budget_bits, work_tapes=4)
    return Machine(cfg, input_data)


@contextmanager
def _working(machine: Optional[Machine], symbols: Sequence[int], shift: int,
             check: Callable[[bytes], None]) -> Iterator[Machine]:
    """The checked read-write machine of one run, holding the working charge.

    Builds the default machine over ``symbols`` shifted by ``shift`` only
    when none is given, after refusing a symbol no byte can hold; a given
    machine is checked against ``len(symbols)`` alone.  ``check`` then reads
    the input tape's symbols as bytes, before any pass or charge.  The
    charge is released however the run ends.
    """
    if machine is None:
        _validate_ranks(symbols, 256 - shift, low=-shift)  # before bytes() refuses it in its own words
        machine = default_rw_machine(bytes(c + shift for c in symbols))
    machine.require(ModelKind.READ_WRITE, work_tapes=4, length=len(symbols))
    check(machine.input_symbols())
    with held(machine, _WORK_BITS):
        yield machine


# Fields of a ranked record (tag, next char, pending flag, rank) and of a
# joined record (rank, partner rank, tag, next char).  Tags are distinct and
# joined records are written in tag order, so whole-record order is position
# order on ranked records and the stable order by rank pair on joined ones.
_record_key = itemgetter(slice(None))
_tag_and_char = itemgetter(slice(0, 5))
_pending = itemgetter(5)
_rank_key = itemgetter(slice(6, 10))
_pair_key = itemgetter(slice(0, 8))
_joined_tag_and_char = itemgetter(slice(8, 13))


def _decode_ranked(records: Sequence[bytes]) -> List[tuple]:
    """Ranked records as (position, rank, next char) tuples; a sentinel char is -1."""
    return [(tag - 1, rank, c - 1) for tag, c, _, rank in _RANKED.iter_unpack(b"".join(records))]


def _encode(s: Sequence[int], machine: Optional[Machine],
            on_round: Optional[Callable[[List[tuple]], None]],
            output: Callable[[List[bytes]], List[bytes]]) -> List[bytes]:
    """Run the forward rounds, sort the tape by rank, and write ``output`` of
    the (tag, next char) fields, in rank order, to the output tape; returns it."""
    m = len(s) + 1
    with _working(machine, s, 0, lambda tape: _validate_ranks(tape, None)) as machine:
        with machine.begin_pass(INPUT) as src, machine.begin_pass("work0", mode=WRITE) as dst:
            chars = [rec[0] + 1 for rec in src.read_all()] + [0]  # shifted; sentinel is 0
            dst.write_many(list(map(_RANKED.pack, count(1), chars[1:] + chars[:1], repeat(1), chars)))

        tape, copy, joined, spare = "work0", "work1", "work2", "work3"
        for rounds in count(1):
            h = 1 << (rounds - 1)  # the ranks order backward strings of length h
            if rounds > max(1, (m - 1).bit_length()):  # pragma: no cover - the doubling argument forbids it
                raise AssertionError("doubling failed to resolve in the round bound")
            with machine.begin_pass(tape) as rp, machine.begin_pass(copy, mode=WRITE) as w:
                w.write_many(rp.read_all())
            with machine.begin_pass(tape) as rp, machine.begin_pass(copy) as lag, \
                    machine.begin_pass(joined, mode=WRITE) as out:
                recs = rp.read_all()
                flags = list(map(_pending, recs))
                pending = list(compress(recs, flags))
                partners = map(_rank_key, compress(chain(repeat(bytes(10), h), lag.read_all()), flags))
                out.write_many(list(map(add, map(add, map(_rank_key, pending), partners),
                                        map(_tag_and_char, pending))))
            tape_merge_sort(machine, joined, _record_key, copy, spare)
            with machine.begin_pass(joined) as rp, machine.begin_pass(copy, mode=WRITE) as out:
                pairs = rp.read_all()
                sigs = list(map(_pair_key, pairs))
                fresh = list(map(ne, sigs, chain((None,), sigs)))
                # Per run of equal pairs: its first index on this tape and its size.
                firsts = list(compress(count(), fresh))
                sizes = list(map(sub, chain(firsts[1:], (len(pairs),)), firsts))
                if rounds == 1:  # the whole tape: a run's rank is its first index plus one
                    ranks = list(map(add, firsts, repeat(1)))
                else:  # whole groups: a run's rank is its group's plus its offset in the group
                    olds = struct.unpack(f">{2 * len(firsts)}I", b"".join(compress(sigs, fresh)))[::2]
                    group_first = dict(zip(reversed(olds), reversed(firsts)))
                    ranks = list(map(sub, map(add, olds, firsts), map(group_first.__getitem__, olds)))
                tails = [None] + list(map(_FLAG_AND_RANK.pack, map(gt, sizes, repeat(1)), ranks))
                out.write_many(list(map(add, map(_joined_tag_and_char, pairs),
                                        map(tails.__getitem__, accumulate(fresh)))))
            tape_merge_sort(machine, copy, _record_key, joined, spare)
            # The renumbered records, in position order, take the pending slots.
            with machine.begin_pass(tape) as rp, machine.begin_pass(copy) as rn, \
                    machine.begin_pass(joined, mode=WRITE) as out:
                recs = rp.read_all()
                for slot, rec in zip(compress(count(), flags), rn.read_all()):
                    recs[slot] = rec
                out.write_many(recs)
            tape, joined = joined, tape
            if on_round is not None:
                on_round(_decode_ranked(machine.tapes[tape].records))
            if max(sizes) == 1:
                break
        tape_merge_sort(machine, tape, _rank_key, copy, spare)
        with machine.begin_pass(tape) as rp:
            fields = output(list(map(_tag_and_char, rp.read_all())))
            machine.write_output(*fields)
        return fields


def rw_bwt_encode(s: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Compute the backward-context transform of s+sentinel on tape.

    A given machine's input tape is the input; ``s`` gives only its length.
    ``on_round`` receives each round's tape as :func:`_decode_ranked` tuples.
    """
    next_chars = _encode(s, machine, on_round, lambda tails: [t[4:5] for t in tails])
    return [c - 1 for c in b"".join(next_chars)]


def rw_suffix_array(s: Sequence[int], machine: Optional[Machine] = None) -> List[int]:
    """Positions of s+sentinel sorted by backward context (0-indexed).

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    m = len(s) + 1  # record i ranks the context of position i+1 mod m, its tag mod m
    positions = _encode(s, machine, None, lambda tails: [
        _ID.pack(int.from_bytes(t[:4], "big") % m) for t in tails])
    return [int.from_bytes(p, "big") for p in positions]


# Fields of a triple record.
_left_key = itemgetter(slice(0, 5))
_mid_key = itemgetter(slice(5, 9))
_right_key = itemgetter(slice(9, 14))
_char_key = itemgetter(slice(0, 1))


def _decode_triples(records: Sequence[bytes]) -> List[tuple]:
    """Triple records as (left char, left id, mid, right char, right id) tuples:
    characters as ranks with -1 for the sentinel, an unknown mid as None."""
    return [(lc - 1, lid, mid if mid != _UNKNOWN else None, rc - 1, rid)
            for lc, lid, mid, rc, rid in _TRIPLE.iter_unpack(b"".join(records))]


def _mids(records: List[bytes]) -> tuple:
    """The mid field of every triple record, as integers."""
    return struct.unpack(f">{len(records)}I", b"".join(map(_mid_key, records)))


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
        cur, copy1, copy2, scratch = "work1", "work0", "work2", "work3"
        for _ in range(max(1, (m - 1).bit_length()) + 2):
            if not unknown:
                break
            # One pass copies the tape twice; the copies are sorted by right
            # and by left component.  Every tagged character occurs once as a
            # right and once as a left, so the sorted copies align row by row.
            with machine.begin_pass(cur) as rp, \
                    machine.begin_pass(copy1, mode=WRITE) as w1, \
                    machine.begin_pass(copy2, mode=WRITE) as w2:
                records = rp.read_all()
                w1.write_many(records)
                w2.write_many(records)
            tape_merge_sort(machine, copy1, _right_key, cur, scratch)
            tape_merge_sort(machine, copy2, _left_key, cur, scratch)
            with machine.begin_pass(copy1) as r1, machine.begin_pass(copy2) as r2, \
                    machine.begin_pass(cur, mode=WRITE) as out:
                by_right, by_left = r1.read_all(), r2.read_all()
                # An unknown left position sits `offset` places before the
                # shared middle; a known middle position resolves it.
                new = [x or (y - offset if y > offset else _UNKNOWN)
                       for x, y in zip(_mids(by_right), _mids(by_left))]
                unknown = new.count(_UNKNOWN)
                out.write_many(list(map(_RELINK.pack, map(_left_key, by_right), new,
                                        map(_right_key, by_left))))
            offset <<= 1
            if on_round is not None:
                on_round(_decode_triples(machine.tapes[cur].records))
        if unknown:
            raise ValueError("not a valid transform image: positions never resolve")
        tape_merge_sort(machine, cur, _mid_key, copy1, scratch)
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
    """Sort a string's characters by transforming its predecessor-pair string.

    Pair j is (s_j, s_{j-1}) for j = 0..n, where s_{-1} is below and s_n
    above every character.  The ranked pairs transform to pair 0 (whose
    context is the sentinel), then pairs 1..n ordered by their predecessors'
    first components, their own second ones, then the sentinel.  The pair
    alphabet can exceed 255 symbols, so it is passed as ``sigma``.
    """
    s = list(s)
    pairs = list(zip(s + [max(s, default=0) + 1], [min(s, default=0) - 1] + s))
    table = sorted(set(pairs))
    rank = {pair: r for r, pair in enumerate(table)}
    return [table[r][1] for r in bwt([rank[pair] for pair in pairs], len(table))[1:-1]]


def sort_numbers_via_bwt(xs: Sequence[int]) -> List[int]:
    """Sort fixed-width numbers by transforming a bit-replacement string.

    Every bit j of every number x_i becomes the phrase
    ``x_i[j] 2 bits(x_i) bits(i) bits(j)`` over the alphabet {0, 1, 2}.
    Transformed reversed, its contexts are read forward from each character's
    successor.  Only a phrase's leading bit is followed by a 2, so those bits
    sort to the tail, ordered by (x_i, i, j) before any context meets the
    sentinel: the final 2*n*log2(n) characters are the sorted inputs' bits.
    """
    xs = list(xs)
    n = len(xs)
    if n < 2 or n & (n - 1):
        raise ValueError("need a power-of-two count of numbers, at least 2")
    width_i = n.bit_length() - 1
    width_x = 2 * width_i
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
            g += [xbits[j], 2, *xbits, *ibits, *bits(j, width_j)]

    tail = "".join(map(str, bwt(g[::-1], 3)[-n * width_x:]))
    return [int(tail[t:t + width_x], 2) for t in range(0, len(tail), width_x)]
