"""Prefix-doubling transform computation on read-write tape machines.

Both directions take their machine from :func:`_checked_machine`, which
refuses one they cannot run on before any pass or charge, and hold the
fixed working charge ``_WORK_BITS`` for the run.  The forward direction
is prefix doubling by position with resolved records set aside
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
tape, or the transform back on the input tape for a stage that sweeps it.

Inversion ranks the predecessor list by pointer jumping (Chiang et al.,
"External-memory graph algorithms", SODA 1995) on the same records, one
per row j of the transform t, in row order: (tag j+1, char t[j], pending
flag, value).  Row j holds the char of position p(j), so row 0 (the
sentinel's context) holds position 0, and the stable sort of t puts at
index j the row one position before row j: every pending record's first
link.  Round r (h = 2^(r-1)) sorts a copy of the pending records by link
and reads each linked record in one sweep of the tape: a resolved one
gives its position plus h, a pending one its own link.  The forward's
tail, a sort back by tag and a merge, returns them.  After round r exactly
the rows with p(j) < 2^r are resolved, so ceil(log2 m) rounds resolve an
image; a row still pending lies off the one cycle from row 0, and the
input is refused.  One sort by position spells x.

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
from itertools import accumulate, chain, compress, count, repeat
from operator import add, gt, itemgetter, ne, sub
from typing import Callable, List, Optional, Sequence, TypeVar

from .machine import INPUT, WRITE, Machine, MachineConfig, ModelKind, held, tape_merge_sort
from .transforms import _validate_ranks, bwt

_RANKED = struct.Struct(">IBBI")  # tag, char, pending flag, value (a rank, link or position)
_FLAG_AND_RANK = struct.Struct(">BI")
_ID = struct.Struct(">I")
_T = TypeVar("_T")

# Fixed working-register charge, pinned at 2,496 bits: a few ranked (10-byte)
# and joined (13-byte) records plus counters.
_WORK_BITS = 2496

#: Work tapes of every read-write machine: the tape, its copy, the joined
#: records and the sort's spare.
RW_WORK_TAPES = 4


def default_rw_machine(input_data: bytes = b"") -> Machine:
    budget_bits = 8192 + 64 * max(1, len(input_data)).bit_length()
    return Machine(MachineConfig(ModelKind.READ_WRITE, budget_bits, RW_WORK_TAPES), input_data)


def _checked_machine(machine: Optional[Machine], symbols: Sequence[int], shift: int,
                     sigma: Optional[int] = None) -> Machine:
    """The read-write machine of one run, refused before any pass or charge
    unless its input tape holds ``len(symbols)`` symbols below ``sigma``.

    Builds the default machine over ``symbols`` shifted by ``shift`` only
    when none is given, after refusing a symbol no byte can hold.
    """
    if machine is None:
        _validate_ranks(symbols, 256 - shift, low=-shift)  # before bytes() refuses it in its own words
        machine = default_rw_machine(bytes(c + shift for c in symbols))
    machine.require(ModelKind.READ_WRITE, RW_WORK_TAPES, len(symbols), sigma)
    return machine


# Fields of a ranked record (tag, char, pending flag, value) and of a joined
# record (rank, partner rank, tag, next char).  Tags are distinct and joined
# records are written in tag order, so whole-record order (a sort with no
# key) is tag order on ranked records and the stable order by rank pair on
# joined ones.
_tag_and_char = itemgetter(slice(0, 5))
_char = itemgetter(slice(4, 5))
_id = itemgetter(slice(0, 4))
_pending = itemgetter(5)
_rank_key = itemgetter(slice(6, 10))
_pair_key = itemgetter(slice(0, 8))
_joined_tag_and_char = itemgetter(slice(8, 13))


def _ints(records: Sequence[bytes], field: Callable[[bytes], bytes]) -> tuple:
    """A 4-byte ``field`` of every record, as integers."""
    return struct.unpack(f">{len(records)}I", b"".join(map(field, records)))


def _decode_ranked(records: Sequence[bytes], links: bool = False) -> List[tuple]:
    """Ranked records as (tag - 1, value, char) tuples; a sentinel char is -1.

    With ``links`` a pending record's value is a link, shown as None.
    """
    return [(tag - 1, None if links and pending else value, c - 1)
            for tag, c, pending, value in _RANKED.iter_unpack(b"".join(records))]


def _merge_back(machine: Machine, tape: str, renewed: str, flags: Sequence[int],
                out: str, spare: str) -> None:
    """Sort the records on ``renewed`` back by tag and write ``tape`` to
    ``out`` with them in its pending slots, those whose ``flags`` are set."""
    tape_merge_sort(machine, renewed, None, out, spare)
    with machine.begin_pass(tape) as rp, machine.begin_pass(renewed) as rn, \
            machine.begin_pass(out, mode=WRITE) as w:
        recs = rp.read_all()
        for slot, rec in zip(compress(count(), flags), rn.read_all()):
            recs[slot] = rec
        w.write_many(recs)


def _encode(s: Sequence[int], machine: Optional[Machine],
            on_round: Optional[Callable[[List[tuple]], None]],
            output: Callable[[Machine, List[bytes]], _T]) -> _T:
    """Run the forward rounds, sort the tape by rank, and read it in one last
    pass, inside which ``output`` gets the machine and the (tag, next char)
    fields in rank order and writes the result; returns what ``output`` does."""
    m = len(s) + 1
    machine = _checked_machine(machine, s, 0, sigma=255)  # rank 255 would overflow its shift
    with held(machine, _WORK_BITS):
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
            tape_merge_sort(machine, joined, None, copy, spare)
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
            _merge_back(machine, tape, copy, flags, joined, spare)
            tape, joined = joined, tape
            if on_round is not None:
                on_round(_decode_ranked(machine.tapes[tape].records))
            if max(sizes) == 1:
                break
        tape_merge_sort(machine, tape, _rank_key, copy, spare)
        with machine.begin_pass(tape) as rp:
            return output(machine, list(map(_tag_and_char, rp.read_all())))


def _onto_output(machine: Machine, fields: List[bytes]) -> List[int]:
    next_chars = list(map(_char, fields))  # shifted; the sentinel is 0
    machine.write_output(*next_chars)
    return [c - 1 for c in b"".join(next_chars)]


def _onto_input(machine: Machine, fields: List[bytes]) -> None:
    with machine.begin_pass(INPUT, mode=WRITE) as w:
        w.write_many(list(map(_char, fields)))


def rw_bwt_encode(s: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Compute the backward-context transform of s+sentinel on tape.

    A given machine's input tape is the input; ``s`` gives only its length.
    ``on_round`` receives each round's tape as :func:`_decode_ranked` tuples.
    """
    return _encode(s, machine, on_round, _onto_output)


def rw_bwt_onto_input(s: Sequence[int], machine: Machine) -> None:
    """Run :func:`rw_bwt_encode` on ``machine`` but end with one write pass
    that leaves the transform on the input tape, as the output tape would
    get it (end marker 0, rank r as r+1), for a stage that sweeps that tape.
    """
    _encode(s, machine, None, _onto_input)


def rw_suffix_array(s: Sequence[int], machine: Optional[Machine] = None) -> List[int]:
    """Positions of s+sentinel sorted by backward context (0-indexed).

    A given machine's input tape is the input; ``s`` gives only its length.
    """
    m = len(s) + 1  # record i ranks the context of position i+1 mod m, its tag mod m

    def onto_output(machine: Machine, fields: List[bytes]) -> List[int]:
        positions = [tag % m for tag in _ints(fields, _id)]
        machine.write_output(*map(_ID.pack, positions))
        return positions

    return _encode(s, machine, None, onto_output)


def rw_bwt_invert(t: Sequence[int], machine: Optional[Machine] = None,
                  on_round: Optional[Callable[[List[tuple]], None]] = None) -> List[int]:
    """Recover s from its transform on a read-write machine.

    A given machine's input tape (ranks plus one, the sentinel as 0) is the
    input, and must hold exactly one sentinel; ``t`` gives only its length.
    ``on_round`` receives each round's tape as :func:`_decode_ranked`
    tuples (row, position or None while pending, char).
    """
    m = len(t)
    machine = _checked_machine(machine, t, 1)
    if bytes(map(itemgetter(0), machine.tapes[INPUT].records)).count(0) != 1:
        raise ValueError("expected exactly one sentinel")
    tape, copy, joined, spare = "work0", "work1", "work2", "work3"
    with held(machine, _WORK_BITS):
        # The stable sort of the transform puts, at index r, the row whose
        # position is one before row r's; row 0 holds position 0.
        with machine.begin_pass(INPUT) as src, machine.begin_pass(copy, mode=WRITE) as dst:
            dst.write_many(list(map(add, map(_ID.pack, range(m)), src.read_all())))
        tape_merge_sort(machine, copy, _char, joined, spare)
        with machine.begin_pass(INPUT) as src, machine.begin_pass(copy) as rp, \
                machine.begin_pass(tape, mode=WRITE) as dst:
            chars = list(map(itemgetter(0), src.read_all()))
            links = _ints(rp.read_all(), _id)
            dst.write_many(list(map(_RANKED.pack, count(1), chars, chain((0,), repeat(1)),
                                    chain((0,), links[1:]))))

        unresolved = m - 1
        for r in range((m - 1).bit_length()):
            h = 1 << r  # pending records link to the row h positions back
            with machine.begin_pass(tape) as rp, machine.begin_pass(copy, mode=WRITE) as w:
                recs = rp.read_all()
                flags = list(map(_pending, recs))
                w.write_many(list(compress(recs, flags)))
            tape_merge_sort(machine, copy, _rank_key, joined, spare)
            # The linked rows, in row order, are read in one sweep: a resolved
            # one gives its position plus h, a pending one its own link.
            with machine.begin_pass(tape) as rp, machine.begin_pass(copy) as lp, \
                    machine.begin_pass(joined, mode=WRITE) as out:
                recs = rp.read_all()
                pending = lp.read_all()
                linked = list(map(recs.__getitem__, _ints(pending, _rank_key)))
                still = list(map(_pending, linked))
                values = map(add, _ints(linked, _rank_key), map((h, 0).__getitem__, still))
                out.write_many(list(map(add, map(_tag_and_char, pending),
                                        map(_FLAG_AND_RANK.pack, still, values))))
            unresolved = sum(still)
            _merge_back(machine, tape, joined, flags, copy, spare)
            tape, copy = copy, tape
            if on_round is not None:
                on_round(_decode_ranked(machine.tapes[tape].records, links=True))
        # One cycle of the predecessor rows from row 0 resolves every row.
        if unresolved:
            raise ValueError("not a valid transform image: positions never resolve")
        tape_merge_sort(machine, tape, _rank_key, copy, spare)
        with machine.begin_pass(tape) as rp:
            spelled = list(map(_char, rp.read_all()))[:-1]  # the sentinel is last
            machine.write_output(*spelled)
    return [c - 1 for c in b"".join(spelled)]


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
