"""In-memory reference transforms.

These are the oracles the streaming implementations are checked against:
the context-sorting transform and its inverse and the length-k variant,
plus move-to-front and run-aware distance coding with its decoder.  The
delta code of the distance-coding payload lives in :mod:`sbc.coders`.

Strings are sequences of integer ranks 0..sigma-1.  The end marker
(:data:`SENTINEL`, rank -1) orders below every real symbol; transform
outputs carry it inline.  The transform sorts the n+1 characters of
s+sentinel by the rank of their *backward* context: the character at
position i precedes the one at position j when the cyclic string read
backwards from i-1 is lexicographically smaller than the one read
backwards from j-1 (indices mod n+1).  That order is the suffix order of
reversed(s)+terminator, since the sentinel ends every comparison, and one
linear-time suffix sorter computes it.  A caller that wants contexts read
forward transforms the reversed string: its backward contexts are the
forward contexts of the original.  The length-k variant compares only the
k nearest context characters, breaking ties by original position.  It
packs each context into one integer of k digits in base sigma+1, most
recent character first; digits order as the characters do and every key
has the same number of digits, so integer order is the tuple order and one
sort by integer keys does the work.
Distance coding finds its runs with one C-level scan for unequal
neighbours.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, compress
from operator import ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SENTINEL = -1


def _validate_ranks(s: Sequence[int], sigma: Optional[int], low: int = 0) -> None:
    # Rank 255 is reserved so that the shifted encoding rank+1 fits a byte.
    limit = 255 if sigma is None else sigma
    if s and not (low <= min(s) and max(s) < limit):
        bad = next(c for c in s if not low <= c < limit)
        raise ValueError(f"symbol {bad!r} out of alphabet")


def _suffix_array(w: Sequence[int], upper: int) -> List[int]:
    """Start positions of the suffixes of ``w`` in sorted order (SA-IS).

    Symbols are integers in 0..upper.  A suffix that is a prefix of another
    sorts first, as ``w[i:]`` slices compare.  Linear time by induced
    sorting (Nong, Zhang & Chan, DCC 2009): the LMS suffixes (smaller than
    their successor, larger than their predecessor) are sorted first, by
    recursion on the string of their substrings' names when those repeat,
    and every other suffix is induced from them in two scans.
    """
    n = len(w)
    if n < 2:
        return list(range(n))
    # stype[i]: suffix i is smaller than suffix i+1.  The last suffix is not,
    # since the empty suffix after it is smaller than everything.
    stype = [False] * n
    for i in range(n - 2, -1, -1):
        a, b = w[i], w[i + 1]
        stype[i] = a < b or (a == b and stype[i + 1])
    count = [0] * (upper + 2)
    for c in w:
        count[c + 1] += 1
    head = list(accumulate(count))  # bucket of symbol c is head[c]:head[c + 1]
    lms = [i for i in range(1, n) if stype[i] and not stype[i - 1]]

    def induce(lms_order: List[int]) -> List[int]:
        sa = [-1] * n
        tail = head[1:]
        for p in reversed(lms_order):
            c = w[p]
            tail[c] -= 1
            sa[tail[c]] = p
        # Left to right: each suffix places its L-type predecessor at the
        # front of that one's bucket.  The iterator sees slots filled ahead.
        front = head[:]
        c = w[n - 1]
        sa[front[c]] = n - 1
        front[c] += 1
        for p in sa:
            if p > 0 and not stype[p - 1]:
                c = w[p - 1]
                sa[front[c]] = p - 1
                front[c] += 1
        # Right to left: S-type predecessors fill buckets from the back, over
        # the LMS placements.
        tail = head[1:]
        for p in reversed(sa):
            if p > 0 and stype[p - 1]:
                c = w[p - 1]
                tail[c] -= 1
                sa[tail[c]] = p - 1
        return sa

    # An LMS substring runs to the next LMS position inclusive; the last one
    # runs off the end, so it holds the empty suffix and equals no other.
    end = dict(zip(lms, lms[1:] + [n]))
    sorted_lms = [p for p in induce(lms) if p in end]
    name: Dict[int, int] = {}
    names = 0
    prev = None
    for p in sorted_lms:
        sub = w[p:end[p] + 1] if end[p] < n else None
        if sub is None or sub != prev:
            names += 1
        name[p] = names - 1
        prev = sub
    lms_order = sorted_lms
    if names < len(lms):
        lms_order = [lms[j] for j in _suffix_array([name[p] for p in lms], names - 1)]
    return induce(lms_order)


def bwt(s: Sequence[int], sigma: Optional[int] = None) -> List[int]:
    """Backward-context transform of s+sentinel; a permutation of it."""
    s = list(s)
    _validate_ranks(s, sigma)
    # The backward context of position i of s+sentinel is suffix n-i of
    # w = reversed(s)+terminator, and the character at i is the one before
    # that suffix, w[n-i-1] - 1 (cyclically: the terminator for suffix 0).
    w = [c + 1 for c in reversed(s)]
    w.append(0)
    return [w[j - 1] - 1 for j in _suffix_array(w, max(w))]


def bwt_inverse(t: Sequence[int]) -> List[int]:
    """The unique s with ``bwt(s) == t``.

    The stable sort of t pairs each output character with its predecessor
    in s, so walking that occurrence-stable matching from the sentinel row
    recovers s backwards.  The walk must close into a single full cycle;
    anything else is rejected.
    """
    t = list(t)
    m = len(t)
    if t.count(SENTINEL) != 1:
        raise ValueError("expected exactly one sentinel")
    order = sorted(range(m), key=t.__getitem__)
    start = t.index(SENTINEL)
    row = start
    chars: List[int] = []
    for _ in range(m - 1):
        row = order[row]
        if row == start:
            raise ValueError("not a valid transform image")
        chars.append(t[row])
    if order[row] != start:
        raise ValueError("not a valid transform image")
    chars.reverse()
    return chars


def st(s: Sequence[int], k: int, sigma: Optional[int] = None) -> List[int]:
    """Length-k context sort of s+sentinel, stable in the original positions.

    The k nearest context characters, most recent first, are packed into
    one integer in base sigma+1 (256 when ``sigma`` is None; ranks stop at
    254): the marker is digit 0 and rank r is digit r+1.  Every key has
    exactly k digits, so integer order is the lexicographic order of the
    context tuples, and the stable sort breaks ties by position.  Rotations
    of s+sentinel are pairwise distinct, so for k > len(s) the order is the
    full backward-context order of :func:`bwt`.
    """
    if k < 0:
        raise ValueError("context length must be >= 0")
    s = list(s)
    if k > len(s):
        return bwt(s, sigma)
    _validate_ranks(s, sigma)
    extended = s + [SENTINEL]
    if k == 0:
        return extended
    base = 256 if sigma is None else sigma + 1
    top = base ** (k - 1)
    # One step shifts the oldest digit out and the newest in at the top;
    # k steps over the tail give position 0 its context through the marker.
    key = 0
    for c in extended[-k:]:
        key = (c + 1) * top + key // base
    keys = []
    for c in extended:
        keys.append(key)
        key = (c + 1) * top + key // base
    return [extended[i] for i in sorted(range(len(extended)), key=keys.__getitem__)]


# -- move-to-front -------------------------------------------------------


def mtf_encode(seq: Iterable, table: Sequence) -> List[int]:
    table = list(table)
    out = []
    for c in seq:
        i = table.index(c)
        out.append(i)
        if i:
            table.insert(0, table.pop(i))
    return out


# -- distance coding -----------------------------------------------------


def dc_encode(seq: Sequence[int], sigma: int) -> Tuple[List[Optional[int]], List[int]]:
    """Run-aware distance coding of a string of ranks below ``sigma``.

    Returns ``(first, gaps)``.  ``first[r]`` is the first position of rank
    r, or None when r never occurs.  ``gaps`` holds one entry per maximal
    run, in run order: the distance from the run's last position to the
    rank's next occurrence, or 0 when the rank never recurs.  A gap of 1
    cannot occur (the run would have extended), which is what lets the
    decoder treat runs implicitly: a run lasts until the smallest pending
    next-occurrence of another rank.
    """
    seq = list(seq)
    _validate_ranks(seq, sigma)
    n = len(seq)
    starts = [0] if n else []  # the start of every maximal run
    starts.extend(compress(range(1, n), map(ne, seq[1:], seq)))

    # Walking the runs backwards, first[sym] is the start of sym's next run;
    # once every run is seen, it is sym's first occurrence.
    first: List[Optional[int]] = [None] * sigma
    gaps: List[int] = []
    end = n  # one past the current run
    for start in reversed(starts):
        sym = seq[start]
        nxt = first[sym]
        gaps.append(0 if nxt is None else nxt - (end - 1))
        first[sym] = start
        end = start
    gaps.reverse()
    return first, gaps


def _dc_reconstruct(first: Sequence[Optional[int]], n: int, next_gap) -> List[int]:
    """Rebuild a string from the first occurrence of each rank and a gap source.

    ``next_gap`` is called once per maximal run, in run order.  Raises
    ValueError on any malformed stream (gap of 1, colliding or out-of-range
    positions, missing run owner).  Pending next occurrences sit in a heap
    of (position, rank), so each run costs O(log sigma); every pending
    position is at least the current one, so a run's owner is the heap's
    top and a second entry there is a collision.  Every pending position is
    also below n, so the loop ends only once nothing is pending: no
    occurrence is left dangling.
    """
    pending = []  # (position, rank)
    for sym, pos in enumerate(first):
        if pos is None:
            continue
        if not 0 <= pos < n:
            raise ValueError("first occurrence out of range")
        pending.append((pos, sym))
    heapify(pending)
    out: List[int] = []
    pos = 0
    while pos < n:
        if not pending or pending[0][0] != pos:
            raise ValueError("malformed distance stream")
        _, sym = heappop(pending)
        nxt = pending[0][0] if pending else n
        if nxt == pos:
            raise ValueError("malformed distance stream")
        out.extend([sym] * (nxt - pos))
        gap = next_gap()
        if gap is None or gap < 0 or gap == 1:
            raise ValueError("malformed distance stream")
        if gap:
            target = (nxt - 1) + gap
            if target >= n:
                raise ValueError("gap points past the end")
            heappush(pending, (target, sym))
        pos = nxt
    return out
