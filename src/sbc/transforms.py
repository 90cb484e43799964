"""In-memory reference transforms.

These are the oracles the streaming implementations are checked against:
the context-sorting transform and its inverse, the length-k variant, plus
move-to-front, run-length, distance and delta coding.

Strings are sequences of integer ranks 0..sigma-1.  The end marker
(:data:`SENTINEL`, rank -1) orders below every real symbol; transform
outputs carry it inline.  The transform sorts the n+1 characters of
s+sentinel by the rank of their *backward* context: the character at
position i precedes the one at position j when the cyclic string read
backwards from i-1 is lexicographically smaller than the one read
backwards from j-1 (indices mod n+1).  The length-k variant compares only
the k nearest context characters, breaking ties by original position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

SENTINEL = -1


def _validate_ranks(s: Sequence[int], sigma: Optional[int]) -> None:
    # Rank 255 is reserved so that the shifted encoding rank+1 fits a byte.
    limit = 255 if sigma is None else sigma
    for c in s:
        if not 0 <= c < limit:
            raise ValueError(f"symbol {c!r} out of alphabet")


def cyclic_context_order(seq: Sequence, backward: bool = True) -> List[int]:
    """Positions of ``seq`` sorted by cyclic context, via rank doubling.

    With ``backward=True`` the context of position i is the cyclic read
    seq[i-1], seq[i-2], ...; otherwise seq[i+1], seq[i+2], ....  Symbols
    only need to be mutually comparable.  Raises if two rotations are
    identical (the order would not be total).
    """
    m = len(seq)
    if m == 0:
        return []
    if m == 1:
        return [0]

    def rerank(keys):
        order = sorted(range(m), key=keys.__getitem__)
        rank = [0] * m
        top = 0
        rank[order[0]] = 0
        for prev, cur in zip(order, order[1:]):
            if keys[cur] != keys[prev]:
                top += 1
            rank[cur] = top
        return order, rank, top

    uniq = {v: i for i, v in enumerate(sorted(set(seq)))}
    step = -1 if backward else 1
    order, rank, top = rerank([uniq[seq[(i + step) % m]] for i in range(m)])
    length = 1
    while top < m - 1:
        if length >= m:
            raise ValueError("rotations are not all distinct")
        shift = step * length
        keys = [(rank[i], rank[(i + shift) % m]) for i in range(m)]
        order, rank, top = rerank(keys)
        length <<= 1
    return order


def bwt(s: Sequence[int], sigma: Optional[int] = None) -> List[int]:
    """Backward-context transform of s+sentinel; a permutation of it."""
    s = list(s)
    _validate_ranks(s, sigma)
    extended = s + [SENTINEL]
    order = cyclic_context_order(extended, backward=True)
    return [extended[i] for i in order]


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
    order = sorted(range(m), key=lambda i: t[i])
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
    """Length-k context sort of s+sentinel, stable in the original positions."""
    if k < 0:
        raise ValueError("context length must be >= 0")
    s = list(s)
    _validate_ranks(s, sigma)
    extended = s + [SENTINEL]
    m = len(extended)
    keys = [tuple(extended[(i - 1 - j) % m] for j in range(k)) for i in range(m)]
    order = sorted(range(m), key=lambda i: (keys[i], i))
    return [extended[i] for i in order]


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


def mtf_decode(indices: Iterable[int], table: Sequence) -> List:
    table = list(table)
    out = []
    for i in indices:
        if not 0 <= i < len(table):
            raise ValueError(f"index {i} out of range for alphabet of {len(table)}")
        c = table[i]
        out.append(c)
        if i:
            table.insert(0, table.pop(i))
    return out


# -- run-length ----------------------------------------------------------


def rle_encode(seq: Sequence) -> List[tuple]:
    out: List[list] = []
    for v in seq:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [tuple(p) for p in out]


def rle_decode(pairs: Iterable[tuple]) -> List:
    out: List = []
    for sym, run in pairs:
        if run <= 0:
            raise ValueError("run length must be positive")
        out.extend([sym] * run)
    return out


# -- distance coding -----------------------------------------------------


@dataclass
class DcStream:
    """Run-aware distance coding of a string.

    ``gaps`` holds one entry per maximal run, in run order: the distance
    from the run's last position to the symbol's next occurrence, or 0 when
    the symbol never recurs.  A gap of 1 cannot occur (the run would have
    extended), which is what lets the decoder treat runs implicitly: a run
    lasts until the smallest pending next-occurrence of another symbol.
    """

    first_occurrence: Dict
    length: int
    gaps: List[int]


def dc_encode(seq: Sequence, alphabet: Optional[Iterable] = None) -> DcStream:
    seq = list(seq)
    if alphabet is None:
        alphabet = sorted(set(seq))
    alphabet = list(alphabet)
    allowed = set(alphabet)
    for c in seq:
        if c not in allowed:
            raise ValueError(f"symbol {c!r} not in alphabet")

    runs: List[tuple] = []  # (symbol, start, end) inclusive
    for i, c in enumerate(seq):
        if runs and runs[-1][0] == c and runs[-1][2] == i - 1:
            runs[-1] = (c, runs[-1][1], i)
        else:
            runs.append((c, i, i))

    first: Dict = {a: None for a in alphabet}
    next_start: Dict = {}
    gaps_rev: List[int] = []
    for sym, start, end in reversed(runs):
        nxt = next_start.get(sym)
        gaps_rev.append(0 if nxt is None else nxt - end)
        next_start[sym] = start
    for sym, start, _ in runs:
        if first[sym] is None:
            first[sym] = start
    return DcStream(first, len(seq), gaps_rev[::-1])


def _dc_reconstruct(first_occurrence: Dict, n: int, next_gap) -> List:
    """Rebuild a string from first occurrences and a gap source.

    ``next_gap`` is called once per maximal run, in run order.  Raises
    ValueError on any malformed stream (gap of 1, colliding or out-of-range
    positions, missing run owner).
    """
    pending = {}
    for sym, pos in first_occurrence.items():
        if pos is None:
            continue
        if not 0 <= pos < n:
            raise ValueError("first occurrence out of range")
        pending[sym] = pos
    out: List = []
    pos = 0
    while pos < n:
        owners = [a for a, p in pending.items() if p == pos]
        if len(owners) != 1:
            raise ValueError("malformed distance stream")
        sym = owners[0]
        del pending[sym]
        nxt = min(pending.values()) if pending else n
        out.extend([sym] * (nxt - pos))
        gap = next_gap()
        if gap is None or gap < 0 or gap == 1:
            raise ValueError("malformed distance stream")
        if gap:
            target = (nxt - 1) + gap
            if target >= n:
                raise ValueError("gap points past the end")
            pending[sym] = target
        pos = nxt
    if pending:
        raise ValueError("dangling occurrences")
    return out


def dc_decode(stream: DcStream) -> List:
    gaps = iter(stream.gaps)
    out = _dc_reconstruct(stream.first_occurrence, stream.length, lambda: next(gaps, None))
    if next(gaps, None) is not None:
        raise ValueError("trailing gaps")
    return out


# -- delta codes ---------------------------------------------------------


def elias_delta_encode(m: int) -> str:
    """Delta code of m >= 1 as a '0'/'1' string."""
    if m < 1:
        raise ValueError("delta codes represent integers >= 1")
    nbits = m.bit_length()
    lbits = nbits.bit_length() - 1
    return "0" * lbits + bin(nbits)[2:] + bin(m)[3:]


def elias_delta_decode(bits: str, pos: int = 0):
    """Decode one delta code at ``pos``; returns (value, next position)."""
    z = 0
    try:
        while bits[pos] == "0":
            z += 1
            pos += 1
        pos += 1  # the terminating 1 is the top bit of the length field
        nbits = 1
        for _ in range(z):
            nbits = (nbits << 1) | (bits[pos] == "1")
            pos += 1
        value = 1
        for _ in range(nbits - 1):
            value = (value << 1) | (bits[pos] == "1")
            pos += 1
    except IndexError:
        raise ValueError("truncated delta code") from None
    return value, pos
