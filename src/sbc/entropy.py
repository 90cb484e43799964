"""Order-0 and order-k empirical entropy.

The order-k value partitions a string's characters by the length-k context
that precedes them and averages the order-0 entropy of each partition,
weighted by its size.  Contexts are scanned linearly by default (positions
k+1..n; the first k characters contribute no context), so the partition
sizes sum to n-k.  A cyclic variant wraps contexts around the string end,
which is what makes powers of De Bruijn prefixes hit exactly zero.

All logarithms are base 2 and 0*log(.) terms are 0 by convention.  Inputs
may be any sequence of hashable symbols (str, bytes, lists of ints).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class ContextStats:
    """Occurrence counts of each character following every length-k context."""

    k: int
    table: Dict[tuple, Counter]
    n: int


@dataclass
class EntropyReport:
    h0: float
    hk_by_k: Dict[int, float]
    n: int
    sigma: int


def h0(s: Sequence) -> float:
    """Entropy of the character distribution, in bits per character."""
    n = len(s)
    if n == 0:
        raise ValueError("entropy of the empty string is undefined")
    counts = Counter(s)
    return sum(c * math.log2(n / c) for c in counts.values()) / n


def context_stats(s: Sequence, k: int, cyclic: bool = False) -> ContextStats:
    if k < 0:
        raise ValueError("context length must be >= 0")
    n = len(s)
    if cyclic:  # a linear scan with the string's cyclic last k characters in front
        s = [s[(j - k) % n] for j in range(k) if n] + list(s)
    table: Dict[tuple, Counter] = {}
    for i in range(k, len(s)):
        w = tuple(s[i - k:i])
        bucket = table.get(w)
        if bucket is None:
            bucket = table[w] = Counter()
        bucket[s[i]] += 1
    return ContextStats(k, table, n)


def hk(s: Sequence, k: int, cyclic: bool = False) -> float:
    """Order-k empirical entropy in bits per character.

    ``hk(s, 0)`` takes the same code path as :func:`h0`, so the two agree
    bit for bit.
    """
    n = len(s)
    if n == 0:
        raise ValueError("entropy of the empty string is undefined")
    if k == 0:
        return h0(s)
    stats = context_stats(s, k, cyclic=cyclic)
    total = 0.0
    for bucket in stats.table.values():
        m = sum(bucket.values())
        total += sum(c * math.log2(m / c) for c in bucket.values())
    return total / n


def superadditive_check(a: Sequence, b: Sequence, k: int, tol: float = 1e-9) -> bool:
    """Whether |a|*Hk(a) + |b|*Hk(b) <= |ab|*Hk(ab) within tolerance."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both parts must be nonempty")
    ab = list(a) + list(b)
    lhs = len(a) * hk(a, k) + len(b) * hk(b, k)
    rhs = len(ab) * hk(ab, k)
    return lhs <= rhs + tol


def entropy_report(s: Sequence, k_max: int = 4) -> EntropyReport:
    values = {k: hk(s, k) for k in range(k_max + 1)}
    return EntropyReport(h0=values[0], hk_by_k=values, n=len(s), sigma=len(set(s)))
