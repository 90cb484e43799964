"""Order-0 and order-k empirical entropy.

The order-k value partitions a string's characters by the length-k context
that precedes them and averages the order-0 entropy of each partition,
weighted by its size.  By default contexts are linear (positions k+1..n;
the first k characters contribute no context), so the partition sizes sum
to n-k.  A cyclic variant wraps contexts around the string end, which is
what makes powers of De Bruijn prefixes hit exactly zero.

Every (k+1)-window, its context followed by its character, is counted in
one C-level pass (``Counter`` over ``zip`` of shifted ``islice`` views), so
Python works once per distinct window rather than once per character.  The
counter keeps windows in order of first occurrence.  Grouping them by
context therefore orders contexts by first occurrence, and the characters
inside a context by first occurrence after it: the order a per-position
scan would build.  :func:`hk` sums ``c * log2(m / c)`` in that order, so
its float is the same, bit for bit, as that scan gives.

All logarithms are base 2 and 0*log(.) terms are 0 by convention.  Inputs
may be any sequence of hashable symbols (str, bytes, lists of ints).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
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


def _window_counts(s: Sequence, k: int, cyclic: bool = False) -> Counter:
    """Occurrences of each (k+1)-window, as a tuple, in order of first occurrence."""
    if k < 0:
        raise ValueError("context length must be >= 0")
    if cyclic:  # a linear scan with the string's cyclic last k characters in front
        n = len(s)
        s = [s[(j - k) % n] for j in range(k) if n] + list(s)
    return Counter(zip(*(islice(s, j, None) for j in range(k + 1))))


def context_stats(s: Sequence, k: int, cyclic: bool = False) -> ContextStats:
    """Count the characters that follow each length-k context.

    ``table`` lists contexts in order of their first occurrence, and each
    context's ``Counter`` lists its characters in order of their first
    occurrence after that context.
    """
    table: Dict[tuple, Counter] = defaultdict(Counter)
    for w, c in _window_counts(s, k, cyclic).items():
        table[w[:-1]][w[-1]] = c
    return ContextStats(k, dict(table), len(s))


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
    groups = defaultdict(list)  # plain count lists: a Counter per context costs more memory
    for w, c in _window_counts(s, k, cyclic).items():
        groups[w[:-1]].append(c)
    total = 0.0
    for counts in groups.values():
        m = sum(counts)
        total += sum(c * math.log2(m / c) for c in counts)
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
