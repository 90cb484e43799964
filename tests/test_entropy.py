import math
import random
from collections import Counter

import pytest

from conftest import oracle_context_stats, oracle_hk
from sbc.adversary import db_power, de_bruijn
from sbc.entropy import context_stats, entropy_report, h0, hk, superadditive_check


def brute_hk(s, k):
    """Straight evaluation of the weighted partition formula, coded separately."""
    n = len(s)
    followers = {}
    for i in range(k, n):
        followers.setdefault(tuple(s[i - k:i]), []).append(s[i])
    total = 0.0
    for chars in followers.values():
        m = len(chars)
        for ch in set(chars):
            c = chars.count(ch)
            total += c * math.log2(m / c)
    return total / n


def test_h0_single_symbol():
    assert h0("aaa") == 0.0


def test_h0_two_equiprobable():
    assert h0("ab") == 1.0


def test_h0_mississippi():
    assert abs(h0("mississippi") - 1.8230) < 1e-3


def test_h0_empty_rejected():
    with pytest.raises(ValueError):
        h0("")
    with pytest.raises(ValueError):
        hk("", 2)


def test_hk_order_zero_is_h0():
    rng = random.Random(1)
    for _ in range(50):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 60))]
        assert hk(s, 0) == h0(s)


def test_hk_mississippi_order_one():
    value = hk("mississippi", 1)
    assert abs(value - brute_hk("mississippi", 1)) < 1e-12
    assert abs(value - 0.795899) < 1e-4


def test_hk_matches_brute_force():
    rng = random.Random(2)
    for _ in range(100):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 50))]
        for k in range(4):
            assert abs(hk(s, k) - brute_hk(s, k)) < 1e-12


def test_context_stats_mass():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 80)
        s = [rng.randrange(4) for _ in range(n)]
        for k in range(3):
            stats = context_stats(s, k)
            assert sum(sum(c.values()) for c in stats.table.values()) == max(0, n - k)


def brute_cyclic_contexts(s, k):
    """Each character's cyclic context, read off enough copies of ``s`` laid end to end."""
    n = len(s)
    copies = list(s) * (k // max(n, 1) + 2)
    table = {}
    for j in range(len(copies) - n, len(copies)):
        table.setdefault(tuple(copies[j - k:j]), Counter())[copies[j]] += 1
    return table


def test_cyclic_context_stats_match_brute_force():
    rng = random.Random(7)
    cases = [("", 3), ("ab", 5), ("mississippi", 2), ("mississippi", 23), ([0, 1, 1], 0)]
    for _ in range(300):
        n = rng.randrange(0, 9)
        s = [rng.randrange(3) for _ in range(n)]
        cases.append((s if rng.randrange(2) else "".join("abc"[c] for c in s), rng.randrange(12)))
    for s, k in cases:
        stats = context_stats(s, k, cyclic=True)
        assert (stats.k, stats.n) == (k, len(s))
        assert stats.table == brute_cyclic_contexts(s, k), (s, k)


def test_window_counts_match_the_per_position_scan(corpus):
    rng = random.Random(8)
    cases = []
    for i in range(600):
        ranks = [rng.randrange(i % 6 + 1) for _ in range(rng.randrange(60))]
        cases.append((ranks, "".join("abcdef"[c] for c in ranks), bytes(ranks))[i % 3])
    cases = [(s, k) for s in cases for k in range(7)]
    cases += [(data, k) for data in corpus.values() for k in range(5)]
    for s, k in cases:
        for cyclic in (False, True):
            stats = context_stats(s, k, cyclic=cyclic)
            want = oracle_context_stats(s, k, cyclic=cyclic)
            assert (stats.k, stats.n) == (want.k, want.n)
            assert [(w, list(c.items())) for w, c in stats.table.items()] == \
                [(w, list(c.items())) for w, c in want.table.items()], (s, k, cyclic)
            if s:
                assert hk(s, k, cyclic=cyclic) == oracle_hk(s, k, cyclic=cyclic), (s, k, cyclic)


def test_deterministic_contexts_give_zero():
    for sigma, k in [(2, 1), (2, 3), (3, 2)]:
        d = de_bruijn(sigma, k)
        s = db_power(d, 4)
        assert hk(s, k, cyclic=True) == pytest.approx(0.0, abs=1e-12)
        assert hk(s, k) <= (k / len(s)) * math.log2(sigma) + 1e-12


def test_hk_nonincreasing_in_k():
    rng = random.Random(4)
    for _ in range(50):
        s = [rng.randrange(3) for _ in range(rng.randrange(5, 100))]
        values = [hk(s, k) for k in range(5)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9


def test_hk_bounded_by_log_sigma():
    rng = random.Random(5)
    for _ in range(50):
        s = [rng.randrange(4) for _ in range(rng.randrange(1, 100))]
        sigma = len(set(s))
        for k in range(4):
            assert -1e-12 <= hk(s, k) <= math.log2(max(sigma, 2)) + 1e-12


def test_superadditivity_trivial_cases():
    assert superadditive_check("ab", "ab", 0)
    assert superadditive_check("a", "b", 0)


def test_superadditivity_random_pairs():
    rng = random.Random(6)
    for _ in range(1000):
        a = [rng.randrange(3) for _ in range(rng.randrange(1, 40))]
        b = [rng.randrange(3) for _ in range(rng.randrange(1, 40))]
        assert superadditive_check(a, b, rng.randrange(4))


def test_entropy_report_shape():
    report = entropy_report("mississippi", 3)
    assert report.n == 11 and report.sigma == 4
    assert sorted(report.hk_by_k) == [0, 1, 2, 3]
    assert report.h0 == report.hk_by_k[0]
