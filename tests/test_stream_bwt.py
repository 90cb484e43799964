import hashlib
import math
import random
from bisect import bisect_left
from itertools import product

import pytest

from conftest import faithful_tape_merge_sort, oracle_backward_sort, ranks_of, render
import sbc.stream_bwt
from sbc.adversary import db_power, de_bruijn
from sbc.machine import CapabilityError, Machine, MachineConfig, ModelKind
from sbc.stream_bwt import (
    default_rw_machine,
    rw_bwt_encode,
    rw_bwt_invert,
    rw_suffix_array,
    sort_chars_via_bwt,
    sort_numbers_via_bwt,
)
from sbc.transforms import SENTINEL, bwt, bwt_inverse

MISSISSIPPI_RANKS, MISSISSIPPI_ALPHABET = ranks_of("mississippi")

# Intermediate tape states for the running example.  Encode rounds: one
# (position, rank, next char) tuple per record, in tape (position) order;
# the rank is one plus the number of positions whose backward string is
# smaller.  Invert rounds: one (row, position, char) tuple per record, in
# row order, the position None while the record is pending.
ENCODE_ROUND_1 = [
    (0, 6, "i"), (1, 2, "s"), (2, 9, "s"), (3, 11, "i"), (4, 4, "s"), (5, 9, "s"),
    (6, 11, "i"), (7, 4, "p"), (8, 7, "p"), (9, 8, "i"), (10, 3, "#"), (11, 1, "m"),
]
ENCODE_ROUND_2 = [
    (0, 6, "i"), (1, 2, "s"), (2, 9, "s"), (3, 11, "i"), (4, 4, "s"), (5, 10, "s"),
    (6, 12, "i"), (7, 4, "p"), (8, 7, "p"), (9, 8, "i"), (10, 3, "#"), (11, 1, "m"),
]
ENCODE_ROUND_3 = [
    (0, 6, "i"), (1, 2, "s"), (2, 9, "s"), (3, 11, "i"), (4, 4, "s"), (5, 10, "s"),
    (6, 12, "i"), (7, 5, "p"), (8, 7, "p"), (9, 8, "i"), (10, 3, "#"), (11, 1, "m"),
]
INVERT_ROUND_1 = [
    (0, 0, "m"), (1, None, "s"), (2, None, "#"), (3, None, "s"),
    (4, None, "p"), (5, 1, "i"), (6, None, "p"), (7, None, "i"),
    (8, None, "s"), (9, None, "s"), (10, None, "i"), (11, None, "i"),
]
INVERT_ROUND_2 = [
    (0, 0, "m"), (1, 2, "s"), (2, None, "#"), (3, None, "s"),
    (4, None, "p"), (5, 1, "i"), (6, None, "p"), (7, None, "i"),
    (8, 3, "s"), (9, None, "s"), (10, None, "i"), (11, None, "i"),
]
INVERT_ROUND_3 = [
    (0, 0, "m"), (1, 2, "s"), (2, None, "#"), (3, 5, "s"),
    (4, None, "p"), (5, 1, "i"), (6, None, "p"), (7, None, "i"),
    (8, 3, "s"), (9, 6, "s"), (10, 4, "i"), (11, 7, "i"),
]
INVERT_ROUND_4 = [
    (0, 0, "m"), (1, 2, "s"), (2, 11, "#"), (3, 5, "s"),
    (4, 8, "p"), (5, 1, "i"), (6, 9, "p"), (7, 10, "i"),
    (8, 3, "s"), (9, 6, "s"), (10, 4, "i"), (11, 7, "i"),
]


def _letter(c):
    return "#" if c == SENTINEL else MISSISSIPPI_ALPHABET[c]


def named(rows):
    """Library rows (rank chars) to the letter form used in the tables."""
    return [(a, b, _letter(c)) for a, b, c in rows]


def test_encode_mississippi_final_string():
    out = rw_bwt_encode(MISSISSIPPI_RANKS)
    assert render(out, MISSISSIPPI_ALPHABET) == "ms#spipissii"


def test_encode_mississippi_round_tapes():
    rounds = []
    rw_bwt_encode(MISSISSIPPI_RANKS, on_round=lambda rows: rounds.append(named(rows)))
    assert rounds == [ENCODE_ROUND_1, ENCODE_ROUND_2, ENCODE_ROUND_3]


def test_invert_mississippi_round_tapes():
    image = [MISSISSIPPI_ALPHABET.index(c) if c != "#" else SENTINEL for c in "ms#spipissii"]
    rounds = []
    out = rw_bwt_invert(image, on_round=lambda rows: rounds.append(named(rows)))
    assert out == MISSISSIPPI_RANKS
    assert rounds == [INVERT_ROUND_1, INVERT_ROUND_2, INVERT_ROUND_3, INVERT_ROUND_4]


def test_empty_string():
    assert rw_bwt_encode([]) == [SENTINEL]
    assert rw_bwt_invert([SENTINEL]) == []
    assert rw_suffix_array([]) == [0]


RW_RUNS = [rw_bwt_encode, rw_suffix_array, rw_bwt_invert]


def _machine_input(fn, arg):
    """The input tape of fn's default machine for argument arg."""
    return bytes(c + 1 for c in arg) if fn is rw_bwt_invert else bytes(arg)


@pytest.mark.parametrize("fn", RW_RUNS, ids=lambda fn: fn.__name__)
def test_requires_read_write_model(fn):
    arg = bwt([0, 1]) if fn is rw_bwt_invert else [0, 1]
    data = _machine_input(fn, arg)
    for config in (MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=1 << 16),
                   MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=1 << 16, work_tapes=3)):
        with pytest.raises(CapabilityError):
            fn(arg, Machine(config, data))
    with pytest.raises(ValueError, match="machine input does not match"):
        fn(arg, default_rw_machine(data + b"\x01"))


def test_working_charge_released():
    # Charging the whole budget succeeds only if the run left nothing held.
    for fn in RW_RUNS:
        arg = bwt(MISSISSIPPI_RANKS) if fn is rw_bwt_invert else MISSISSIPPI_RANKS
        machine = default_rw_machine(_machine_input(fn, arg))
        fn(arg, machine)
        machine.charge_memory(machine.config.memory_budget_bits)
    bad = [0, SENTINEL, 0]
    machine = default_rw_machine(_machine_input(rw_bwt_invert, bad))
    with pytest.raises(ValueError, match="positions never resolve"):
        rw_bwt_invert(bad, machine)
    machine.charge_memory(machine.config.memory_budget_bits)


def test_exhaustive_small_equivalence():
    for length in range(0, 11):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            t = bwt(s)
            assert rw_bwt_encode(s) == t
            assert rw_bwt_invert(t) == s


def test_random_equivalence_and_roundtrip():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randrange(0, 512)
        s = [rng.randrange(4) for _ in range(n)]
        t = rw_bwt_encode(s)
        assert t == bwt(s)
        assert rw_bwt_invert(t) == s
        assert bwt_inverse(t) == s


def test_invert_rejects_non_images():
    with pytest.raises(ValueError, match="^expected exactly one sentinel$"):
        rw_bwt_invert([0, 1, 0])  # no sentinel
    with pytest.raises(ValueError, match="^expected exactly one sentinel$"):
        rw_bwt_invert([SENTINEL, 0, SENTINEL])
    with pytest.raises(ValueError, match="positions never resolve"):
        rw_bwt_invert([0, SENTINEL, 0])
    # With one sentinel, the inverse refuses exactly what bwt_inverse refuses.
    rng = random.Random(16)
    for _ in range(1000):
        t = [rng.randrange(3) for _ in range(rng.randrange(0, 16))]
        t.insert(rng.randrange(len(t) + 1), SENTINEL)
        try:
            expected = bwt_inverse(t)
        except ValueError:
            with pytest.raises(ValueError, match="positions never resolve"):
                rw_bwt_invert(t)
        else:
            assert rw_bwt_invert(t) == expected


def test_round_count_bound():
    # Backward strings of length n are unique, so ceil(log2 n) rounds suffice.
    rng = random.Random(10)
    for n in [2**8, 2**10, 2**12]:
        bound = math.ceil(math.log2(n))
        for s in ([0] * n, [rng.randrange(2) for _ in range(n)]):
            rounds = []
            rw_bwt_encode(s, on_round=lambda tr: rounds.append(1))
            assert len(rounds) <= bound
        # the one-letter string needs full context length, hence every round
        rounds = []
        rw_bwt_encode([0] * n, on_round=lambda tr: rounds.append(1))
        assert len(rounds) == bound


def test_pass_count_shape(calibration):
    a = calibration["rw_pass_a"]
    b = calibration["rw_pass_b"]
    for n in [2**8, 2**9, 2**10, 2**11, 2**12]:
        machine = default_rw_machine(bytes(n))
        rw_bwt_encode([0] * n, machine)
        level = math.ceil(math.log2(n + 1))
        assert machine.ledger().passes <= a * level * level + b
        # Exactly: two passes load the tape; each of the ceil(log2 n) rounds
        # copies (2), joins (3), renumbers (2) and merges (3), and sorts its
        # pending records by pair and back by position (6 per level each);
        # one sort by rank and one output pass end the run.  Round 1 joins
        # all n+1 records, round r the n - 2^(r-1) + 1 whose all-zero
        # backward string of length 2^(r-1) does not reach the sentinel.
        rounds = math.ceil(math.log2(n))
        pending = [n + 1] + [n - 2 ** (r - 1) + 1 for r in range(2, rounds + 1)]
        sort_levels = sum(math.ceil(math.log2(u)) for u in pending)
        assert machine.ledger().passes == 3 + 10 * rounds + 12 * sort_levels + 6 * level


def test_invert_pass_count_is_closed_form():
    # Every image of one length takes the same passes: two load the
    # transform, a stable sort by char and three passes seed the links; each
    # of the ceil(log2 m) rounds copies out (2), joins (3) and merges (3) its
    # m - 2^(r-1) pending records, and sorts them by link and back by tag (6
    # per level each); one sort by position and one output pass end the run.
    def levels(u):
        return (u - 1).bit_length()

    rng = random.Random(15)
    for n in [0, 1, 2, 11, 100, 255, 256, 300, 1000]:
        m = n + 1
        rounds = levels(m)
        expected = (6 + 12 * levels(m) + 8 * rounds
                    + 12 * sum(levels(m - 2 ** r) for r in range(rounds)))
        for sigma in (1, 2, 5):
            s = [rng.randrange(sigma) for _ in range(n)]
            _, ledger, _ = _traced_run(rw_bwt_invert, bwt(s))
            assert ledger.passes == expected, (n, sigma)


def test_suffix_array_matches_context_sort():
    rng = random.Random(11)
    assert rw_suffix_array([0, 1]) == oracle_backward_sort([0, 1, SENTINEL])
    # Every ternary string up to length 8 puts the sentinel at every offset
    # from the lagged join's zero partners.
    for length in range(0, 9):
        for chars in product(range(3), repeat=length):
            extended = list(chars) + [SENTINEL]
            order = oracle_backward_sort(extended)
            assert rw_suffix_array(chars) == order
            assert rw_bwt_encode(chars) == [extended[i] for i in order]
    for _ in range(50):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 64))]
        assert rw_suffix_array(s) == oracle_backward_sort(s + [SENTINEL])


def test_suffix_array_agrees_with_transform():
    rng = random.Random(12)
    for _ in range(50):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 64))]
        extended = s + [SENTINEL]
        assert [extended[i] for i in rw_suffix_array(s)] == rw_bwt_encode(s)


def test_sort_chars_examples():
    assert sort_chars_via_bwt([2, 1, 0]) == [0, 1, 2]
    assert sort_chars_via_bwt([0, 0, 0]) == [0, 0, 0]
    assert sort_chars_via_bwt([]) == []
    # Symbols below the end marker's rank: the start symbol goes below them.
    assert sort_chars_via_bwt([-3, 2, -3]) == [-3, -3, 2]
    assert sort_chars_via_bwt([0, -1]) == [-1, 0]
    # 256 distinct characters make more than 255 distinct pairs.
    assert sort_chars_via_bwt(list(range(256)) * 2) == sorted(list(range(256)) * 2)


def test_sort_chars_random():
    rng = random.Random(13)
    for _ in range(1000):
        s = [rng.randrange(5) for _ in range(rng.randrange(0, 60))]
        assert sort_chars_via_bwt(s) == sorted(s)


def test_sort_numbers_examples():
    assert sort_numbers_via_bwt([3, 1, 2, 0]) == [0, 1, 2, 3]
    assert sort_numbers_via_bwt([0, 1, 2, 3]) == [0, 1, 2, 3]


def test_sort_numbers_random():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.choice([4, 8, 16])
        xs = [rng.randrange(n * n) for _ in range(n)]
        assert sort_numbers_via_bwt(xs) == sorted(xs)


def test_sort_numbers_validates():
    with pytest.raises(ValueError):
        sort_numbers_via_bwt([1, 2, 3])  # not a power of two
    with pytest.raises(ValueError):
        sort_numbers_via_bwt([16, 0, 0, 0])  # too wide for 2*log2(n) bits


def _traced_run(fn, arg, on_round=None):
    """Output, full ledger and trace lines of one run on the default machine."""
    machine = default_rw_machine(_machine_input(fn, arg))
    lines = []
    machine.trace = lines.append
    out = fn(arg, machine) if on_round is None else fn(arg, machine, on_round=on_round)
    return out, machine.ledger(), lines


# A de Bruijn power takes the most doubling rounds (the benchmark's
# `repetitive` input is one).  Its round tapes are pinned by sha256 of their
# repr.
DEEPEST = db_power(de_bruijn(2, 6), 2)
DEEPEST_ROUNDS = {
    "rw_bwt_encode": (7, "faebdb44f5680e3aea806a43b6914bf7fb19ba48b7cb60fd70f5c0fbf1d42c58"),
    "rw_bwt_invert": (8, "83f76d2d86bd28512b406dbab28cd30e6e154425bc96b3018465c1b92eb70532"),
}


def test_rw_runs_match_faithful_merge_sort(monkeypatch):
    rng = random.Random(500)
    for s in (MISSISSIPPI_RANKS, [rng.randrange(6) for _ in range(500)], DEEPEST):
        t = bwt(s)

        def traced_runs():
            """Per direction: output, ledger, trace lines and every round's tape."""
            runs = []
            for fn, arg in ((rw_bwt_encode, s), (rw_bwt_invert, t)):
                rounds = []
                runs.append((*_traced_run(fn, arg, rounds.append), rounds))
            return runs

        runs = traced_runs()
        with monkeypatch.context() as patch:
            patch.setattr(sbc.stream_bwt, "tape_merge_sort", faithful_tape_merge_sort)
            oracle_runs = traced_runs()
        assert runs == oracle_runs
        assert runs[0][0] == t and runs[1][0] == s
        if s is DEEPEST:
            got = {fn.__name__: (len(run[3]), hashlib.sha256(repr(run[3]).encode()).hexdigest())
                   for fn, run in zip((rw_bwt_encode, rw_bwt_invert), runs)}
            assert got == DEEPEST_ROUNDS


def backward_rank_rounds(s):
    """Every encode round's tape straight from the definition.

    After round r the rank of position i is one plus the number of positions
    whose cyclic backward string x[j] x[j-1] ... of length 2**r, x =
    s+sentinel, is smaller than position i's; rows are (position, rank, next
    char), in position order.  Rounds go on until every rank is distinct.
    """
    x = list(s) + [SENTINEL]
    m = len(x)
    rounds, length = [], 1
    while not rounds or len({rank for _, rank, _ in rounds[-1]}) < m:
        length *= 2
        strings = [tuple(x[(i - j) % m] for j in range(length)) for i in range(m)]
        ordered = sorted(strings)
        rounds.append([(i, 1 + bisect_left(ordered, strings[i]), x[(i + 1) % m]) for i in range(m)])
    return rounds


def test_encode_round_tapes_match_backward_string_ranks():
    rng = random.Random(12)
    inputs = [[], [0], MISSISSIPPI_RANKS, DEEPEST, [rng.randrange(3) for _ in range(200)]]
    for s in inputs:
        rounds = []
        rw_bwt_encode(s, on_round=rounds.append)
        assert rounds == backward_rank_rounds(s)


def resolved_position_rounds(s):
    """Every invert round's tape straight from the definition.

    Row j of the transform of x = s+sentinel holds the char x[p(j)], where
    p(j) is the position whose cyclic backward context x[p-1] x[p-2] ...
    sorts j-th.  After round r the row shows p(j) if p(j) < 2**r and None
    otherwise; rows are (row, position, char), in row order.  Rounds go on
    until 2**r reaches m.
    """
    x = list(s) + [SENTINEL]
    m = len(x)
    order = oracle_backward_sort(x)
    return [[(j, p if p < 2 ** r else None, x[p]) for j, p in enumerate(order)]
            for r in range(1, (m - 1).bit_length() + 1)]


def test_invert_round_tapes_match_resolved_positions():
    rng = random.Random(13)
    inputs = [[], [0], MISSISSIPPI_RANKS, DEEPEST, [rng.randrange(3) for _ in range(200)]]
    for s in inputs:
        rounds = []
        assert rw_bwt_invert(bwt(s), on_round=rounds.append) == s
        assert rounds == resolved_position_rounds(s)


# Ledgers of the read-write runs, pinned: passes, peak charged bits, output
# bits, then the count, sum and sha256 of per_pass_tape_bits (comma-joined)
# and the sha256 of the newline-joined trace lines.  A change that moves any
# of them changes what the machine charges and must say why.  The trace
# hashes were computed after passes were numbered in the order they close.
GOLDEN_LEDGERS = {
    ("mississippi", "rw_bwt_encode"): (
        153, 2496, 96, 153, 92056,
        "dfdb9e32ca9f73f4453f57e26ce165c6bf9317210e4ef29d77a8bb7a8c401c94",
        "c40daacccd486fe504e3c44a5cb14e17025dde2bdaf36e21d03e9f8beb84a3fd",
    ),
    ("mississippi", "rw_bwt_invert"): (
        242, 2496, 88, 242, 126272,
        "8ce9f5c555ec46935da6dec03e61910ace19fbf1e622efc994c2ab0c746c7ee8",
        "153d326d5d79328a44029b1987ceba7b2495fad95bc7e39a6a077626f4f3ff01",
    ),
    ("mississippi", "rw_suffix_array"): (
        153, 2496, 384, 153, 92056,
        "dfdb9e32ca9f73f4453f57e26ce165c6bf9317210e4ef29d77a8bb7a8c401c94",
        "c40daacccd486fe504e3c44a5cb14e17025dde2bdaf36e21d03e9f8beb84a3fd",
    ),
    ("random300", "rw_bwt_encode"): (
        399, 2496, 2408, 399, 6803536,
        "b27c307721d40b48c5723c3da5eb9e667c5fef2dced0f86d74703bb50f576d7e",
        "78045916207cb8513ac2bba4ebfda70a866a8afc3fe0520e945a4605916230da",
    ),
    ("random300", "rw_bwt_invert"): (
        1098, 2496, 2400, 1098, 15259296,
        "a035a975674671999c3ea538df6c444c091c5918666c20c25865447231b52da3",
        "7e2ab453444493890fb1f9a3c67b9ab770074ccb63a09ddafd908afc6ef6fb69",
    ),
    ("random300", "rw_suffix_array"): (
        399, 2496, 9632, 399, 6803536,
        "b27c307721d40b48c5723c3da5eb9e667c5fef2dced0f86d74703bb50f576d7e",
        "78045916207cb8513ac2bba4ebfda70a866a8afc3fe0520e945a4605916230da",
    ),
}


def test_rw_ledgers_are_pinned():
    rng = random.Random(300)
    inputs = {"mississippi": MISSISSIPPI_RANKS, "random300": [rng.randrange(4) for _ in range(300)]}
    got = {}
    for name, s in inputs.items():
        for fn, arg in ((rw_bwt_encode, s), (rw_bwt_invert, bwt(s)), (rw_suffix_array, s)):
            _, led, lines = _traced_run(fn, arg)
            bits = led.per_pass_tape_bits
            got[name, fn.__name__] = (
                led.passes, led.peak_memory_bits, led.total_output_bits, len(bits), sum(bits),
                hashlib.sha256(",".join(map(str, bits)).encode()).hexdigest(),
                hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            )
    assert got == GOLDEN_LEDGERS
