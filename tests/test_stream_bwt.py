import hashlib
import math
import random
from itertools import product

import pytest

from conftest import faithful_tape_merge_sort, oracle_backward_sort, ranks_of, render
import sbc.stream_bwt
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

# Intermediate tape states for the running example, one tuple per record:
# (left char, left id, mid, right char, right id), "?" positions as None.
# Tie groups inside a round may be ordered arbitrarily, so comparisons
# canonicalize by sorting within equal-mid groups.
ENCODE_ROUND_1 = [
    ("i", 11, 1, "m", 1), ("m", 1, 2, "s", 3), ("s", 4, 2, "s", 6),
    ("s", 7, 2, "p", 9), ("p", 10, 2, "#", 12), ("#", 12, 3, "i", 2),
    ("i", 8, 4, "p", 10), ("p", 9, 4, "i", 11), ("i", 2, 5, "s", 4),
    ("s", 3, 5, "i", 5), ("i", 5, 5, "s", 7), ("s", 6, 5, "i", 8),
]
ENCODE_ROUND_2 = [
    ("p", 9, 1, "m", 1), ("i", 11, 2, "s", 3), ("i", 8, 3, "#", 12),
    ("i", 2, 4, "s", 6), ("i", 5, 4, "p", 9), ("p", 10, 5, "i", 2),
    ("s", 6, 6, "p", 10), ("s", 7, 7, "i", 11), ("#", 12, 8, "s", 4),
    ("s", 3, 9, "s", 7), ("m", 1, 10, "i", 5), ("s", 4, 10, "i", 8),
]
ENCODE_ROUND_3 = [
    ("i", 5, 1, "m", 1), ("s", 7, 2, "s", 3), ("s", 4, 3, "#", 12),
    ("p", 10, 4, "s", 6), ("m", 1, 5, "p", 9), ("s", 6, 6, "i", 2),
    ("i", 2, 7, "p", 10), ("s", 3, 8, "i", 11), ("i", 8, 9, "s", 4),
    ("i", 11, 10, "s", 7), ("p", 9, 11, "i", 5), ("#", 12, 12, "i", 8),
]
INVERT_ROUND_1 = [
    ("i", 8, 11, "m", 1), ("m", 1, None, "s", 2), ("p", 7, None, "#", 3),
    ("s", 9, None, "s", 4), ("s", 10, None, "p", 5), ("#", 3, 12, "i", 6),
    ("i", 12, None, "p", 7), ("p", 5, None, "i", 8), ("i", 6, None, "s", 9),
    ("i", 11, None, "s", 10), ("s", 2, None, "i", 11), ("s", 4, None, "i", 12),
]
INVERT_ROUND_2 = [
    ("p", 7, 10, "i", 6), ("#", 3, 12, "s", 9), ("p", 5, 9, "m", 1),
    ("s", 2, None, "s", 10), ("s", 4, None, "p", 7), ("i", 8, 11, "s", 2),
    ("s", 10, None, "i", 8), ("i", 12, None, "#", 3), ("m", 1, None, "i", 11),
    ("s", 9, None, "i", 12), ("i", 6, None, "s", 4), ("i", 11, None, "p", 5),
]
INVERT_ROUND_3 = [
    ("i", 12, 8, "s", 9), ("p", 7, 10, "s", 4), ("s", 10, 7, "s", 2),
    ("m", 1, None, "p", 5), ("s", 9, None, "#", 3), ("p", 5, 9, "i", 11),
    ("i", 11, 5, "m", 1), ("s", 4, 6, "i", 6), ("i", 8, 11, "s", 10),
    ("i", 6, None, "p", 7), ("#", 3, 12, "i", 12), ("s", 2, None, "i", 8),
]
INVERT_ROUND_4 = [
    ("s", 9, 4, "i", 12), ("s", 4, 6, "p", 7), ("s", 2, 3, "s", 10),
    ("p", 5, 9, "m", 1), ("#", 3, 12, "s", 9), ("i", 11, 5, "p", 5),
    ("m", 1, 1, "i", 11), ("i", 6, 2, "s", 4), ("s", 10, 7, "i", 8),
    ("p", 7, 10, "i", 6), ("i", 12, 8, "#", 3), ("i", 8, 11, "s", 2),
]


def named(triples):
    """Library triples (rank chars) to the letter form used in the tables."""
    def ch(c):
        return "#" if c == SENTINEL else MISSISSIPPI_ALPHABET[c]
    return [(ch(lc), lid, mid, ch(rc), rid) for lc, lid, mid, rc, rid in triples]


def canonical(rows):
    """Sort within equal-mid groups; arbitrary tie-break order is not contractual."""
    return sorted(rows, key=lambda r: (r[2] if r[2] is not None else 0, r[0], r[1]))


def test_encode_mississippi_final_string():
    out = rw_bwt_encode(MISSISSIPPI_RANKS)
    assert render(out, MISSISSIPPI_ALPHABET) == "ms#spipissii"


def test_encode_mississippi_round_tapes():
    rounds = []
    rw_bwt_encode(MISSISSIPPI_RANKS, on_round=lambda tr: rounds.append(named(tr)))
    expected = [ENCODE_ROUND_1, ENCODE_ROUND_2, ENCODE_ROUND_3]
    assert len(rounds) == len(expected)
    for got, want in zip(rounds, expected):
        assert canonical(got) == canonical(want)


def test_invert_mississippi_round_tapes():
    ranks, alphabet = ranks_of("mississippi")
    image = [alphabet.index(c) if c != "#" else SENTINEL for c in "ms#spipissii"]
    rounds = []
    out = rw_bwt_invert(image, on_round=lambda tr: rounds.append(named(tr)))
    assert out == ranks
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
    with pytest.raises(ValueError):
        rw_bwt_invert([0, 1, 0])  # no sentinel
    with pytest.raises(ValueError):
        rw_bwt_invert([SENTINEL, 0, SENTINEL])
    with pytest.raises(ValueError):
        rw_bwt_invert([0, SENTINEL, 0])


def test_round_count_bound():
    rng = random.Random(10)
    for n in [2**8, 2**10, 2**12]:
        bound = math.ceil(math.log2(n + 1))
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
    for n in [2**8, 2**10, 2**12]:
        machine = default_rw_machine(bytes(n))
        rw_bwt_encode([0] * n, machine)
        level = math.ceil(math.log2(n + 1))
        assert machine.ledger().passes <= a * level * level + b


def test_suffix_array_matches_context_sort():
    rng = random.Random(11)
    assert rw_suffix_array([0, 1]) == oracle_backward_sort([0, 1, SENTINEL])
    for length in range(0, 9):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            assert rw_suffix_array(s) == oracle_backward_sort(s + [SENTINEL])
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


def _traced_run(fn, arg):
    """Output, full ledger and trace lines of one run on the default machine."""
    machine = default_rw_machine(_machine_input(fn, arg))
    lines = []
    machine.trace = lines.append
    out = fn(arg, machine)
    return out, machine.ledger(), lines


def test_rw_runs_match_faithful_merge_sort(monkeypatch):
    rng = random.Random(500)
    for s in (MISSISSIPPI_RANKS, [rng.randrange(6) for _ in range(500)]):
        t = bwt(s)
        runs = [_traced_run(fn, arg) for fn, arg in ((rw_bwt_encode, s), (rw_bwt_invert, t))]
        with monkeypatch.context() as patch:
            patch.setattr(sbc.stream_bwt, "tape_merge_sort", faithful_tape_merge_sort)
            oracle_runs = [_traced_run(fn, arg) for fn, arg in ((rw_bwt_encode, s), (rw_bwt_invert, t))]
        assert runs == oracle_runs
        assert runs[0][0] == t and runs[1][0] == s


# Ledgers of the read-write runs, pinned: passes, peak charged bits, output
# bits, then the count, sum and sha256 of per_pass_tape_bits (comma-joined)
# and the sha256 of the newline-joined trace lines.  A change that moves any
# of them changes what the machine charges and must say why.  The trace
# hashes were computed after passes were numbered in the order they close.
GOLDEN_LEDGERS = {
    ("mississippi", "rw_bwt_encode"): (
        243, 2496, 96, 243, 275224,
        "747b693d79524dee240a8c32f31d184699874a3bcaaf4cc750ec0ebb068fef49",
        "3c73a5ed40a5fc828b9306a18551f522efca661712f7bb3caff528b11cac6cf6",
    ),
    ("mississippi", "rw_bwt_invert"): (
        270, 2496, 88, 270, 237312,
        "ed4f3c980f6a57e1298e488fce6836a399370563615a6da19e63d2710acc7093",
        "cecaed4e1405adf126b2239c4cedf4665779cca0d4c61b5ef9dacc0857a8a1f6",
    ),
    ("mississippi", "rw_suffix_array"): (
        243, 2496, 384, 243, 275224,
        "747b693d79524dee240a8c32f31d184699874a3bcaaf4cc750ec0ebb068fef49",
        "3c73a5ed40a5fc828b9306a18551f522efca661712f7bb3caff528b11cac6cf6",
    ),
    ("random300", "rw_bwt_encode"): (
        683, 2496, 2408, 683, 19006336,
        "2151d5f93eba78b33cfc28bcdf49e84f77441ec0ba1da2b777c986bfda60fe5e",
        "3a67a13d07b7acc0afe716e6244d42d41a9fa431eccbaefb81d3f87775a5522b",
    ),
    ("random300", "rw_bwt_invert"): (
        1140, 2496, 2400, 1140, 25409216,
        "faf040a4d5d797a446ec9b86cc24c556cc805b71b2d175081ba15779c34873c4",
        "74e00bbccb127c08a03612df1c80815aad3e1c8d0f37bc0bddcd05fc55ccbf21",
    ),
    ("random300", "rw_suffix_array"): (
        683, 2496, 9632, 683, 19006336,
        "2151d5f93eba78b33cfc28bcdf49e84f77441ec0ba1da2b777c986bfda60fe5e",
        "3a67a13d07b7acc0afe716e6244d42d41a9fa431eccbaefb81d3f87775a5522b",
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
