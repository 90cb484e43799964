import random
from itertools import product

import pytest

from conftest import (
    delta_code,
    doubling_bwt,
    oracle_bwt,
    oracle_dc_encode,
    oracle_dc_reconstruct,
    oracle_st,
    ranks_of,
    render,
)
from sbc import transforms
from sbc.adversary import db_power, de_bruijn
from sbc.coders import FreqModel, SymbolDecoder, SymbolEncoder, kth_order_encode
from sbc.entropy import h0
from sbc.pipelines import _mtf_rle_ac_decode, _mtf_rle_ac_payload
from sbc.stream_st import streamsort_st
from sbc.transforms import (
    SENTINEL,
    _dc_reconstruct,
    _suffix_array,
    bwt,
    bwt_inverse,
    dc_encode,
    mtf_encode,
    st,
)


def test_bwt_mississippi():
    ranks, alphabet = ranks_of("mississippi")
    assert render(bwt(ranks), alphabet) == "ms#spipissii"


def test_bwt_empty():
    assert bwt([]) == [SENTINEL]
    assert bwt_inverse([SENTINEL]) == []


def test_bwt_rejects_bad_symbols():
    with pytest.raises(ValueError):
        bwt([0, 1, 2], sigma=2)
    with pytest.raises(ValueError):
        bwt([-1])


def test_alphabet_check_names_the_first_symbol_out_of_alphabet():
    s = [0, 1, 7, -1]
    for run in (lambda: bwt(s, 3), lambda: st(s, 2, 3), lambda: streamsort_st(s, 1, sigma=3),
                lambda: kth_order_encode(s, 3, 2), lambda: dc_encode(s, 3)):
        with pytest.raises(ValueError, match="^symbol 7 out of alphabet$"):
            run()


def test_bwt_matches_definition_exhaustively():
    for length in range(0, 11):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            out = bwt(s)
            assert sorted(out) == sorted(s + [SENTINEL])  # permutation
            assert out == oracle_bwt(s)


def fibonacci_word(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse_word(n):
    return [bin(i).count("1") & 1 for i in range(n)]


def test_suffix_array_matches_slice_sort():
    rng = random.Random(8)
    for _ in range(3000):
        w = [rng.randrange(rng.choice([1, 2, 3, 5])) for _ in range(rng.randrange(0, 16))]
        assert _suffix_array(w, max(w, default=0)) == sorted(range(len(w)), key=lambda i: w[i:])


def test_bwt_matches_definition_up_to_300():
    rng = random.Random(9)
    for n in list(range(0, 12)) + [rng.randrange(12, 301) for _ in range(20)] + [300]:
        s = [rng.randrange(rng.choice([1, 2, 3, 52])) for _ in range(n)]
        assert bwt(s) == oracle_bwt(s)


def test_bwt_matches_doubling_on_random_inputs():
    rng = random.Random(10)
    for sigma in (1, 2, 3, 52, 254):
        for n in [rng.randrange(0, 4097) for _ in range(3)] + [4096]:
            s = [rng.randrange(sigma) for _ in range(n)]
            assert bwt(s) == doubling_bwt(s)


def test_bwt_matches_doubling_on_repetitive_inputs(monkeypatch):
    inner = transforms._suffix_array
    depth = [0, 0]  # current, deepest

    def counted(w, upper):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return inner(w, upper)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(transforms, "_suffix_array", counted)
    for n in (1, 2, 7, 64, 1000):
        assert bwt([0] * n) == doubling_bwt([0] * n)
    for sigma, k, power in ((2, 6, 8), (3, 4, 5), (4, 3, 2)):
        s = db_power(de_bruijn(sigma, k), power)
        assert bwt(s) == doubling_bwt(s)
    for word in (fibonacci_word, thue_morse_word):
        for n in (100, 4096):
            depth[1] = 0
            s = word(n)
            assert bwt(s) == doubling_bwt(s)
            assert depth[1] >= 3  # the sorter recursed at least two levels


def test_bwt_inverse_mississippi():
    ranks, alphabet = ranks_of("mississippi")
    image = [alphabet.index(c) if c != "#" else SENTINEL for c in "ms#spipissii"]
    assert bwt_inverse(image) == ranks


def test_bwt_roundtrip_exhaustive():
    for length in range(0, 13):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            assert bwt_inverse(bwt(s)) == s
    for length in range(0, 9):
        for trits in product(range(3), repeat=length):
            s = list(trits)
            assert bwt_inverse(bwt(s)) == s


def test_bwt_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        bwt_inverse([0, 1])  # no sentinel
    with pytest.raises(ValueError):
        bwt_inverse([SENTINEL, 0, SENTINEL])
    with pytest.raises(ValueError):
        bwt_inverse([0, SENTINEL, 0])  # short matching cycle


def test_bwt_preserves_h0():
    rng = random.Random(1)
    for _ in range(40):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 60))]
        assert h0(bwt(s)) == pytest.approx(h0(s + [SENTINEL]), abs=1e-12)


def test_st_order_zero_is_identity():
    rng = random.Random(2)
    for _ in range(30):
        s = [rng.randrange(4) for _ in range(rng.randrange(0, 40))]
        assert st(s, 0) == s + [SENTINEL]


def test_st_matches_brute_force():
    rng = random.Random(3)
    ranks, _ = ranks_of("mississippi")
    assert st(ranks, 2) == oracle_st(ranks, 2)
    for _ in range(100):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 40))]
        for k in range(5):
            assert st(s, k) == oracle_st(s, k)
    # Wider alphabets pack into bigger bases, and sigma=None packs in base
    # 256, which rank 254 (the largest allowed) fills.  Inputs shorter than
    # k wrap the context through the marker more than once; k >= m takes
    # the full-order path.
    assert st([1, 254, 0], 2) == oracle_st([1, 254, 0], 2)  # digit 255 must not carry
    for sigma in (2, 5, 52, 250, 255):
        for _ in range(60):
            s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 30))]
            m = len(s) + 1
            for k in sorted({0, 1, 2, 3, m - 1, m, m + 3}):
                expected = oracle_st(s, k)
                assert st(s, k, sigma) == expected, (sigma, s, k)
                assert st(s, k) == expected, (s, k)


def test_st_with_long_contexts_equals_bwt():
    rng = random.Random(4)
    for _ in range(50):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 24))]
        assert st(s, len(s) + 1) == bwt(s)
        # Beyond the string's length the cost no longer grows with k.
        assert st(s, 10**9, 3) == bwt(s)


def test_mtf_examples():
    assert mtf_encode("aaaa", ["a", "b"]) == [0, 0, 0, 0]
    assert mtf_encode("abc", ["a", "b", "c"]) == [0, 1, 2]


def test_mtf_roundtrip_random():
    # The bwt-mtf-rle-ac payload coder runs mtf_encode, and its decoder holds
    # the one inverse of move-to-front.
    rng = random.Random(5)
    for _ in range(1000):
        sigma = rng.randrange(1, 6)
        s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 30))]
        assert _mtf_rle_ac_decode(_mtf_rle_ac_payload(s, sigma), len(s), sigma) == s


def reconstruct(stream, n):
    """Run the live distance decoder on a stream; it must use up every gap."""
    first, gaps = stream
    gaps = iter(gaps)
    out = _dc_reconstruct(first, n, lambda: next(gaps, None))
    assert next(gaps, None) is None
    return out


def test_dc_single_run():
    assert dc_encode([0] * 4, 1) == ([0], [0])
    assert reconstruct(([0], [0]), 4) == [0] * 4


def test_dc_alternating():
    stream = dc_encode([0, 1, 0, 1], 2)
    assert stream == ([0, 1], [2, 2, 0, 0])
    assert reconstruct(stream, 4) == [0, 1, 0, 1]


def test_dc_absent_ranks_start_no_run():
    # Ranks below sigma that never occur keep None and are never pending.
    stream = dc_encode([2, 2, 0, 2], 5)
    assert stream == ([2, None, 0, None, None], [2, 0, 0])
    assert reconstruct(stream, 4) == [2, 2, 0, 2]


def test_dc_empty_string():
    for sigma in (1, 3):
        assert dc_encode([], sigma) == ([None] * sigma, [])
        assert reconstruct(([None] * sigma, []), 0) == []


def test_dc_gaps_never_one():
    rng = random.Random(7)
    for _ in range(300):
        s = [rng.randrange(3) for _ in range(rng.randrange(0, 50))]
        stream = dc_encode(s, 3)
        assert 1 not in stream[1]
        assert reconstruct(stream, len(s)) == s


def test_dc_roundtrip_exhaustive():
    for length in range(0, 11):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            assert reconstruct(dc_encode(s, 2), length) == s
    for length in range(0, 8):
        for trits in product(range(3), repeat=length):
            s = list(trits)
            assert reconstruct(dc_encode(s, 3), length) == s


def test_dc_encode_matches_per_character_oracle():
    rng = random.Random(13)
    cases = [([], 1), ([], 3), ([4] * 9, 5), (list(range(12)), 12),
             (list(range(12))[::-1], 15), ([1], 2)]
    for _ in range(400):
        sigma = rng.randrange(1, 8)
        s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 60))]
        cases.append((s, rng.choice([sigma, sigma + 3])))
    for _ in range(400):  # a subset of the ranks in use, the rest absent
        sigma = rng.randrange(1, 9)
        used = rng.sample(range(sigma), rng.randrange(1, sigma + 1))
        cases.append(([rng.choice(used) for _ in range(rng.randrange(0, 40))], sigma))
    for s, sigma in cases:
        assert dc_encode(s, sigma) == oracle_dc_encode(s, sigma), (s, sigma)


def test_dc_encode_names_the_first_symbol_out_of_alphabet():
    for s, sigma, bad in (([0, 5, 7], 3, 5), ([7, 0, 5], 3, 7), ([0, 3, 1], 3, 3),
                          ([2, -1, 5], 3, -1), ([1, 1, 1], 1, 1)):
        for encode in (dc_encode, oracle_dc_encode):
            with pytest.raises(ValueError, match=f"^symbol {bad} out of alphabet$"):
                encode(s, sigma)


def test_dc_decode_rejects_malformed():
    with pytest.raises(ValueError):
        reconstruct(([0], [1]), 3)  # gap of one is impossible
    with pytest.raises(ValueError):
        reconstruct(([0, 0], [0, 0]), 2)  # colliding positions
    with pytest.raises(ValueError):
        reconstruct(([0], [5]), 2)  # gap past the end
    with pytest.raises(ValueError):
        reconstruct(([1], [0]), 2)  # nothing starts the string
    with pytest.raises(ValueError):
        reconstruct(([0, 2], [0]), 2)  # first occurrence out of range


def dc_outcome(decode, first, n, gaps):
    """What a distance decoder makes of a stream: its result or error, and its gap reads."""
    source = iter(gaps)
    reads = []

    def next_gap():
        reads.append(next(source, None))
        return reads[-1]

    try:
        return decode(list(first), n, next_gap), reads
    except ValueError as exc:
        return str(exc), reads


def _runs(s):
    """Maximal runs of s as (rank, start, end) with end inclusive."""
    runs = []
    for i, c in enumerate(s):
        if runs and runs[-1][0] == c:
            runs[-1] = (c, runs[-1][1], i)
        else:
            runs.append((c, i, i))
    return runs


def _set(first, rank, pos):
    """A copy of the first-occurrence list with one entry replaced."""
    first = list(first)
    first[rank] = pos
    return first


def dc_mutations(rng, s, first, gaps):
    """Malformed variants (first occurrences, length, gaps) of a valid stream."""
    n = len(s)
    present = [r for r, pos in enumerate(first) if pos is not None]
    absent = [r for r, pos in enumerate(first) if pos is None]
    out = []
    if gaps:
        j = rng.randrange(len(gaps))
        out.append((first, n, gaps[:j] + [1] + gaps[j + 1:]))  # a gap of 1
        out.append((first, n, gaps[:j] + [n + rng.randrange(3)] + gaps[j + 1:]))  # past the end
        out.append((first, n, gaps[:j] + [-2] + gaps[j + 1:]))
        out.append((first, n, gaps[:j]))  # the gap source runs dry
    if len(present) >= 2:  # two first occurrences collide
        a, b = rng.sample(present, 2)
        out.append((_set(first, a, first[b]), n, gaps))
    if present:  # no owner at position 0
        out.append((_set(first, s[0], None), n, gaps))
        out.append((_set(first, s[0], rng.randrange(n)), n, gaps))
    if absent and n:  # a rank that never occurs is left pending
        out.append((_set(first, rng.choice(absent), rng.randrange(n)), n, gaps))
    if n:
        out.append((first, n - 1, gaps))
    # A gap landing on another rank's pending position: the next run of
    # another rank after run j is exactly what is pending for it there.
    runs = _runs(s)
    for j, (sym, _, end) in enumerate(runs):
        later = {}
        for other, start, _ in runs[j + 1:]:
            later.setdefault(other, start)
        targets = [start for other, start in later.items() if other != sym and start >= end + 2]
        if targets:
            out.append((first, n, gaps[:j] + [rng.choice(targets) - end] + gaps[j + 1:]))
    return out


def test_dc_reconstruct_matches_scan_oracle():
    rng = random.Random(12)
    malformed = 0
    for _ in range(1500):
        sigma = rng.randrange(1, 9)
        used = rng.sample(range(sigma), rng.randrange(1, sigma + 1))
        s = [rng.choice(used) for _ in range(rng.randrange(0, 40))]
        first, gaps = dc_encode(s, sigma)
        cases = [(first, len(s), gaps)] + dc_mutations(rng, s, first, gaps)
        for case in cases:
            expected = dc_outcome(oracle_dc_reconstruct, *case)
            assert dc_outcome(_dc_reconstruct, *case) == expected, case
            malformed += isinstance(expected[0], str)
        assert dc_outcome(_dc_reconstruct, *cases[0]) == (s, gaps)
    assert malformed > 10000


def test_dc_reconstruct_collision_of_two_ranks():
    # Rank 1 starts the string; ranks 0 and 2 both claim position 2.
    for decode in (_dc_reconstruct, oracle_dc_reconstruct):
        assert dc_outcome(decode, [2, 0, 2], 4, [0, 0, 0]) == \
            ("malformed distance stream", [0])


# The dc-ac pipeline delta-codes the distance-coding gaps with SymbolEncoder.put_deltas.


def test_elias_delta_known_codes():
    known = {
        1: "1", 2: "0100", 3: "0101", 4: "01100", 7: "01111", 8: "00100000",
        17: "001010001", 2**16: "000010001" + "0" * 16,
    }
    for value, code in known.items():
        assert delta_code(value) == code, value


def test_elias_delta_truncated():
    for value in (0, -1):
        with pytest.raises(ValueError):
            SymbolEncoder().put_delta(FreqModel(2), value)
    enc = SymbolEncoder()
    enc.put_delta(FreqModel(2), 2**100)
    payload = enc.finish()
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            SymbolDecoder(payload[:cut]).get_delta(FreqModel(2))
