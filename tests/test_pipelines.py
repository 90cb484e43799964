import hashlib
import math
import random
from itertools import product

import pytest

from conftest import CORPUS_DIR, ranks_of
from sbc.adversary import db_power, de_bruijn
from sbc.cli import main as cli_main
from sbc.entropy import hk
from sbc.machine import Machine, MachineConfig, ModelKind
from sbc.pipelines import (
    BlockPlan,
    ContainerHeader,
    PIPELINES,
    FormatError,
    PipelineId,
    block_boundaries,
    block_encode,
    dc_ac_encode_stream,
    decode_container,
    encode_bwt_dc_ac,
    encode_bwt_mtf_rle_ac,
    encode_kth_order,
    encode_st_dc_ac,
    mtf_rle_ac_encode_stream,
    parse_container,
    parse_header,
    read_varint,
    write_varint,
)
from sbc.stream_bwt import default_rw_machine, rw_bwt_encode, rw_bwt_invert, rw_suffix_array
from sbc.stream_st import default_streamsort_machine, streamsort_st
from sbc.transforms import bwt, st


def test_varint_roundtrip():
    rng = random.Random(0)
    values = [0, 1, 127, 128, 300, 2**20, 2**40] + [rng.randrange(2**50) for _ in range(200)]
    for v in values:
        data = write_varint(v)
        got, pos = read_varint(data, 0)
        assert got == v and pos == len(data)


def test_header_roundtrip_randomized():
    rng = random.Random(1)
    for _ in range(300):
        header = ContainerHeader(
            pipeline=rng.choice(list(PipelineId)),
            sigma=rng.randrange(256),
            k=rng.randrange(256),
            n=rng.randrange(2**30),
            block_len=rng.randrange(2**20),
            payload_bits=rng.randrange(2**24),
        )
        parsed, pos = parse_header(header.serialize())
        assert parsed == header
        assert pos == len(header.serialize())


def test_container_rejects_garbage():
    with pytest.raises(FormatError):
        parse_container(b"NOPE")
    with pytest.raises(FormatError):
        parse_container(b"SBC1\xff\x02\x00\x00\x00\x00")  # unknown pipeline id
    good = encode_bwt_dc_ac([0, 1, 0], 2)
    with pytest.raises(FormatError):
        parse_container(good[:-1])  # payload shorter than declared


def test_decode_rejects_encode_only():
    container = encode_st_dc_ac([0, 1, 0, 1], 2, 2)
    with pytest.raises(FormatError):
        decode_container(container)


DECODABLE = [
    ("bwt-mtf-rle-ac", lambda s, sigma: encode_bwt_mtf_rle_ac(s, sigma)),
    ("bwt-dc-ac", lambda s, sigma: encode_bwt_dc_ac(s, sigma)),
    ("block", lambda s, sigma: block_encode(s, sigma, BlockPlan(0.5, 0.25, 5))),
    ("kth", lambda s, sigma: encode_kth_order(s, sigma, 2)),
]


@pytest.mark.parametrize("name,encode", DECODABLE)
def test_roundtrip_exhaustive_small(name, encode):
    for length in range(0, 11):
        for bits in product(range(2), repeat=length):
            s = list(bits)
            back, header, _ = decode_container(encode(s, 2))
            assert back == s


@pytest.mark.parametrize("name,encode", DECODABLE)
def test_roundtrip_random(name, encode):
    rng = random.Random(2)
    for _ in range(250):
        sigma = rng.choice([2, 4])
        n = rng.randrange(0, 1 << 12) if rng.random() < 0.3 else rng.randrange(0, 260)
        s = [rng.randrange(sigma) for _ in range(n)]
        back, header, _ = decode_container(encode(s, sigma))
        assert back == s
        assert header.n == n and header.sigma == sigma


def test_containers_are_deterministic():
    rng = random.Random(3)
    s = [rng.randrange(4) for _ in range(500)]
    for _, encode in DECODABLE:
        assert encode(s, 4) == encode(s, 4)


def test_mississippi_roundtrip():
    ranks, _ = ranks_of("mississippi")
    for _, encode in DECODABLE:
        back, _, _ = decode_container(encode(ranks, 4))
        assert back == ranks


def test_kth_order_rejects_marker_k():
    with pytest.raises(ValueError):
        encode_kth_order([0, 1], 2, 255)


def test_large_alphabet_roundtrip():
    rng = random.Random(10)
    sigma = 200
    s = [rng.randrange(sigma) for _ in range(600)]
    for _, encode in DECODABLE:
        back, header, alphabet = decode_container(encode(s, sigma))
        assert back == s and header.sigma == sigma and len(alphabet) == sigma


def test_sigma_one_roundtrip():
    s = [0] * 37
    for _, encode in DECODABLE:
        back, _, _ = decode_container(encode(s, 1))
        assert back == s


def test_block_plan_validation():
    with pytest.raises(ValueError):
        BlockPlan(0.2, 0.25, 10)  # c <= epsilon
    with pytest.raises(ValueError):
        BlockPlan(0.8, 0.25, 10)  # c >= 1 - epsilon
    with pytest.raises(ValueError):
        BlockPlan(0.5, 0.25, 0)


def test_block_plan_arithmetic():
    plan = BlockPlan.for_length(4096, 0.5, 0.25)
    assert plan.block_len == 23
    assert len(block_boundaries(4096, plan, known_n=True)) == 179


def test_block_boundaries_unknown_n_reference_simulation():
    plan = BlockPlan.for_length(5000, 0.5, 0.25)

    def reference(n):
        # Independent restatement of the doubling-estimate rule.
        out = []
        consumed = 0
        estimate = 16
        while consumed < n:
            length = min(max(1, math.ceil(estimate ** (0.5 - 0.25 / 2))), n - consumed)
            out.append(length)
            consumed += length
            while consumed >= estimate:
                estimate *= 2
        return out

    for n in [0, 1, 5, 16, 17, 100, 1000, 5000]:
        got = block_boundaries(n, plan, known_n=False)
        assert got == reference(n)
        assert sum(got) == n


def test_block_unknown_n_roundtrip():
    rng = random.Random(4)
    plan = BlockPlan.for_length(2000, 0.5, 0.25)
    for _ in range(20):
        s = [rng.randrange(4) for _ in range(rng.randrange(0, 2000))]
        back, header, _ = decode_container(block_encode(s, 4, plan, known_n=False))
        assert back == s
        assert header.block_len == 0


def test_block_single_block_degenerates_to_plain_payload():
    rng = random.Random(5)
    s = [rng.randrange(2) for _ in range(200)]
    plan = BlockPlan(0.5, 0.25, block_len=1000)  # block covers everything
    container = block_encode(s, 2, plan)
    _, _, payload = parse_container(container)
    n_blk, pos = read_varint(payload, 0)
    plen, pos = read_varint(payload, pos)
    assert n_blk == 200 and pos + plen == len(payload)
    _, _, plain = parse_container(encode_bwt_dc_ac(s, 2))
    assert payload[pos:] == plain


def test_block_per_block_accounting_and_superadditivity(calibration):
    d = de_bruijn(2, 6)
    s = db_power(d, 16)
    plan = BlockPlan.for_length(len(s), 0.5, 0.25)
    container = block_encode(s, 2, plan)
    k = 2
    pieces = [s[i:i + plan.block_len] for i in range(0, len(s), plan.block_len)]
    budget = sum(
        len(b) * hk(b, k) + calibration["block_account_c"] * (2 ** k) * math.log2(max(len(b), 2))
        for b in pieces
    )
    assert 8 * len(container) <= budget
    assert sum(len(b) * hk(b, k) for b in pieces) <= len(s) * hk(s, k) + 1e-6


def test_block_tradeoff_monotone_in_memory():
    d = de_bruijn(2, 8)
    s = db_power(d, 16)  # 4096 symbols
    sizes = []
    for c in (0.7, 0.5, 0.3):
        plan = BlockPlan.for_length(len(s), c, 0.25)
        sizes.append(len(block_encode(s, 2, plan)))
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_block_respects_machine_budget():
    s = [0, 1] * 512
    plan = BlockPlan.for_length(len(s), 0.5, 0.25)
    machine = Machine(MachineConfig(ModelKind.STANDARD, memory_budget_bits=1 << 16), bytes(s))
    container = block_encode(s, 2, plan, machine=machine)
    led = machine.ledger()
    assert led.passes == 1
    assert led.peak_memory_bits <= 1 << 16
    back, _, _ = decode_container(container)
    assert back == s


def test_block_budget_overrun_raises():
    from sbc.machine import BudgetExceededError

    s = [0, 1] * 512
    plan = BlockPlan.for_length(len(s), 0.5, 0.25)
    machine = Machine(MachineConfig(ModelKind.STANDARD, memory_budget_bits=64), bytes(s))
    with pytest.raises(BudgetExceededError):
        block_encode(s, 2, plan, machine=machine)


def test_st_dc_ac_prefers_higher_order_on_markov_input():
    # Noisy rotation source: no runs at order zero, but each character almost
    # determines its successor, so sorting by one-character contexts pays.
    rng = random.Random(6)
    s = []
    sym = 0
    for _ in range(2000):
        s.append(sym)
        sym = (sym + 1) % 3 if rng.random() < 0.95 else rng.randrange(3)
    container = encode_st_dc_ac(s, 3, 3)
    header, _, _ = parse_container(container)
    assert header.k >= 1


def test_st_dc_ac_selection_is_min_over_k():
    rng = random.Random(7)
    s = [rng.randrange(2) for _ in range(400)]
    sizes = {}
    for k in range(4):
        from sbc.pipelines import _dc_ac_payload
        sizes[k] = len(_dc_ac_payload([c + 1 for c in st(s, k)], 3))
    container = encode_st_dc_ac(s, 2, 3)
    header, _, payload = parse_container(container)
    assert len(payload) == min(sizes.values())
    assert sizes[header.k] == min(sizes.values())


def test_mtf_rle_stream_runs_in_one_standard_pass():
    ranks, _ = ranks_of("mississippi" * 40)
    body = bwt(ranks, 4)
    machine = Machine(
        MachineConfig(ModelKind.STANDARD, memory_budget_bits=4096),
        bytes(c + 1 for c in body),
    )
    payload = mtf_rle_ac_encode_stream(machine, 4)
    led = machine.ledger()
    assert led.passes == 1
    assert 0 < led.peak_memory_bits <= 1024  # logarithmic-size registers only
    container = encode_bwt_mtf_rle_ac(ranks, 4)
    _, _, plain = parse_container(container)
    assert payload == plain  # machine path and pure path agree bit for bit


def _standard(data: bytes) -> Machine:
    return Machine(MachineConfig(ModelKind.STANDARD, memory_budget_bits=1 << 20), data)


_PLAN = BlockPlan(0.5, 0.25, 4)

# name -> run(s, t) giving (the entry point called with s and a machine whose
# input tape holds t, the same computation on t with no machine)
TAPE_RUNS = {
    "rw_bwt_encode": lambda s, t: (rw_bwt_encode(s, default_rw_machine(bytes(t))), bwt(t)),
    "rw_suffix_array": lambda s, t: (rw_suffix_array(s, default_rw_machine(bytes(t))),
                                     rw_suffix_array(t)),
    "rw_bwt_invert": lambda s, t: (rw_bwt_invert(bwt(s), default_rw_machine(
        bytes(c + 1 for c in bwt(t)))), t),
    "streamsort_st": lambda s, t: (streamsort_st(s, 2, default_streamsort_machine(bytes(t)),
                                                 sigma=4), st(t, 2, 4)),
    "encode_kth_order": lambda s, t: (encode_kth_order(s, 4, 2, machine=_standard(bytes(t))),
                                      encode_kth_order(t, 4, 2)),
    "block_encode": lambda s, t: (block_encode(s, 4, _PLAN, machine=_standard(bytes(t))),
                                  block_encode(t, 4, _PLAN)),
}


@pytest.mark.parametrize("name", sorted(TAPE_RUNS))
def test_machine_tape_is_the_input(name):
    s, _ = ranks_of("mississippi")
    t = s[1:] + s[:1]  # same length, other string
    got, expected = TAPE_RUNS[name](s, t)
    assert got == expected
    assert got != TAPE_RUNS[name](s, s)[1]


def test_dc_stream_matches_pure_path():
    rng = random.Random(8)
    for _ in range(40):
        sigma = rng.choice([2, 4])
        s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 300))]
        body = bwt(s, sigma)
        machine = Machine(
            MachineConfig(ModelKind.READ_WRITE, memory_budget_bits=1 << 16, work_tapes=1),
            bytes(c + 1 for c in body),
        )
        payload = dc_ac_encode_stream(machine, sigma)
        _, _, plain = parse_container(encode_bwt_dc_ac(s, sigma))
        assert payload == plain
        assert machine.ledger().passes == 3  # reverse scan, run-record write, replay


def test_both_bwt_codecs_lossless_at_scale():
    rng = random.Random(9)
    s = [rng.randrange(2) for _ in range(1 << 14)]
    dc = encode_bwt_dc_ac(s, 2)
    mtf = encode_bwt_mtf_rle_ac(s, 2)
    assert decode_container(dc)[0] == s
    assert decode_container(mtf)[0] == s
    # sizes recorded for the measurement log; random data favors neither much
    print(f"n=2^14 random sigma=2: dc={8 * len(dc)} bits, mtf+rle={8 * len(mtf)} bits")


def test_bound_shape_regression(calibration, corpus):
    c1 = calibration["bound_c1"]
    c2 = calibration["bound_c2"]
    for name, data in corpus.items():
        ranks, alphabet = ranks_of(data)
        sigma = len(alphabet)
        n = len(ranks)
        size_mtf = 8 * len(encode_bwt_mtf_rle_ac(ranks, sigma))
        size_dc = 8 * len(encode_bwt_dc_ac(ranks, sigma))
        for k in (0, 1, 2):
            nhk = n * hk(ranks, k)
            assert size_mtf <= 3.4 * nhk + c1 * sigma ** k, (name, k)
            assert size_dc <= 1.8 * nhk + c2 * (sigma ** k) * math.log2(n), (name, k)


# sha256 of the SBC1 container of every in-memory encoder at its CLI default
# k (each PIPELINES entry with no machine), plus block_encode with the length
# unknown, on the corpus, an empty and a 1-byte input.  Computed on the code
# as it stood before the delta code moved into sbc.coders and the test-only
# coders were deleted, where it passes.  The format is frozen: a change that
# moves any of these hashes changes what the containers hold.
CONTAINER_PINS = {
    ("covering.txt", "bwt-mtf-rle-ac"): "fa7ea8ca1011db30d87b83b4dc17fbccff70ccea8b3305e59356a09f332b1978",
    ("covering.txt", "bwt-dc-ac"): "36ff4ab716bffa7fe7867b0303a49767fdbc8c241808fb3987225a26c424ada4",
    ("covering.txt", "st-dc-ac"): "1e2d3517b2bb8b06fae4f2addd2fbdaffdab4a58ca5c462e23b848728bd2ef79",
    ("covering.txt", "block-kth"): "2c0d33e0487ae1afea4e944283e214b58675bfe08a048c2f8dc646b0866ed66b",
    ("covering.txt", "kth-order"): "8700621275e29f7efe055ab4b38ac8006f03788c5c885edd7b7ca63f90b22786",
    ("covering.txt", "block-kth-unknown-n"): "6819a8211c01ef5806689944064d4089119ec5587ab743054c6366ee480c9c54",
    ("english.txt", "bwt-mtf-rle-ac"): "2cde5d480559b0bee2ecf09e2ae3b10e65b21950fe5302895b5eac2a358acd62",
    ("english.txt", "bwt-dc-ac"): "e1f5453f19b934188250816ed1369f1271cb3a8a4d1c7d8294fd3c6009cff098",
    ("english.txt", "st-dc-ac"): "7511e68f9ca49511762fb2121161ed8bc63dd9a304816188c1d68c4cc1d60a8f",
    ("english.txt", "block-kth"): "7c0e056bb292462a87e24e155f66f26a617ee70dfed5b28ee81be35b68f1fcd5",
    ("english.txt", "kth-order"): "394fbb6aadd7ba80aac9af41284b35cf03080e42a4689a3ad913f5c94966b03f",
    ("english.txt", "block-kth-unknown-n"): "e83e4159715c94dab6950d7f2f985d50b2513dacae9b8681d66d162e12b1eec2",
    ("mixed.bin", "bwt-mtf-rle-ac"): "445961df003870d79923c56c866d6489f637b15cf11f95837e30f14fd7a3ee72",
    ("mixed.bin", "bwt-dc-ac"): "3297a26b515376e5eb6f0e1e69d75d83296f1b98a7d0452e33dff521ce3c2bbe",
    ("mixed.bin", "st-dc-ac"): "fcbf8f050d5606661382a4871d7e505c95a9a30dce155994fd1cd81bd5642d0c",
    ("mixed.bin", "block-kth"): "6a3aae4036c5707a0d2f22ec0b557384e7e1c5abfe57e4388cd4ccd306ec7e3f",
    ("mixed.bin", "kth-order"): "db74e931abf236ecc6bb6b564df68de6530b77ee32f72e1feff10527c6a69605",
    ("mixed.bin", "block-kth-unknown-n"): "7e4834ed2a32fca2d075fc7667aa431cbb6d5dbed783a3f75439363b28f412aa",
    ("periodic.txt", "bwt-mtf-rle-ac"): "8f8cb73baed3b9d02af20d7ffebb5d86a71a99e083b98f183e9334411fbcc986",
    ("periodic.txt", "bwt-dc-ac"): "55db494e397fffcf69e3342d9213ec48fc8e05ac508610eb3098d8d97ca19c27",
    ("periodic.txt", "st-dc-ac"): "d54ede586a1889f9b70ae83c41e676ff04f4a580e9be52e6ea86b6e8887c327b",
    ("periodic.txt", "block-kth"): "42e3a9c2087a902b063a99a70b4259000be017de9199c7f9fd66d739c39ab4b2",
    ("periodic.txt", "kth-order"): "94859e825fc14f0e6ea2812b2fa49f9f654f33141d8bd58234eebfce3d05ea5b",
    ("periodic.txt", "block-kth-unknown-n"): "2d06cc867c09259c760f6c88a91258ba703aad14bf817e4f52b983a872fe09bc",
    ("service.log", "bwt-mtf-rle-ac"): "1425272cf09e087033e4be80332848304cd85a923894aa4e3060e9451ccd88a3",
    ("service.log", "bwt-dc-ac"): "9ef2c9fc3dfa63cda991cc7360bfd45eb4abb0c6a99b0e7124e6b7032046bf69",
    ("service.log", "st-dc-ac"): "fc02a932707880a73f1fe9636a01ab4235de8904a312c36e65f6777d77837afc",
    ("service.log", "block-kth"): "f107a5358ec8d073bce58e67d9d9bfda8f5047dded92e7963ff10bbf2bf9c5fc",
    ("service.log", "kth-order"): "91cb133b310054cbf935e99ac9c730fa8cc69248984b84facf928fcc00536bcd",
    ("service.log", "block-kth-unknown-n"): "980ea03983718d80aba7ced287f948667393d4db18183ef22f09973ae12da484",
    ("empty", "bwt-mtf-rle-ac"): "24362affcd8e4d67cd6c379ccc7d7d336ba2fbe133fee745c952be4bbac556ae",
    ("empty", "bwt-dc-ac"): "d0f25ed6970eaac549ba8bf73532dda4c77a3a490329fef8de78832004e103da",
    ("empty", "st-dc-ac"): "47adc1e2ddd93fb804b3d08f1ba2091a49db51b85c9e5be9e05f9bde834f8e06",
    ("empty", "block-kth"): "e96a58bda9171a635c8a32e99407ccc4597556a138c378e286f5ab082c543025",
    ("empty", "kth-order"): "2b8a0ba6d4bb4f685d98863b418854c6d361e70d1ec4b0fa48c5d70284667d85",
    ("empty", "block-kth-unknown-n"): "e96a58bda9171a635c8a32e99407ccc4597556a138c378e286f5ab082c543025",
    ("one-byte", "bwt-mtf-rle-ac"): "7ec1268741ca98fea32d135b1e66eefe147f8239d6bd15cd9782f31427d8bcd7",
    ("one-byte", "bwt-dc-ac"): "289254b7248ab496faeadd86d80a410d52ae65e648f4b764aff555509b63d044",
    ("one-byte", "st-dc-ac"): "cf16972afd7604a7ccf1cc2c29cea4d3ebeac9ca79160ddc34b7199d7b798f50",
    ("one-byte", "block-kth"): "1ecd952d174be5d083626080341b5772e6c843d799afb98418b6931429ea894b",
    ("one-byte", "kth-order"): "92e58b311188a0df4f79ce642407f69017e3908ccc96bdb5fddd1a4598584306",
    ("one-byte", "block-kth-unknown-n"): "acf3b3e00be54be3548a7afc5a6af26f01f5c25672d1e0b1e210d34498f48b9a",
}


def test_containers_are_pinned(corpus):
    inputs = dict(corpus, **{"empty": b"", "one-byte": b"x"})
    got = {}
    for name, data in inputs.items():
        s, alphabet = ranks_of(data)
        sigma, alphabet = len(alphabet), bytes(alphabet)
        for entry in PIPELINES.values():
            container = entry.encode(s, sigma, alphabet, entry.default_k(len(s)), 0.5, 0.25, None)
            got[name, entry.name] = hashlib.sha256(container).hexdigest()
        plan = BlockPlan.for_length(len(s), 0.5, 0.25)
        container = block_encode(s, sigma, plan, known_n=False, alphabet=alphabet)
        got[name, "block-kth-unknown-n"] = hashlib.sha256(container).hexdigest()
    assert got == CONTAINER_PINS


# (passes, sort_passes, peak_memory_bits, total_output_bits,
# sum(per_pass_tape_bits), sha256 of the newline-joined trace lines) of
# every PIPELINES entry's streaming encoder on the corpus, each on a machine
# of its own model and work tapes over the input with a 2^40-bit budget, at
# its CLI default k, c = 0.5 and epsilon = 0.25, as ``sbc bench`` runs
# them.  The peaks include what the coders charge.  The first four were
# computed on the code as it stood before the range coder was folded into
# SymbolEncoder and SymbolDecoder; the tape-bit sums on the code as it
# stood before best-k ran every k on one machine; the trace hashes on the
# code as it stood before passes were numbered as they close.
MODEL_LEDGER_PINS = {
    ("covering.txt", "bwt-mtf-rle-ac"): (1, 0, 310, 1624, 16392,
        "6f29fa72da55c33834d5b568f89c6fad46d8e54bf124f896647df19ffe9de6cb"),
    ("covering.txt", "bwt-dc-ac"): (3, 0, 328, 1424, 19464,
        "3ed047fe5d4bdeea6ae6fbfab351f95d956fe87067014b12ad6c65a70a19c6f9"),
    ("covering.txt", "st-dc-ac"): (25, 5, 284, 4480, 786736,
        "d704b0c2e42f3d9899e43133429c67799bbc37187e2ee9970697600a9a1cc17d"),
    ("covering.txt", "block-kth"): (1, 0, 457, 11976, 16384,
        "64d71c917c8ced597756946bda84cd78f7bc3d510ce1df0e98f532f3ec25ce70"),
    ("covering.txt", "kth-order"): (1, 0, 392, 2104, 16384,
        "211a800404270fce6a8be495947f9e2e0ac6dd5078d151af52c2e3b6a7ff0da5"),
    ("english.txt", "bwt-mtf-rle-ac"): (1, 0, 1048, 8336, 22856,
        "c7bcc1bb1c3c881e33eb92b37fdbcb494a47121c862241d631716ce4c91df16b"),
    ("english.txt", "bwt-dc-ac"): (3, 0, 1120, 8672, 40728,
        "9a594a496540f1e61d67a392201f8785f7dc6b2a22190a97fd9d1d5be4720bc8"),
    ("english.txt", "st-dc-ac"): (27, 5, 680, 9928, 1691200,
        "659e39dc6fa4f96a18c721063a25e17d10be7ce967294506ebbb16f4c8cb8ed8"),
    ("english.txt", "block-kth"): (1, 0, 744, 31976, 22848,
        "f230a8eb27b67ff4283ea05ff1e5a07c520a7d756f2f557e686c4c343cc2955b"),
    ("english.txt", "kth-order"): (1, 0, 173592, 11528, 22848,
        "5b867e6bae2a33fc28087630ae2ad22cad8e83fea714d6bc4ccf59907da03c40"),
    ("mixed.bin", "bwt-mtf-rle-ac"): (1, 0, 351, 5752, 16392,
        "5e61112eff416bc1a9cf5626eebbbc8956f53667630208e94162dff9ddd317a7"),
    ("mixed.bin", "bwt-dc-ac"): (3, 0, 376, 8424, 41160,
        "7847aaa297ef42c12855af02e1f1cf7f9f77ea00522fc02fa3a1aa1e9f4cfd5d"),
    ("mixed.bin", "st-dc-ac"): (25, 5, 308, 8312, 852304,
        "1d7da906fd8f7be5419a4a031a67c08e25e6df4a6950c2a8f9cd29b668fec2c0"),
    ("mixed.bin", "block-kth"): (1, 0, 485, 15880, 16384,
        "b70dd778d4e3ec2f92aa037e03c4156667b9d35713450d2def4b5decbeab2c8f"),
    ("mixed.bin", "kth-order"): (1, 0, 1568, 4224, 16384,
        "51d5125ff77931612dd52787913fb3714a47a340ec8de4a94763376a0a678da4"),
    ("periodic.txt", "bwt-mtf-rle-ac"): (1, 0, 370, 192, 17608,
        "850a82298698996459d80214f08c0ce880936c5af5244bd722469b1d5d547ac8"),
    ("periodic.txt", "bwt-dc-ac"): (3, 0, 400, 160, 17800,
        "4f6df2b4141320b6b98106117ce95730e71584d84c5a45966597285cd1895eaa"),
    ("periodic.txt", "st-dc-ac"): (25, 5, 320, 1752, 915536,
        "a3e57aedeac1c6c26bdbed0198148e389ba297b16e24f1971212742ea9676f86"),
    ("periodic.txt", "block-kth"): (1, 0, 508, 14104, 17600,
        "0bf5dcf26fbc80b8e8439f55949ae614deb3d7d5b5a923b193be922153a3244a"),
    ("periodic.txt", "kth-order"): (1, 0, 1056, 656, 17600,
        "f95a63712da15ddc8fa5f2bc2a06f1b8bd657837a46dd7de176fa1bc4218ae14"),
    ("service.log", "bwt-mtf-rle-ac"): (1, 0, 1268, 5432, 33712,
        "428d9135935e33a7062abaa9f9f2ca550e0539e3a99f38bc056c5d7c2f0b8784"),
    ("service.log", "bwt-dc-ac"): (3, 0, 1452, 5920, 46416,
        "b8c263bdfff481b47db75fd0f9eabbbf678bf61a4ccfaa92518e49820acabdd9"),
    ("service.log", "st-dc-ac"): (27, 5, 848, 5624, 2494544,
        "b8938e0d8fb7ade57c9c47c636224858ff0152808c5d613fb043d8a2891afab0"),
    ("service.log", "block-kth"): (1, 0, 842, 47688, 33704,
        "1c71d0155811c3027959aac19c59cc04ac32cc5891235e60404dea85d859f088"),
    ("service.log", "kth-order"): (1, 0, 150480, 10784, 33704,
        "fe8cc6b8df5546c8956bad5b15a96fe2268afe8dd98759bea3eda66daba085b6"),
}


def test_model_ledgers_are_pinned(corpus):
    got = {}
    for name, data in corpus.items():
        s, alphabet = ranks_of(data)
        sigma, alphabet = len(alphabet), bytes(alphabet)
        for entry in PIPELINES.values():
            machine = Machine(MachineConfig(entry.model, 1 << 40, work_tapes=entry.work_tapes),
                              bytes(s))
            lines = []
            machine.trace = lines.append
            entry.encode(s, sigma, alphabet, entry.default_k(len(s)), 0.5, 0.25, machine)
            led = machine.ledger()
            got[name, entry.name] = (led.passes, led.sort_passes, led.peak_memory_bits,
                                     led.total_output_bits, sum(led.per_pass_tape_bits),
                                     hashlib.sha256("\n".join(lines).encode()).hexdigest())
    assert got == MODEL_LEDGER_PINS


def test_bench_rows_match_model_ledger_pins(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", CORPUS_DIR, "--pipelines", ",".join(PIPELINES), "-o", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    got = {}
    for row in rows:
        cell = dict(zip(header, row))
        got[cell["file"], cell["pipeline"]] = tuple(int(cell[col]) for col in (
            "passes", "sort_passes", "peak_memory_bits", "total_output_bits"))
    assert got == {key: pin[:4] for key, pin in MODEL_LEDGER_PINS.items()}


def wide_ranks(n, seed, sigma=250, likely=8, noise=0.1):
    """An order-1 source over sigma ranks: each has ``likely`` favoured successors."""
    table = random.Random(sigma)
    successors = [table.sample(range(sigma), likely) for _ in range(sigma)]
    rng = random.Random(seed)
    out = [rng.randrange(sigma)]
    while len(out) < n:
        out.append(rng.randrange(sigma) if rng.random() < noise else rng.choice(successors[out[-1]]))
    return out


# sha256 of encode_kth_order's container at sigma = 250 on wide_ranks(70000,
# 2026).  At k = 0 the one model rescales three times; at k = 1 no context
# sees more than 578 symbols, so none does.  Computed on the flat-count
# model, before FreqModel kept block sums.
WIDE_KTH_PINS = {
    0: "25431662345aea2470eae3079b334446ed6bc84b0c86f737cd6c0d47699efe66",
    1: "909890a9ee7333e795ac5ef26d4e34bbf940a49d5f3ca2985406f1944be72266",
}


@pytest.mark.parametrize("k", sorted(WIDE_KTH_PINS))
def test_wide_kth_order_containers_are_pinned(k):
    s = wide_ranks(70000, 2026)
    assert len(set(s)) == 250
    container = encode_kth_order(s, 250, k)
    assert hashlib.sha256(container).hexdigest() == WIDE_KTH_PINS[k]
    ranks, header, _ = decode_container(container)
    assert (ranks, header.k) == (s, k)
