import math
import random

import pytest

from conftest import FlatFreqModel, delta_code, oracle_delta_code_bits, oracle_kth_order_encode
from sbc.coders import (
    _BLOCK,
    _DELTA_BITS,
    _DELTA_TABLE,
    RESCALE_TOTAL,
    FreqModel,
    SymbolDecoder,
    SymbolEncoder,
    delta_code_bits,
    kth_order_decode,
    kth_order_encode,
)
from sbc.entropy import h0
from sbc.machine import Machine, MachineConfig, ModelKind


def test_freq_model_invariants():
    model = FreqModel(4)
    assert model.total == 4
    for _ in range(40000):
        model.update(1)
        assert model.total < 1 << 16
        assert all(c >= 1 for c in model.counts)


def test_freq_model_interval_partition():
    model = FreqModel(5)
    rng = random.Random(0)
    for _ in range(200):
        model.update(rng.randrange(5))
    acc = 0
    for sym in range(5):
        lo, hi, total = model.interval(sym)
        assert lo == acc and hi > lo
        acc = hi
    assert acc == model.total


def assert_model_matches(model, flat, syms, values):
    """model and the flat oracle agree on state, interval(sym) for syms and locate(v) for values."""
    assert (model.counts, model.total) == (flat.counts, flat.total)
    if len(model.counts) > _BLOCK:
        assert model.blocks == [sum(model.counts[b:b + _BLOCK]) for b in range(0, len(model.counts), _BLOCK)]
    else:
        assert not hasattr(model, "blocks")  # one block: its sum is the total
    for sym in syms:
        assert model.interval(sym) == flat.interval(sym), sym
    for v in values:
        assert model.locate(v) == flat.locate(v), v


def _decode_outcome(model, data, count):
    """Up to count symbols of data through model, and the ValueError message if one stops it."""
    out = []
    try:
        dec = SymbolDecoder(data)
        for _ in range(count):
            out.append(dec.get(model))
    except ValueError as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize("sigma", [1, 2, 3, 15, 16, 17, 31, 32, 33, 250, 16383])
def test_freq_model_matches_flat_oracle(sigma):
    # 70,000 updates cross RESCALE_TOTAL at least three times at every sigma.
    # Up to sigma = 250 every interval is checked, and up to 33 every
    # locate; above that a seeded sample, as the flat oracle scans sigma
    # counts per call.
    rng = random.Random(sigma)
    n = 70000
    sequences = {
        "uniform": [rng.randrange(sigma) for _ in range(n)],
        # Mostly small symbols, as move-to-front emits, with a long tail.
        "skewed": [min(int(rng.expovariate(0.2)), sigma - 1) for _ in range(n)],
    }

    def check(model, flat):
        syms = range(sigma) if sigma <= 250 else sorted({0, sigma - 1, *rng.sample(range(sigma), 100)})
        if sigma <= 33:
            values = range(flat.total)
        else:
            values = sorted({0, flat.total - 1, *rng.sample(range(flat.total), 200 if sigma <= 250 else 30)})
        assert_model_matches(model, flat, syms, values)

    for kind, seq in sequences.items():
        model, flat = FreqModel(sigma), FlatFreqModel(sigma)
        rescales = 0
        for i, sym in enumerate(seq):
            before = flat.total
            model.update(sym)
            flat.update(sym)
            rescales += flat.total < before
            if i % 17500 == 0 or flat.total < before:
                check(model, flat)
        assert rescales >= 3, (kind, rescales)
        check(model, flat)

        # A stream through both models codes to the same bytes and decodes
        # alike, past the first rescale.  A flat decode at sigma = 16383
        # scans thousands of counts per symbol, so there it decodes a prefix.
        stream = seq[:36000 if sigma <= 250 else 20000]
        enc, flat_enc = SymbolEncoder(), SymbolEncoder()
        model, flat = FreqModel(sigma), FlatFreqModel(sigma)
        for sym in stream:
            enc.put(model, sym)
            flat_enc.put(flat, sym)
        assert flat.total < sigma + len(stream)  # rescaled
        payload = enc.finish()
        assert payload == flat_enc.finish(), kind
        prefix = len(stream) if sigma <= 250 else 500
        assert _decode_outcome(FreqModel(sigma), payload, len(stream)) == (stream, None)
        assert _decode_outcome(FlatFreqModel(sigma), payload, prefix) == (stream[:prefix], None)

    # Noise decodes to the same symbols or stops with the same error.
    count = 64 if sigma <= 250 else 16
    for _ in range(200 if sigma <= 250 else 20):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        assert _decode_outcome(FreqModel(sigma), data, count) == _decode_outcome(FlatFreqModel(sigma), data, count)


# Order-0 adaptive coding ("ac" in the pipeline names) is the order-k coder
# at k = 0: one FreqModel(sigma) driving the range coder.


def test_ac_empty():
    assert kth_order_encode([], 2, 0) == b""
    assert kth_order_decode(b"", 0, 2, 0) == []


def test_ac_skewed_stream_is_tiny():
    payload = kth_order_encode([0] * 10**4, 2, 0)
    assert len(payload) * 8 < 200


def test_ac_roundtrip_random():
    rng = random.Random(1)
    for _ in range(1000):
        sigma = rng.choice([2, 4, 16])
        n = rng.randrange(0, 200)
        s = [rng.randrange(sigma) for _ in range(n)]
        assert kth_order_decode(kth_order_encode(s, sigma, 0), n, sigma, 0) == s


def test_ac_rejects_out_of_range():
    with pytest.raises(ValueError):
        kth_order_encode([2], 2, 0)


def test_ac_truncated_payload_detected():
    s = [0, 1] * 400
    payload = kth_order_encode(s, 2, 0)
    with pytest.raises(ValueError):
        kth_order_decode(payload[: len(payload) // 2], len(s), 2, 0)


def test_ac_deterministic():
    rng = random.Random(2)
    s = [rng.randrange(4) for _ in range(500)]
    assert kth_order_encode(s, 4, 0) == kth_order_encode(s, 4, 0)


def test_ac_length_close_to_adaptive_ideal():
    rng = random.Random(3)
    for sigma in (2, 4):
        s = [rng.randrange(sigma) for _ in range(2000)]
        model = FreqModel(sigma)
        ideal = 0.0
        for sym in s:
            _, _, total = model.interval(sym)
            ideal += math.ceil(math.log2(total / model.counts[sym]))
            model.update(sym)
        assert len(kth_order_encode(s, sigma, 0)) * 8 <= ideal + 64


def test_encoder_decoder_model_states_stay_equal():
    rng = random.Random(4)
    s = [rng.randrange(3) for _ in range(600)]
    enc_model = FreqModel(3)
    dec_model = FreqModel(3)
    enc = SymbolEncoder()
    for sym in s:
        enc.put(enc_model, sym)
    dec = SymbolDecoder(enc.finish())
    trace_enc = FreqModel(3)
    for i, sym in enumerate(s):
        got = dec.get(dec_model)
        assert got == sym
        trace_enc.update(sym)
        assert dec_model.counts == trace_enc.counts, f"state diverged after {i + 1} symbols"


def test_delta_bits_roundtrip():
    rng = random.Random(5)
    values = [rng.randrange(1, 100000) for _ in range(500)]
    model = FreqModel(2)
    enc = SymbolEncoder()
    for v in values:
        enc.put_delta(model, v)
    dec = SymbolDecoder(enc.finish())
    model2 = FreqModel(2)
    assert [dec.get_delta(model2) for _ in values] == values


def test_delta_code_bit_layout():
    for value in range(1, 5000):
        nbits = value.bit_length()
        assert len(delta_code(value)) == nbits + 2 * (nbits.bit_length() - 1)


def generic_put_delta(enc, model, value):
    """The delta code of value, each bit through the generic ``SymbolEncoder.put``."""
    for bit in delta_code(value):
        enc.put(model, int(bit))


def generic_get_delta(dec, model):
    """One delta code, each bit through the generic ``SymbolDecoder.get``."""
    zeros = 0
    while dec.get(model) == 0:
        zeros += 1
    nbits = 1
    for _ in range(zeros):
        nbits = (nbits << 1) | dec.get(model)
    value = 1
    for _ in range(nbits - 1):
        value = (value << 1) | dec.get(model)
    return value


def test_delta_fast_path_matches_generic_coder():
    # Two delta models and a three-symbol model interleaved, as the payload
    # coders use them; enough bits that each delta model rescales many times.
    rng = random.Random(8)
    values = [rng.choice((1, 2, 3, rng.randrange(1, 64), rng.randrange(1, 1 << 40)))
              for _ in range(40000)] + [2**100, 1, 2**100]
    syms = [rng.randrange(3) for _ in values]
    fast, generic = SymbolEncoder(), SymbolEncoder()
    fast_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    generic_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    for i, (v, sym) in enumerate(zip(values, syms)):
        fast.put_delta(fast_models[i & 1], v)
        generic_put_delta(generic, generic_models[i & 1], v)
        fast.put(fast_models[2], sym)
        generic.put(generic_models[2], sym)
        if i % 997 == 0:
            assert [m.counts for m in fast_models] == [m.counts for m in generic_models]
    payload = fast.finish()
    assert payload == generic.finish()
    bits = sum(len(delta_code(v)) for v in values)
    assert bits > 8 * RESCALE_TOTAL  # rescale-by-halving fired on both delta models

    fast_dec, generic_dec = SymbolDecoder(payload), SymbolDecoder(payload)
    fast_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    generic_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    for i, (v, sym) in enumerate(zip(values, syms)):
        assert fast_dec.get_delta(fast_models[i & 1]) == v
        assert generic_get_delta(generic_dec, generic_models[i & 1]) == v
        assert fast_dec.get(fast_models[2]) == generic_dec.get(generic_models[2]) == sym
    assert [(m.counts, m.total) for m in fast_models] == \
        [(m.counts, m.total) for m in generic_models]


def test_delta_fast_path_then_generic_coder_matches_flat_oracle():
    # put_delta/get_delta write a binary model's state back once per code;
    # generic put/get on the same model afterwards must see all of it, as
    # the flat oracle driven bit by bit does.
    rng = random.Random(10)
    values = [rng.choice((1, 2, rng.randrange(1, 64), rng.randrange(1, 1 << 30))) for _ in range(15000)]
    bits = [rng.randrange(2) for _ in values]
    enc, flat_enc = SymbolEncoder(), SymbolEncoder()
    model, flat = FreqModel(2), FlatFreqModel(2)
    for v, bit in zip(values, bits):
        enc.put_delta(model, v)
        generic_put_delta(flat_enc, flat, v)
        assert_model_matches(model, flat, (0, 1), (0, flat.total - 1))
        enc.put(model, bit)
        flat_enc.put(flat, bit)
    payload = enc.finish()
    assert payload == flat_enc.finish()
    assert sum(len(delta_code(v)) + 1 for v in values) > 4 * RESCALE_TOTAL

    dec, flat_dec = SymbolDecoder(payload), SymbolDecoder(payload)
    model, flat = FreqModel(2), FlatFreqModel(2)
    for v, bit in zip(values, bits):
        assert dec.get_delta(model) == generic_get_delta(flat_dec, flat) == v
        assert_model_matches(model, flat, (0, 1), (0, flat.total - 1))
        assert dec.get(model) == flat_dec.get(flat) == bit


def test_delta_fast_path_decodes_noise_like_generic_coder():
    # On arbitrary bytes both decoders read the same values or both raise.
    rng = random.Random(9)

    def outcome(decode, data):
        model = FreqModel(2)
        values = []
        try:
            dec = SymbolDecoder(data)
            for _ in range(4):
                values.append(decode(dec, model))
        except ValueError as exc:
            return values, str(exc)
        return values, None

    for i in range(3000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24)))
        if i % 3 == 0:
            # Code bytes of 0xFF reach the target clamp of get().
            data = data[:1] + b"\xff" * rng.randrange(4, 12) + data[1:]
        assert outcome(SymbolDecoder.get_delta, data) == outcome(generic_get_delta, data)


def _coder_state(enc):
    return enc._low, enc._range, enc._cache, enc._cache_size, bytes(enc._out)


def test_put_deltas_matches_generic_coder(monkeypatch):
    # Whole sequences through put_deltas, as the payload coders pass them,
    # each followed by a three-symbol put; the generic put of every
    # delta_code bit must reach the same payload and the same states.
    fast, generic = SymbolEncoder(), SymbolEncoder()
    carries = []
    shift_low = SymbolEncoder._shift_low

    def counting_shift_low(enc):
        if enc is fast and enc._low > 0xFFFFFFFF:
            carries.append(enc._cache_size - 1)  # pending 0xFF bytes the carry reaches
        shift_low(enc)

    monkeypatch.setattr(SymbolEncoder, "_shift_low", counting_shift_low)
    # A carry across two or more pending 0xFF bytes comes about once per
    # 250 KB of payload; this seed's 150 KB reaches three.
    rng = random.Random(16)

    def draw():
        return rng.choice((1, 2, 3, rng.randrange(1, 64), rng.randrange(1, 1 << 40),
                           rng.randrange(1, 2**100 + 1)))

    long = [draw() for _ in range(40000)] + [2**100]
    sequences = [[], [draw()], long, [1], []]
    syms = [rng.randrange(3) for _ in sequences]
    fast_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    generic_models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    for i, (values, sym) in enumerate(zip(sequences, syms)):
        fast.put_deltas(fast_models[i & 1], (v for v in values))
        for v in values:
            generic_put_delta(generic, generic_models[i & 1], v)
        assert [(m.counts, m.total) for m in fast_models] == \
            [(m.counts, m.total) for m in generic_models], i
        assert _coder_state(fast) == _coder_state(generic), i
        fast.put(fast_models[2], sym)
        generic.put(generic_models[2], sym)
    payload = fast.finish()
    assert payload == generic.finish()
    assert sum(len(delta_code(v)) for v in long) > 8 * RESCALE_TOTAL  # several rescales
    assert max(carries) >= 2

    dec = SymbolDecoder(payload)
    models = [FreqModel(2), FreqModel(2), FreqModel(3)]
    for i, (values, sym) in enumerate(zip(sequences, syms)):
        assert [dec.get_delta(models[i & 1]) for _ in values] == values
        assert dec.get(models[2]) == sym


def test_delta_table_holds_the_delta_codes():
    # At most 256 entries: every import of sbc.coders builds the table.
    assert len(_DELTA_BITS) == _DELTA_TABLE <= 256
    for value in range(1, _DELTA_TABLE):
        assert "".join(map(str, _DELTA_BITS[value])) == delta_code(value), value


def test_put_deltas_matches_generic_coder_on_table_edges():
    # Every table value, the values around the table bound, and powers of
    # two up to 2^100 beyond it: one put_deltas call per value, then all of
    # them in one call, against the generic put of every delta_code bit.
    edges = [v for j in range(_DELTA_TABLE.bit_length() - 2, 101)
             for v in (2**j - 1, 2**j, 2**j + 1)]
    values = list(range(1, _DELTA_TABLE + 3)) + edges
    fast, generic, whole = SymbolEncoder(), SymbolEncoder(), SymbolEncoder()
    fast_model, generic_model, whole_model = FreqModel(2), FreqModel(2), FreqModel(2)
    for v in values:
        fast.put_deltas(fast_model, [v])
        generic_put_delta(generic, generic_model, v)
        assert (fast_model.counts, fast_model.total) == \
            (generic_model.counts, generic_model.total), v
        assert _coder_state(fast) == _coder_state(generic), v
    whole.put_deltas(whole_model, values)
    assert (whole_model.counts, whole_model.total) == (generic_model.counts, generic_model.total)
    assert _coder_state(whole) == _coder_state(generic)
    payload = generic.finish()
    assert fast.finish() == whole.finish() == payload
    dec, model = SymbolDecoder(payload), FreqModel(2)
    assert [dec.get_delta(model) for _ in values] == values


def test_put_deltas_takes_both_byte_paths(monkeypatch):
    # A renormalisation byte is written inline only while no carry can be
    # pending; the others, pending 0xFF bytes included, go through
    # _shift_low.  Both paths must be taken and agree with the generic coder.
    calls = {"fast": 0, "generic": 0, "fast_pending": 0}
    fast, generic = SymbolEncoder(), SymbolEncoder()
    shift_low = SymbolEncoder._shift_low

    def counting_shift_low(enc):
        side = "fast" if enc is fast else "generic"
        calls[side] += 1
        if enc is fast and enc._cache_size > 1:
            calls["fast_pending"] += 1
        shift_low(enc)

    monkeypatch.setattr(SymbolEncoder, "_shift_low", counting_shift_low)
    rng = random.Random(21)
    values = [rng.choice((1, 1, 1, 2, rng.randrange(1, 300), rng.randrange(1, 1 << 20)))
              for _ in range(20000)]
    fast_model, generic_model = FreqModel(2), FreqModel(2)
    fast.put_deltas(fast_model, values)
    for v in values:
        generic_put_delta(generic, generic_model, v)
    assert (fast_model.counts, fast_model.total) == (generic_model.counts, generic_model.total)
    assert _coder_state(fast) == _coder_state(generic)
    # Each renormalisation writes or holds one byte: the generic coder's
    # calls count them all, so the difference is the bytes written inline.
    assert 0 < calls["fast"] < calls["generic"]
    assert calls["fast_pending"] > 0
    assert fast.finish() == generic.finish()


def _delta_values(rng, count):
    """Seeded values >= 1: mostly short codes, some of 256 and above, up to 2^40."""
    return [rng.choice((1, 1, 1, 2, 3, rng.randrange(1, 256), rng.randrange(256, 1 << 12),
                        rng.randrange(1, (1 << 40) + 1)))
            for _ in range(count)]


def test_delta_code_bits_is_the_per_bit_sum():
    # The closed form equals the per-bit oracle, rescales included.
    rng = random.Random(31)
    rescale_bits = RESCALE_TOTAL - 2  # the bits before a fresh model's first rescale
    cases = [[], [1], [1 << 40], [256], [255, 256, 257]]
    cases += [_delta_values(rng, rng.randrange(1, 200)) for _ in range(20)]
    long = _delta_values(rng, 12000)  # crosses at least two rescales
    assert len("".join(map(delta_code, long))) > 3 * RESCALE_TOTAL
    cases.append(long)
    cases.append([rng.randrange(1, 1 << 12) for _ in range(9000)] + [1 << 40])
    # Ends exactly at the first rescale: random codes, then 1s (one bit each).
    exact = _delta_values(rng, 2000)
    exact += [1] * (rescale_bits - len("".join(map(delta_code, exact))))
    model = FreqModel(2)
    for value in exact:
        for bit in map(int, delta_code(value)):
            model.update(bit)
    assert model.total < RESCALE_TOTAL // 2 + 2  # the last bit rescaled
    cases.append(exact)
    for values in cases:
        assert delta_code_bits(values) == pytest.approx(oracle_delta_code_bits(values), rel=1e-9)
    assert delta_code_bits([]) == 0
    for bad in (0, -1, -300):
        with pytest.raises(ValueError, match="integers >= 1"):
            delta_code_bits([3, bad])


def test_delta_code_bits_floors_the_payload():
    # One encoder's payload is at least (the ideal bits of its models) / 8
    # + 4 bytes, with no rounding: one sequence or two, empty ones among them.
    rng = random.Random(32)
    slack = []
    for _ in range(300):
        tables = [_delta_values(rng, rng.choice((0, rng.randrange(1, 50), rng.randrange(1, 3000))))
                  for _ in range(rng.choice((1, 2)))]
        enc = SymbolEncoder()
        for values in tables:
            enc.put_deltas(FreqModel(2), values)
        payload = enc.finish()
        slack.append(len(payload) - (sum(map(delta_code_bits, tables)) / 8 + 4))
    assert min(slack) >= 0
    assert min(slack) < 0.1  # close, so a floor that is off by a byte shows


@pytest.mark.parametrize("bad", [0, -1])
def test_put_deltas_error_keeps_the_codes_before_it(bad):
    # A value < 1 at position i raises, and the model and coder hold the
    # state that coding the first i values one by one leaves.
    rng = random.Random(12)
    values = [rng.randrange(1, 1 << rng.randrange(1, 40)) for _ in range(3000)]
    assert sum(len(delta_code(v)) for v in values) > 2 * RESCALE_TOTAL
    for i in (0, 1, 17, 1500, 3000):
        enc, ref = SymbolEncoder(), SymbolEncoder()
        model, ref_model = FreqModel(2), FreqModel(2)
        with pytest.raises(ValueError):
            enc.put_deltas(model, iter(values[:i] + [bad] + values[i:]))
        for v in values[:i]:
            generic_put_delta(ref, ref_model, v)
        assert (model.counts, model.total) == (ref_model.counts, ref_model.total), i
        assert _coder_state(enc) == _coder_state(ref), i
        payload = enc.finish()
        assert payload == ref.finish(), i
        dec, dec_model = SymbolDecoder(payload), FreqModel(2)
        assert [dec.get_delta(dec_model) for _ in range(i)] == values[:i]


def test_kth_order_roundtrip():
    rng = random.Random(6)
    for _ in range(200):
        sigma = rng.choice([2, 3, 4])
        k = rng.randrange(4)
        s = [rng.randrange(sigma) for _ in range(rng.randrange(0, 120))]
        payload = kth_order_encode(s, sigma, k)
        assert kth_order_decode(payload, len(s), sigma, k) == s


class _ChargeLog(Machine):
    """A machine that records every amount charged to it."""

    def __init__(self):
        super().__init__(MachineConfig(ModelKind.STANDARD, memory_budget_bits=1 << 40))
        self.charges = []

    def charge_memory(self, bits):
        self.charges.append(bits)
        super().charge_memory(bits)


def test_kth_order_matches_tuple_context_oracle():
    rng = random.Random(14)
    for sigma in (1, 2, 3, 52, 250):
        for k in (0, 1, 2, 3):
            # Skewed draws revisit contexts; n < k never reaches a full one.
            for n in (0, 1, k, k + 1, 300, 2000):
                s = [min(sigma - 1, int(rng.expovariate(0.3))) for _ in range(n)]
                got, want = _ChargeLog(), _ChargeLog()
                payload = kth_order_encode(s, sigma, k, machine=got)
                assert payload == oracle_kth_order_encode(s, sigma, k, machine=want), (sigma, k, n)
                assert got.charges == want.charges, (sigma, k, n)
                assert kth_order_decode(payload, n, sigma, k) == s, (sigma, k, n)
    for sigma, k in ((2, 7), (250, 40)):  # k > n
        s = [rng.randrange(sigma) for _ in range(5)]
        got, want = _ChargeLog(), _ChargeLog()
        payload = kth_order_encode(s, sigma, k, machine=got)
        assert payload == oracle_kth_order_encode(s, sigma, k, machine=want)
        assert got.charges == want.charges
        assert kth_order_decode(payload, len(s), sigma, k) == s


def test_kth_order_zero_matches_h0_plus_slack():
    rng = random.Random(7)
    n = 10**4
    s = [rng.randrange(2) for _ in range(n)]
    payload = kth_order_encode(s, 2, 0)
    assert len(payload) * 8 <= n * h0(s) + 0.1 * n + 64


def test_kth_order_deterministic_contexts_collapse():
    # (aabb)^i covers every 2-tuple once per period, so order-2 contexts
    # become deterministic and the per-symbol cost vanishes.
    n = 1 << 14
    s = ([0, 0, 1, 1] * (n // 4))[:n]
    payload = kth_order_encode(s, 2, 2)
    assert len(payload) * 8 < n / 4


def test_kth_order_memory_charge_tracks_contexts():
    machine = Machine(MachineConfig(ModelKind.STANDARD, memory_budget_bits=1 << 20))
    s = ([0, 0, 1, 1] * 64)[:256]
    kth_order_encode(s, 2, 2, machine=machine)
    peak = machine.ledger().peak_memory_bits
    # fallback + at most sigma^k context models + coder registers
    assert peak <= (1 + 4) * (16 * 3 + 2) + 128 + 16 + 64
    assert peak >= 4 * 16  # the contexts that do occur were charged


def test_kth_order_insufficient_budget_raises():
    from sbc.machine import BudgetExceededError

    machine = Machine(MachineConfig(ModelKind.STANDARD, memory_budget_bits=40))
    with pytest.raises(BudgetExceededError):
        kth_order_encode([0, 1] * 32, 2, 1, machine=machine)
