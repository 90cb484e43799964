import random

import pytest

from conftest import faithful_tape_merge_sort
from sbc.machine import (
    FORWARD,
    INPUT,
    OUTPUT,
    READ,
    REVERSE,
    REWRITE,
    WRITE,
    BudgetExceededError,
    CapabilityError,
    ExpansionError,
    Machine,
    MachineConfig,
    MachineError,
    MachineLedger,
    ModelKind,
    tape_merge_sort,
)
from sbc.pipelines import BlockPlan, block_encode, dc_ac_encode_stream, encode_kth_order
from sbc.stream_bwt import (
    _char,
    _rank_key,
    rw_bwt_encode,
    rw_bwt_invert,
    rw_suffix_array,
)
from sbc.stream_st import streamsort_st, streamsort_st_best_k
from sbc.transforms import bwt


def cfg(model, budget=1 << 20, **kw):
    return MachineConfig(model, memory_budget_bits=budget, **kw)


def test_machine_fresh_ledger():
    m = Machine(cfg(ModelKind.STANDARD, 1024), b"abc")
    led = m.ledger()
    assert led.passes == 0 and led.sort_passes == 0 and led.peak_memory_bits == 0
    assert len(m.tapes[INPUT].records) == 3


def test_machine_empty_input_allowed():
    m = Machine(cfg(ModelKind.READ_WRITE, 2048, work_tapes=2), b"")
    assert m.tapes[INPUT].records == []
    assert "work1" in m.tapes


def test_config_rejections():
    with pytest.raises(ValueError):
        MachineConfig(ModelKind.STANDARD, 0)
    with pytest.raises(ValueError):
        MachineConfig(ModelKind.STANDARD, 1024, work_tapes=1)
    with pytest.raises(ValueError):
        MachineConfig(ModelKind.READ_WRITE, 1024, work_tapes=-1)


def test_standard_single_input_pass():
    m = Machine(cfg(ModelKind.STANDARD), b"xy")
    with m.begin_pass(INPUT) as p:
        assert p.read_all() == [b"x", b"y"]
    with pytest.raises(CapabilityError):
        m.begin_pass(INPUT)
    assert m.ledger().passes == 1


def test_multipass_counts_rewinds():
    m = Machine(cfg(ModelKind.MULTIPASS), b"abc")
    for _ in range(3):
        with m.begin_pass(INPUT) as p:
            p.read_all()
    assert m.ledger().passes == 3


def test_output_tape_is_write_only():
    m = Machine(cfg(ModelKind.STANDARD), b"a")
    m.write_output(b"zz")
    assert m.ledger().total_output_bits == 16
    with pytest.raises(CapabilityError):
        m.begin_pass("output")


def test_wstreams_expansion_enforced():
    m = Machine(cfg(ModelKind.W_STREAMS), bytes(100))
    lines = []
    m.trace = lines.append
    with pytest.raises(ExpansionError):
        with m.begin_pass(INPUT, mode=REWRITE) as p:
            # triples the tape against a factor-two bound
            p.write_many([rec * 3 for rec in p.read_all()])
    # The rejected pass is counted and closed; the tape keeps its records.
    assert m.tapes[INPUT].records == [bytes(1)] * 100
    assert m.ledger().passes == 1 and m.ledger().per_pass_tape_bits == [800]
    assert lines == ["pass=1 tape=input dir=fwd bytes_in=100 bytes_out=300 mem_peak=0"]
    with m.begin_pass(INPUT, mode=REWRITE) as p:
        p.write_many([rec + rec for rec in p.read_all()])
    assert m.tapes[INPUT].bits() == 1600
    assert m.ledger().per_pass_tape_bits == [800, 1600]


def test_wstreams_doubling_is_fine():
    m = Machine(cfg(ModelKind.W_STREAMS), bytes(100))
    with m.begin_pass(INPUT, mode=REWRITE) as p:
        p.write_many([rec + rec for rec in p.read_all()])
    assert m.tapes[INPUT].bits() == 1600


def test_rewrite_needs_capable_model():
    m = Machine(cfg(ModelKind.MULTIPASS), b"ab")
    with pytest.raises(CapabilityError):
        m.begin_pass(INPUT, mode=REWRITE)


def test_sort_pass_stability_and_counting():
    m = Machine(cfg(ModelKind.STREAM_SORT), b"baa")
    m.sort_pass(key=lambda r: r)
    assert m.tapes[INPUT].records == [b"a", b"a", b"b"]
    led = m.ledger()
    assert led.sort_passes == 1 and led.passes == 1


def test_sort_pass_idempotent_on_sorted():
    m = Machine(cfg(ModelKind.STREAM_SORT), b"abc")
    m.sort_pass(key=lambda r: r)
    assert m.tapes[INPUT].records == [b"a", b"b", b"c"]
    assert m.ledger().sort_passes == 1


def test_sort_pass_wrong_model():
    m = Machine(cfg(ModelKind.MULTIPASS), b"ab")
    with pytest.raises(CapabilityError):
        m.sort_pass(key=lambda r: r)


def test_sort_pass_matches_reference_stable_sort():
    rng = random.Random(5)
    records = [bytes([rng.randrange(4), i]) for i in range(64)]
    m = Machine(cfg(ModelKind.STREAM_SORT))
    m.tapes[INPUT].records = list(records)
    m.sort_pass(key=lambda r: r[:1])
    assert m.tapes[INPUT].records == sorted(records, key=lambda r: r[:1])


def test_memory_charging():
    m = Machine(cfg(ModelKind.STANDARD, budget=100))
    m.charge_memory(64)
    m.charge_memory(32)
    assert m.ledger().peak_memory_bits == 96
    m.charge_memory(0)  # no-op
    assert m.ledger().peak_memory_bits == 96


def test_memory_budget_overrun():
    m = Machine(cfg(ModelKind.STANDARD, budget=100))
    m.charge_memory(64)
    with pytest.raises(BudgetExceededError):
        m.charge_memory(64)


def test_memory_release_below_zero():
    m = Machine(cfg(ModelKind.STANDARD, budget=100))
    m.charge_memory(10)
    with pytest.raises(ValueError):
        m.release_memory(11)
    with pytest.raises(ValueError):
        m.charge_memory(-1)


def test_ledger_snapshots_are_independent():
    m = Machine(cfg(ModelKind.MULTIPASS), b"ab")
    a = m.ledger()
    b = m.ledger()
    assert a == b
    with m.begin_pass(INPUT) as p:
        p.read_all()
    assert m.ledger().passes == a.passes + 1
    assert a == b  # old snapshots unaffected


def test_pass_counts_when_it_closes():
    m = Machine(cfg(ModelKind.MULTIPASS), b"ab")
    with m.begin_pass(INPUT) as p:
        p.read_all()
        led = m.ledger()
        assert led.passes == 0 and led.per_pass_tape_bits == []
    led = m.ledger()
    assert led.passes == 1 and led.per_pass_tape_bits == [16]


def test_reverse_read_only_in_read_write():
    m = Machine(cfg(ModelKind.READ_WRITE, work_tapes=1), b"abc")
    with m.begin_pass(INPUT, direction="rev") as p:
        assert p.read_all() == [b"c", b"b", b"a"]
    m2 = Machine(cfg(ModelKind.MULTIPASS), b"abc")
    with pytest.raises(CapabilityError):
        m2.begin_pass(INPUT, direction="rev")


def test_per_pass_tape_bits_recorded():
    m = Machine(cfg(ModelKind.W_STREAMS), b"ab")
    with m.begin_pass(INPUT, mode=REWRITE) as p:
        p.write_many([rec + rec for rec in p.read_all()])
    assert m.ledger().per_pass_tape_bits == [32]


def test_read_all_returns_a_copy():
    m = Machine(cfg(ModelKind.READ_WRITE, work_tapes=1), b"abc")
    for direction in ("fwd", "rev"):
        with m.begin_pass(INPUT, direction=direction) as p:
            records = p.read_all()
            records[0] = b"zzzz"
            records.append(b"y")
            del records[1]
        assert m.tapes[INPUT].records == [b"a", b"b", b"c"]
        assert m.tapes[INPUT].bits() == 24


def test_tape_merge_sort_is_stable():
    rng = random.Random(11)
    m = Machine(cfg(ModelKind.READ_WRITE, work_tapes=3), b"")
    records = [bytes([rng.randrange(3), i]) for i in range(97)]
    m.tapes["work0"].records = list(records)
    tape_merge_sort(m, "work0", lambda r: r[:1], "work1", "work2")
    assert m.tapes["work0"].records == sorted(records, key=lambda r: r[:1])
    # six sweeps per doubling level
    assert m.ledger().passes == 6 * 7


def test_overlapping_passes_on_one_tape_rejected():
    m = Machine(cfg(ModelKind.MULTIPASS), b"ab")
    p = m.begin_pass(INPUT)
    with pytest.raises(MachineError):
        m.begin_pass(INPUT)
    p.close()


def test_trace_line_format():
    m = Machine(cfg(ModelKind.MULTIPASS), b"abc")
    lines = []
    m.trace = lines.append
    m.charge_memory(12)
    with m.begin_pass(INPUT) as p:
        p.read_all()
    assert lines == ["pass=1 tape=input dir=fwd bytes_in=3 bytes_out=0 mem_peak=12"]


def _sorted_twice(records, key, tape_id="work0", scratch=("work1", "work2"), scratch_records=()):
    """Sort the same tape with the library and with the faithful merge.

    Returns, per side, every tape's records and bits, the ledger and the
    trace lines.
    """
    sides = []
    for sort in (tape_merge_sort, faithful_tape_merge_sort):
        m = Machine(cfg(ModelKind.READ_WRITE, work_tapes=3), b"")
        m.tapes[tape_id].records = list(records)
        for name in scratch:
            m.tapes[name].records = list(scratch_records)
        m.charge_memory(40)
        lines = []
        m.trace = lines.append
        sort(m, tape_id, key, *scratch)
        led = m.ledger()
        sides.append((
            {name: (t.records, t.bits()) for name, t in m.tapes.items()},
            (led.passes, led.peak_memory_bits, led.total_output_bits, led.per_pass_tape_bits),
            lines,
        ))
    return sides


def test_tape_merge_sort_matches_faithful_merge():
    rng = random.Random(17)
    for n in range(71):
        width = rng.choice([None, 1, 3])  # None: widths vary per record
        records = [
            bytes(rng.randrange(4) for _ in range(width or rng.randrange(1, 6)))
            for _ in range(n)
        ]
        by_first = lambda r: r[:1]
        cases = [
            (records, by_first),
            (records, lambda r: r),
            (records, lambda r: 0),  # all keys equal
            (sorted(records), lambda r: r),
            (sorted(records, reverse=True), lambda r: r),
        ]
        for recs, key in cases:
            new, old = _sorted_twice(recs, key, scratch_records=[b"junk"])
            assert new == old, (n, recs)
            assert new[0]["work0"][0] == sorted(recs, key=key)
        new, old = _sorted_twice(records, by_first, tape_id=INPUT, scratch=("work0", "work1"))
        assert new == old, n


def test_tape_merge_sort_matches_faithful_merge_on_doubling_keys():
    # The prefix-doubling sorts' own keys, None for whole records.  Every
    # other record copies its key fields from an earlier one, so keys repeat;
    # a whole-record sort repeats whole records.
    # Sizes around powers of two make the last level split off a one-record
    # run.
    rng = random.Random(23)
    cases = [
        (5, _char, [slice(4, 5)]),
        (10, None, [slice(0, 10)]),
        (13, None, [slice(0, 13)]),
        (10, _rank_key, [slice(6, 10)]),
    ]
    for j in range(1, 8):
        for n in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            for width, key, fields in cases:
                records = []
                for i in range(n):
                    rec = bytearray(rng.randrange(256) for _ in range(width))
                    if i % 2:
                        earlier = records[rng.randrange(i)]
                        for field in fields:
                            rec[field] = earlier[field]
                    records.append(bytes(rec))
                assert n < 2 or len(set(map(key or bytes, records))) < n
                new, old = _sorted_twice(records, key, scratch_records=[b"junk"])
                assert new == old, (n, width)
                assert new[0]["work0"][0] == sorted(records, key=key)


def _refusal(machine, *pass_args):
    """The error class and message with which ``machine`` refuses a pass."""
    with pytest.raises((MachineError, ValueError)) as err:
        machine.begin_pass(*pass_args)
    return type(err.value), str(err.value)


def test_cached_pass_checks_still_refuse():
    # Each model's forbidden passes, refused after its permitted ones as on a fresh machine.
    cases = {
        ModelKind.READ_WRITE: (
            [(INPUT, FORWARD, READ), (INPUT, REVERSE, READ), (INPUT, FORWARD, WRITE),
             ("work0", FORWARD, REWRITE), ("work0", REVERSE, READ)],
            [(INPUT, REVERSE, WRITE), ("work0", REVERSE, REWRITE), (OUTPUT, FORWARD, READ),
             (OUTPUT, FORWARD, WRITE), ("work1", FORWARD, READ), (INPUT, "sideways", READ)],
        ),
        ModelKind.STANDARD: (
            [(INPUT, FORWARD, READ)],
            [(INPUT, REVERSE, READ), (INPUT, FORWARD, REWRITE), (OUTPUT, FORWARD, WRITE),
             ("work0", FORWARD, READ)],
        ),
        ModelKind.W_STREAMS: (
            [(INPUT, FORWARD, REWRITE), (INPUT, FORWARD, READ)],
            [(INPUT, FORWARD, WRITE), (INPUT, REVERSE, REWRITE)],
        ),
    }
    for model, (permitted, forbidden) in cases.items():
        work = {"work_tapes": 1} if model is ModelKind.READ_WRITE else {}
        fresh = [_refusal(Machine(cfg(model, **work), b"ab"), *args) for args in forbidden]
        m = Machine(cfg(model, **work), b"ab")
        for args in permitted:
            m.begin_pass(*args).close()
        for _ in range(2):  # a refusal is not remembered as a permission either
            assert [_refusal(m, *args) for args in forbidden] == fresh, model
    # The standard model's one input read is state, not permission.
    m = Machine(cfg(ModelKind.STANDARD), b"ab")
    m.begin_pass(INPUT).close()
    for _ in range(2):
        assert _refusal(m, INPUT) == (CapabilityError, "standard model permits exactly one input pass")
    assert m.ledger().passes == 1


def test_standard_model_refuses_a_second_input_pass_while_the_first_is_open():
    m = Machine(cfg(ModelKind.STANDARD), b"ab")
    with m.begin_pass(INPUT):
        assert _refusal(m, INPUT) == (CapabilityError, "standard model permits exactly one input pass")
    assert m.ledger().passes == 1


def test_pass_checks_are_per_machine():
    # What a read-write machine was permitted, a machine of another model is not.
    rw = Machine(cfg(ModelKind.READ_WRITE, work_tapes=1), b"ab")
    for args in ((INPUT, REVERSE, READ), (INPUT, FORWARD, WRITE), (INPUT, FORWARD, REWRITE),
                 ("work0", FORWARD, READ)):
        rw.begin_pass(*args).close()
    for model in (ModelKind.STANDARD, ModelKind.MULTIPASS, ModelKind.W_STREAMS, ModelKind.STREAM_SORT):
        other = Machine(cfg(model), b"ab")
        with pytest.raises(CapabilityError, match="reverse sweeps"):
            other.begin_pass(INPUT, REVERSE)
        with pytest.raises(CapabilityError, match="truncating write passes"):
            other.begin_pass(INPUT, FORWARD, WRITE)
        with pytest.raises(CapabilityError, match="no tape 'work0'"):
            other.begin_pass("work0")
        if model in (ModelKind.STANDARD, ModelKind.MULTIPASS):
            with pytest.raises(CapabilityError, match="cannot rewrite"):
                other.begin_pass(INPUT, FORWARD, REWRITE)


def test_tape_bits_track_every_change():
    def check(machine):
        for tape in machine.tapes.values():
            assert tape.bits() == 8 * sum(map(len, tape.records))
        led = machine.ledger()
        assert led.passes == len(led.per_pass_tape_bits)
        assert led.total_output_bits == machine.tapes[OUTPUT].bits()

    m = Machine(cfg(ModelKind.READ_WRITE, work_tapes=3), b"abcde")
    lines = []
    m.trace = lines.append
    check(m)
    with m.begin_pass(INPUT) as p:
        p.read_all()
        assert p.read_all() == []  # the head rests at the end
    check(m)
    with m.begin_pass(INPUT, direction="rev") as p:
        p.read_all()
        assert p.read_all() == []
    check(m)
    assert [line.split()[3] for line in lines] == ["bytes_in=5", "bytes_in=5"]
    with m.begin_pass("work0", mode=WRITE) as p:
        p.write_many([b"xyz"])
        p.write_many([b"", b"pq", b"r"])
    check(m)
    with m.begin_pass(INPUT, mode=REWRITE) as p:
        p.write_many([rec * 2 for rec in p.read_all()])
    check(m)
    m.write_output(b"out")
    check(m)
    m.write_output(b"")
    check(m)
    m.tapes["work1"].records = [b"zz", b"y", b"xxx"]
    check(m)
    tape_merge_sort(m, "work1", lambda r: r, "work0", "work2")
    check(m)
    tape_merge_sort(m, INPUT, lambda r: r[-1:], "work1", "work2")
    check(m)
    assert m.tapes[OUTPUT].bits() == 24

    s = Machine(cfg(ModelKind.STREAM_SORT), b"cab")
    with s.begin_pass(INPUT, mode=REWRITE) as p:
        p.write_many([rec + b"!" for rec in p.read_all()])
    check(s)
    s.sort_pass(key=lambda r: r)
    check(s)
    with pytest.raises(ExpansionError):
        with s.begin_pass(INPUT, mode=REWRITE) as p:
            p.write_many([rec * 10 for rec in p.read_all()])
    check(s)
    assert s.tapes[INPUT].records == [b"a!", b"b!", b"c!"]


_S = [0, 1, 1, 0, 1, 0, 0, 1]
_T = bwt(_S)
_T_TAPE = bytes(c + 1 for c in _T)  # the transform's input tape: ranks plus one, sentinel 0
_RW, _ST = ModelKind.READ_WRITE, ModelKind.STREAM_SORT


def _wrong_length(model, work_tapes, tape):
    return (model, work_tapes, tape + b"\x01", ValueError)


# Each machine stage with the machines it must refuse, as (model, work tapes,
# input tape, error).  A stage of the standard model runs on every model, so
# only the stages of stronger models have a wrong model; only a stage that
# reads a string ``s`` from the input tape has an input length to get wrong.
_REFUSALS = {
    "rw_bwt_encode": (lambda m: rw_bwt_encode(_S, m), [
        (_ST, 0, bytes(_S), CapabilityError),
        (_RW, 3, bytes(_S), CapabilityError),
        _wrong_length(_RW, 4, bytes(_S))]),
    "rw_suffix_array": (lambda m: rw_suffix_array(_S, m), [
        (ModelKind.STANDARD, 0, bytes(_S), CapabilityError),
        (_RW, 0, bytes(_S), CapabilityError),
        _wrong_length(_RW, 4, bytes(_S))]),
    "rw_bwt_invert": (lambda m: rw_bwt_invert(_T, m), [
        (ModelKind.W_STREAMS, 0, _T_TAPE, CapabilityError),
        (_RW, 2, _T_TAPE, CapabilityError),
        _wrong_length(_RW, 4, _T_TAPE)]),
    "streamsort_st": (lambda m: streamsort_st(_S, 1, machine=m, sigma=2), [
        (ModelKind.MULTIPASS, 0, bytes(_S), CapabilityError),
        (_RW, 4, bytes(_S), CapabilityError),
        _wrong_length(_ST, 0, bytes(_S))]),
    # best-k loads s onto the input tape itself, so any input tape will do.
    "streamsort_st_best_k": (lambda m: streamsort_st_best_k(_S, 2, machine=m, sigma=2), [
        (ModelKind.STANDARD, 0, b"", CapabilityError),
        (_RW, 4, bytes(_S), CapabilityError)]),
    "dc_ac_encode_stream": (lambda m: dc_ac_encode_stream(m, 2), [
        (ModelKind.STANDARD, 0, _T_TAPE, CapabilityError),
        (_RW, 0, _T_TAPE, CapabilityError)]),
    "encode_kth_order": (lambda m: encode_kth_order(_S, 2, 1, machine=m), [
        _wrong_length(ModelKind.STANDARD, 0, bytes(_S))]),
    "block_encode": (lambda m: block_encode(_S, 2, BlockPlan.for_length(len(_S), 0.5, 0.25),
                                            machine=m), [
        _wrong_length(ModelKind.STANDARD, 0, bytes(_S))]),
}


@pytest.mark.parametrize("stage", sorted(_REFUSALS))
def test_every_stage_refuses_a_machine_before_it_runs(stage):
    run, refusals = _REFUSALS[stage]
    for model, work_tapes, tape, error in refusals:
        machine = Machine(cfg(model, work_tapes=work_tapes), tape)
        with pytest.raises(error):
            run(machine)
        # No pass ran and nothing stays charged.
        assert machine.ledger() == MachineLedger(), (model, work_tapes)
        machine.charge_memory(machine.config.memory_budget_bits)


def test_require_refuses_a_tape_symbol_outside_sigma():
    m = Machine(cfg(ModelKind.STANDARD), bytes([1, 0, 7, 3, 9]))
    m.require(length=5, sigma=10)
    # The first symbol not below sigma is named; a wrong length comes first.
    with pytest.raises(ValueError, match="^symbol 7 out of alphabet$"):
        m.require(length=5, sigma=5)
    with pytest.raises(ValueError, match="machine input does not match"):
        m.require(length=4, sigma=5)
    assert m.ledger() == MachineLedger()
    # A symbol is a record's first byte.
    m.tapes[INPUT].records = [b"\x01\xff", b"\x00\x09"]
    m.require(sigma=2)
    # With no sigma nothing is read: a record with no first byte passes.
    m.tapes[INPUT].records = [b"", b"\x07"]
    m.require(length=2)
    assert m.ledger() == MachineLedger()
