import random

import pytest

from conftest import faithful_tape_merge_sort
from sbc.machine import (
    INPUT,
    OUTPUT,
    REWRITE,
    WRITE,
    BudgetExceededError,
    CapabilityError,
    ExpansionError,
    Machine,
    MachineConfig,
    MachineError,
    ModelKind,
    tape_merge_sort,
)


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


def test_tape_bits_track_every_change():
    def check(machine):
        for tape in machine.tapes.values():
            assert tape.bits() == 8 * sum(map(len, tape.records))

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
