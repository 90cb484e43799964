import math

import pytest

from sbc.adversary import (
    SeparationReport,
    db_power,
    de_bruijn,
    separation_experiment,
    verify_de_bruijn,
)
from sbc.entropy import hk


def test_small_sequences():
    assert de_bruijn(2, 1).d == (0, 1)
    assert de_bruijn(2, 2).d == (0, 0, 1, 1)


def test_generated_sequences_verify():
    for sigma in (2, 3, 4):
        for k in range(1, 7):
            if sigma ** k > 1 << 14:
                continue
            prefix = de_bruijn(sigma, k)
            assert len(prefix.d) == sigma ** k
            assert verify_de_bruijn(prefix.d, k)


def test_generation_limits():
    with pytest.raises(ValueError):
        de_bruijn(2, 40)  # sigma**k beyond the configured cap
    with pytest.raises(ValueError):
        de_bruijn(1, 3)
    with pytest.raises(ValueError):
        de_bruijn(2, 0)


def test_verify_rejects_non_covering():
    assert verify_de_bruijn([0, 1, 0, 1], 2) is False  # the (0,0) pair never occurs
    with pytest.raises(ValueError):
        verify_de_bruijn([0, 1, 0], 2)  # wrong length
    with pytest.raises(ValueError):
        verify_de_bruijn([0], 0)  # orders start at 1, as in de_bruijn


def test_power_properties():
    prefix = de_bruijn(2, 2)
    assert db_power(prefix, 2) == [0, 0, 1, 1, 0, 0, 1, 1]
    assert len(db_power(prefix, 5)) == 5 * 4
    with pytest.raises(ValueError):
        db_power(prefix, 0)


def test_power_entropy_vanishes():
    for sigma, k in [(2, 3), (2, 5), (3, 2)]:
        prefix = de_bruijn(sigma, k)
        for reps in (4, 16):
            s = db_power(prefix, reps)
            assert hk(s, k, cyclic=True) == pytest.approx(0.0, abs=1e-12)
            assert hk(s, k) <= (k / len(s)) * math.log2(sigma) + 1e-12


def test_experiment_parameters_checked():
    with pytest.raises(ValueError):
        separation_experiment(4096, 0.2, 0.25)


@pytest.mark.parametrize("c, epsilon", [(math.nan, 0.25), (0.2, 0.25)])
def test_experiment_checks_exponents_with_the_plan_message(c, epsilon):
    # The exponents are checked before log2 and ceil see them, with BlockPlan's message.
    with pytest.raises(ValueError, match=r"^need 1 - epsilon > c > epsilon > 0$"):
        separation_experiment(4096, c, epsilon)


def test_experiment_report_fields():
    report = separation_experiment(2**12, 0.5, 0.25)
    assert isinstance(report, SeparationReport)
    assert report.k == math.ceil(0.625 * 12)
    assert report.size_full_bits <= report.size_block_bits
    assert report.ratio == report.size_block_bits / report.size_full_bits


def test_separation_grows_with_n(calibration):
    reports = [separation_experiment(n, 0.5, 0.25) for n in (2**12, 2**14, 2**16)]
    ratios = [r.ratio for r in reports]
    assert ratios == sorted(ratios)
    assert ratios[-1] >= calibration["separation_min_ratio"]
    assert reports[-1].k == math.ceil(0.625 * 16)
    for report in reports:
        assert report.size_full_bits <= report.size_block_bits
