"""Report builders reject inputs they cannot report on before simulating."""

import pytest

from deathlab import experiments
from deathlab.oracle import MAX_STATE
from deathlab.regimes import Constant, JointPower


def _no_simulation(*args, **kwargs):
    raise AssertionError("the builder simulated before validating its inputs")


def test_extinct_report_rejects_state_dependent_regime_before_simulating(monkeypatch):
    monkeypatch.setattr(experiments, "extinction_time_batch", _no_simulation)
    with pytest.raises(ValueError, match="state-independent"):
        experiments.build_extinct_report(20, JointPower(1.0, 4.0), [0, 5], 100, 0)


def test_path_report_rejects_sweep_without_joint_regime_before_simulating(monkeypatch):
    monkeypatch.setattr(experiments, "first_passage_batch", _no_simulation)
    monkeypatch.setattr(experiments, "single_drop_batch", _no_simulation)
    with pytest.raises(ValueError, match="joint-power regime only"):
        experiments.build_path_report(3, Constant(0.3), 100, 0, sweep=[10, 100])


def _finite_mass_row(k, c, samples=200):
    report, _ = experiments.build_passage_report(k, Constant(c), samples, 0)
    return next(row for row in report.rows if row.label.startswith("P(T finite)"))


def test_passage_finite_mass_is_checked_against_the_jump_law(monkeypatch):
    # at k=2, c=2e-9 the mass is 1 - c/(2-c), the one-death entry of the
    # jump law; a pmf series truncated at 400 steps holds about half of it
    row = _finite_mass_row(2, 2e-9)
    assert row.passed
    assert row.oracle == pytest.approx(0.999999999, abs=1e-15)
    exact = experiments.single_drop_prob
    monkeypatch.setattr(experiments, "single_drop_prob", lambda k, c: exact(k, c) - 1e-9)
    assert not _finite_mass_row(2, 2e-9).passed


def test_passage_finite_mass_above_the_oracle_cap_says_so():
    row = _finite_mass_row(MAX_STATE + 1, 0.01, samples=50)
    assert row.oracle is None
    assert row.note == "no oracle"
