"""Report builders reject inputs they cannot report on before simulating."""

import pytest

from deathlab import experiments
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
