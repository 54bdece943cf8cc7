"""Report builders reject inputs they cannot report on before simulating."""

import json
import math

import numpy as np
import pytest

from deathlab import experiments, limits
from deathlab.analytics import AnalyticReport, implosion_cumulants
from deathlab.oracle import MAX_STATE
from deathlab.regimes import Constant, InitialPower, JointPower, StatePower, Table


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


@pytest.mark.parametrize(
    "regime", [Constant(0.3), InitialPower(0.5, 1.0), StatePower(0.5, 0.5), JointPower(1.0, 4.0),
               Table({(1, 1): 0.5})],
)
def test_the_empty_path_has_probability_one_in_every_family(regime):
    # n = 0 has no level: the whole-path row alone, and no family's bound
    report, _ = experiments.build_path_report(0, regime, 100, 0)
    assert [(row.label.split(" [")[0], row.closed_form, row.passed) for row in report.rows] == [
        ("P(all drops single, n=0)", 1.0, True)
    ]


def _bound_sweep(beta, sweep):
    report, rows = experiments.build_path_report(3, JointPower(1.0, beta), 100, 0, sweep=sweep)
    row = next(row for row in report.rows if row.label.startswith("bound sweep"))
    return [value for _, value in rows], row.passed


def test_bound_sweep_accepts_equal_neighbours_only_at_one():
    # at beta - alpha = 3 the bound rounds to 1.0 once n(n-1)/2 n^-3 < 2^-53
    values, passed = _bound_sweep(4.0, [10, 10**20, 10**21])
    assert values[0] < values[1] == values[2] == 1.0 and passed
    # at beta - alpha = 1 it falls toward 0
    values, passed = _bound_sweep(2.0, [10, 100, 1000])
    assert values[0] > values[1] > values[2] and not passed


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


def test_passage_limit_expecting_too_few_finite_passages_is_refused_before_simulating(monkeypatch):
    # at n = 6 a passage from k = 5 is finite with chance 0.0032: 10 runs
    # expect 0.032 finite passages, too few for the KS row to test
    monkeypatch.setattr(experiments, "first_passage_batch", _no_simulation)
    monkeypatch.setattr(experiments, "make_stream", _no_simulation)
    with pytest.raises(ValueError, match="expects 0.032 finite passages"):
        experiments.build_passage_report(5, JointPower(1.0, 1.0), 2000, 0, n=10, limit_n=6, limit_samples=10)


def test_scaled_passage_rows_fail_their_ks_row_on_a_sample_without_a_finite_passage():
    # verify's rows at a tiny --samples can still meet an empty sample
    report = AnalyticReport()
    scaled = experiments._scaled_passage_rows(
        report, 5, 6, JointPower(1.0, 1.0), 10, experiments.make_stream(0, 1), 36.0, "k=5, n=6"
    )
    assert scaled.size == 0
    (row,) = report.rows
    assert not row.passed and row.note == "no finite passage in the sample to test"


def _limit_ks_row(seed):
    # passage --k 3 --regime initial_power:1,1 --lam 1 --limit-n 100 --limit-samples 20000
    report = AnalyticReport()
    experiments._scaled_passage_rows(
        report, 3, 100, InitialPower(1.0, 1.0), 20000, experiments.make_stream(seed, 1), 3.0, "k=3, n=100",
        lam=1.0,
    )
    return report.rows[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_passage_ks_row_reads_times_on_their_lattice(monkeypatch, seed):
    # the times j / a_n sit on a lattice; read as continuous, an atom of
    # mass about 0.03 counted as distance and failed correct draws
    assert _limit_ks_row(seed).passed
    exact = limits.first_passage_batch

    def faster(k, regime, rng, num_samples, n=None, workers=1):
        # mortality, and so the departure rate, scaled by 1.1
        regime = InitialPower(regime.a * 1.1, regime.gamma)
        return exact(k, regime, rng, num_samples, n=n, workers=workers)

    monkeypatch.setattr(limits, "first_passage_batch", faster)
    assert not _limit_ks_row(seed).passed


def _sweep_row_passes():
    # the benchmark's implode invocation: K=1000, 65536 runs, sweep 10,100,1000
    report, _, _ = experiments.build_implode_outputs(1.0, 1000, 65536, 0, sweep=[10, 100, 1000])
    return next(row for row in report.rows if row.label.startswith("truncation sweep")).passed


def test_implode_sweep_row_fails_on_wrong_stage_rates(monkeypatch):
    assert _sweep_row_passes()
    monkeypatch.setattr(
        limits, "_stage_rates", lambda alpha, K: np.arange(K, 0, -1, dtype=np.float64) ** (alpha + 1.2)
    )
    assert not _sweep_row_passes()


def test_implode_sweep_row_fails_on_wrong_rates_at_the_lowest_level(monkeypatch):
    # k^2.2 only for k <= 10: every gap between sweep levels is right, and
    # only the level totals, which all hold the stages k <= 10, can tell
    def rates(alpha, K):
        k = np.arange(K, 0, -1, dtype=np.float64)
        return np.where(k <= 10, k**2.2, k ** (alpha + 1.0))

    monkeypatch.setattr(limits, "_stage_rates", rates)
    assert not _sweep_row_passes()


def test_implode_reads_one_mean_off_the_chunks_sums():
    # 2000 runs are four chunks; the mean row and the sweep's top level,
    # K itself, print the same value and the law's half-width, and the
    # variance row reads the same totals
    report, rows, totals = experiments.build_implode_outputs(1.0, 100, 2000, 0, sweep=[10, 100])
    mean_row, var_row = report.rows[:2]
    assert mean_row.monte_carlo == (rows[-1].mean, 4 * rows[-1].stderr)
    assert rows[-1].stderr == math.sqrt(implosion_cumulants(1.0, 100)[0] / 2000)
    assert mean_row.monte_carlo[0] == pytest.approx(totals.mean(), rel=1e-14)
    assert var_row.monte_carlo[0] == pytest.approx(totals.var(ddof=1), rel=1e-12)


def test_implode_rejects_bad_sweep_levels_before_simulating(monkeypatch):
    monkeypatch.setattr(experiments, "implosion_batch", _no_simulation)
    monkeypatch.setattr(experiments, "make_stream", _no_simulation)
    for sweep in ([100, 10], [10, 10], [10, 2000]):
        with pytest.raises(ValueError, match="sweep levels"):
            experiments.build_implode_outputs(1.0, 1000, 100, 0, sweep=sweep)


def test_grid_row_of_an_exactly_agreeing_grid_shows_its_first_point():
    row = experiments._grid_row("x", [0.5, 0.25], [0.5, 0.25], ["a", "b"].__getitem__, 1e-12)
    assert row.passed
    assert (row.label, row.closed_form, row.oracle) == ("x (grid worst: a)", 0.5, 0.5)
    assert json.loads(AnalyticReport(rows=[row]).to_json())["pass"] is True


def test_grid_row_shows_the_first_worst_point():
    closed, oracle = [1.0, 1.0, 2.0, 2.0], [1.0, 1.5, 1.5, 2.25]
    row = experiments._grid_row("x", closed, oracle, "abcd".__getitem__, 1e-12)
    assert (row.label, row.closed_form, row.oracle, row.passed) == ("x (grid worst: b)", 1.0, 1.5, False)


def test_a_grid_point_is_named_in_loop_order():
    where = experiments._point("n={n}, c={c}, t={t}", c=(0.05, 0.3), n=range(1, 4), t=range(5))
    names = [f"n={n}, c={c}, t={t}" for c in (0.05, 0.3) for n in range(1, 4) for t in range(5)]
    assert [where(i) for i in range(len(names))] == names


def _failures(reports, prefix):
    return sum(not next(row for row in report.rows if row.label.startswith(prefix)).passed for report in reports)


def test_mean_rows_reject_correct_draws_near_their_nominal_rate():
    # four standard errors of a normal mean miss with chance 6e-5.  The
    # samples' own standard error, at 2 runs or 2 ratios, failed 38 mean
    # rows, 76 sweep rows and 36 ratio rows of these 200 seeds; the law's
    # fails a few, from the skew of T_K at 2 runs
    seeds = range(200)
    implode = [experiments.build_implode_outputs(1.0, 1000, 2, seed, sweep=[10, 100, 1000])[0] for seed in seeds]
    assert _failures(implode, "mean implosion time") <= 6
    assert _failures(implode, "truncation sweep") <= 6
    extinct = [
        experiments.build_extinct_report(
            5, Constant(0.3), [1], 10, seed, ratio_n=10**6, ratio_c=0.1, ratio_samples=2
        )[0]
        for seed in seeds
    ]
    assert _failures(extinct, "mean tau/d_n") <= 3
