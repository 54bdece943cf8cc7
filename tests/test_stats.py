import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deathlab.rng import make_stream
from deathlab.stats import (
    SampleSummary,
    StatsError,
    kolmogorov_sf,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical,
    wilson_interval,
)


def test_summary_fields():
    summary = SampleSummary.from_samples([3.0, 1.0, 2.0, 4.0])
    assert summary.count == 4
    assert summary.mean == 2.5
    assert summary.sorted_values.tolist() == [1.0, 2.0, 3.0, 4.0]
    expected_stderr = np.std([1, 2, 3, 4], ddof=1) / 2
    assert summary.stderr == pytest.approx(expected_stderr, rel=1e-12)


def test_summary_rejects_empty():
    with pytest.raises(StatsError):
        SampleSummary.from_samples([])


def test_ks_statistic_null_distribution():
    # uniform samples against the uniform CDF: stays under the 1% threshold
    draws = make_stream(100, 0).generator.random(10**4)
    dist = ks_statistic(SampleSummary.from_samples(draws), lambda x: np.clip(x, 0.0, 1.0))
    assert dist < ks_critical_value(10**4, 0.01)
    assert dist > 0.0


def test_ks_statistic_degenerate_sample():
    # every sample at the median of a continuous reference: D = 1/2
    summary = SampleSummary.from_samples([0.5] * 1000)
    dist = ks_statistic(summary, lambda x: np.clip(x, 0.0, 1.0))
    assert dist == pytest.approx(0.5, abs=1e-12)


def test_ks_statistic_own_ecdf_is_zero():
    values = np.array([1.0, 1.0, 2.0, 4.0, 4.0, 7.0])
    summary = SampleSummary.from_samples(values)

    def own_cdf(x):
        return np.searchsorted(summary.sorted_values, x, side="right") / summary.count

    assert ks_statistic(summary, own_cdf, lattice=1.0) == 0.0


def test_ks_statistic_rejects_nonmonotone_reference():
    summary = SampleSummary.from_samples([1.0, 2.0, 3.0])
    with pytest.raises(StatsError):
        ks_statistic(summary, lambda x: -np.asarray(x))


def test_ks_lattice_mode_handles_coarse_atoms():
    # geometric(0.5) has atoms up to 1/2; the continuous convention would
    # report ~0.5 even for a perfect fit, the lattice mode does not
    gen = make_stream(100, 1).generator
    draws = np.floor(np.log1p(-gen.random(10**4)) / math.log(0.5)) + 1.0

    def cdf(t):
        return -np.expm1(np.asarray(t) * math.log(0.5))

    summary = SampleSummary.from_samples(draws)
    assert ks_statistic(summary, cdf, lattice=1.0) < ks_critical_value(10**4, 0.01)
    assert ks_statistic(summary, cdf) > 0.2  # continuous convention inflates


def test_two_sample_ks():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_two_sample(a, a) == 0.0
    assert ks_two_sample(a, a + 100.0) == 1.0
    with pytest.raises(StatsError):
        ks_two_sample(a, np.array([]))


def test_kolmogorov_tail_values():
    # classic fixed points of the asymptotic distribution
    assert kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=2e-4)
    assert kolmogorov_sf(1.6276) == pytest.approx(0.01, abs=1e-4)
    assert kolmogorov_sf(0.0) == 1.0


def test_critical_values():
    assert ks_critical_value(10**4, 0.01) == pytest.approx(0.016276, abs=5e-5)
    assert ks_critical_value(2 * 10**4, 0.01) == pytest.approx(0.01151, abs=5e-5)
    two = ks_two_sample_critical(10**4, 10**4, 0.01)
    assert two == pytest.approx(1.6276 * math.sqrt(2 / 10**4), abs=1e-4)
    with pytest.raises(StatsError):
        ks_critical_value(0, 0.01)


def test_wilson_extremes():
    low, _ = wilson_interval(0, 50, 0.99)
    _, high = wilson_interval(50, 50, 0.99)
    assert low == 0.0
    assert high == 1.0


def test_wilson_halfwidth_value():
    low, high = wilson_interval(50, 100, 0.99)
    assert (low + high) / 2 == pytest.approx(0.5, abs=1e-12)
    # z = 2.5758 gives half-width 0.12472 at p-hat = 1/2, m = 100
    assert (high - low) / 2 == pytest.approx(0.12472, abs=5e-4)
    assert low <= 0.5 <= high


def test_wilson_width_scales_inverse_sqrt():
    lo2, hi2 = wilson_interval(50, 100, 0.99)
    lo4, hi4 = wilson_interval(5000, 10**4, 0.99)
    ratio = (hi2 - lo2) / (hi4 - lo4)
    assert ratio == pytest.approx(10.0, rel=0.05)


def test_wilson_domain():
    with pytest.raises(StatsError):
        wilson_interval(5, 0, 0.99)
    with pytest.raises(StatsError):
        wilson_interval(5, 3, 0.99)
    with pytest.raises(StatsError):
        wilson_interval(1, 2, 1.5)


@settings(max_examples=50, deadline=None)
@given(
    successes=st.integers(min_value=0, max_value=1000),
    extra=st.integers(min_value=0, max_value=1000),
    level=st.floats(min_value=0.5, max_value=0.9999),
)
def test_wilson_contains_point_estimate(successes, extra, level):
    trials = successes + extra
    if trials == 0:
        return
    low, high = wilson_interval(successes, trials, level)
    assert 0.0 <= low <= successes / trials <= high <= 1.0
