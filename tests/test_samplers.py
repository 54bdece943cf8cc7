import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deathlab import (
    ProcessError,
    SamplerError,
    kernels,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical,
    make_stream,
    sample_exponential_batch,
    sample_geometric_batch,
    sample_max_geometric_batch,
    step,
    wilson_interval,
)
from deathlab.stats import SampleSummary
from gof import chi_square_gof


DRAW = kernels.get_backend(False).binomial_draw


def binomial_draws(stream, x, c, size):
    """``size`` Binomial(x, c) draws of the shared scalar ``binomial_draw``,
    fed the stream's doubles in order from ``gen.random(4096)`` blocks: the
    draws a loop of ``binomial_draw(stream.generator, x, c)`` gives."""

    def doubles():
        while True:
            yield from stream.generator.random(4096).tolist()

    gen = SimpleNamespace(random=doubles().__next__)
    return np.array([DRAW(gen, x, c) for _ in range(size)], dtype=np.int64)


def binomial_pmf(x, c):
    """Exact pmf oracle, independent of the samplers.

    Exact integer coefficients at small x; log-space lgamma above (giant
    integers get slow), both good far beyond chi-square resolution.
    """
    if x <= 200:
        cl = np.longdouble(c)
        q = np.longdouble(1.0) - cl
        return np.array(
            [math.comb(x, k) * cl**k * q ** (x - k) for k in range(x + 1)], dtype=np.float64
        )
    k = np.arange(x + 1, dtype=np.float64)
    log_comb = math.lgamma(x + 1) - np.array(
        [math.lgamma(v + 1) + math.lgamma(x - v + 1) for v in k]
    )
    return np.exp(log_comb + k * math.log(c) + (x - k) * math.log1p(-c))


def test_binomial_degenerate_probabilities():
    s = make_stream(0, 0)
    assert np.all(binomial_draws(s, 5, 0.0, 100) == 0)
    assert np.all(binomial_draws(s, 5, 1.0, 100) == 5)
    assert np.all(binomial_draws(s, 0, 0.3, 100) == 0)


def test_binomial_mean_band():
    draws = binomial_draws(make_stream(1, 0), 10, 0.3, 10**5)
    band = 3 * math.sqrt(10 * 0.3 * 0.7 / 10**5)  # 3 sigma of the sample mean
    assert abs(draws.mean() - 3.0) < band
    assert draws.min() >= 0 and draws.max() <= 10


@pytest.mark.parametrize("x", [1, 2, 10, 16, 50])
@pytest.mark.parametrize("c", [0.01, 0.3, 0.5, 0.9])
def test_binomial_chi_square_grid(x, c):
    draws = binomial_draws(make_stream(3, x * 100 + int(c * 100)), x, c, 10**5)
    observed = np.bincount(draws, minlength=x + 1).astype(float)
    expected = binomial_pmf(x, c) * 10**5
    _, _, p_value = chi_square_gof(observed, expected)
    assert p_value > 0.01, f"chi-square rejected at (x={x}, c={c}): p={p_value}"


@pytest.mark.parametrize("x,c", [(200, 0.3), (10**4, 0.47)])
def test_binomial_chi_square_rejection_regime(x, c):
    # exercises the transformed-rejection sampler (x * c > 14)
    draws = binomial_draws(make_stream(4, x), x, c, 10**5)
    observed = np.bincount(draws, minlength=x + 1).astype(float)
    expected = binomial_pmf(x, c) * 10**5
    _, _, p_value = chi_square_gof(observed, expected)
    assert p_value > 0.01, f"chi-square rejected at (x={x}, c={c}): p={p_value}"


def test_binomial_domain_errors():
    # process.step is the package's one checked binomial transition
    s = make_stream(0, 0)
    with pytest.raises(ProcessError):
        step(-1, 0.5, s)
    with pytest.raises(SamplerError):
        step(5, -0.1, s)
    with pytest.raises(SamplerError):
        step(5, 1.5, s)
    with pytest.raises(ProcessError):
        step(2**53 + 1, 0.5, s)


def test_geometric_certain_death():
    s = make_stream(0, 1)
    assert np.all(sample_geometric_batch(s, 1.0, 100) == 1)


def test_geometric_mean_band():
    draws = sample_geometric_batch(make_stream(5, 0), 0.5, 10**5)
    band = 3 * math.sqrt(2.0 / 10**5)  # variance (1-c)/c^2 = 2
    assert abs(draws.mean() - 2.0) < band
    assert draws.min() >= 1


def test_geometric_head_probability():
    draws = sample_geometric_batch(make_stream(5, 1), 0.25, 10**5)
    low, high = wilson_interval(int(np.count_nonzero(draws == 1)), 10**5, 0.99)
    assert low <= 0.25 <= high


def test_geometric_chi_square():
    c = 0.3
    draws = sample_geometric_batch(make_stream(5, 2), c, 10**5)
    t_max = 40
    observed = np.bincount(np.minimum(draws, t_max + 1), minlength=t_max + 2)[1:].astype(float)
    pmf = (1 - c) ** (np.arange(1, t_max + 1) - 1) * c
    expected = np.append(pmf, (1 - c) ** t_max) * 10**5  # last cell = tail mass
    _, _, p_value = chi_square_gof(observed, expected)
    assert p_value > 0.01


def test_geometric_domain_errors():
    s = make_stream(0, 2)
    with pytest.raises(SamplerError):
        sample_geometric_batch(s, 0.0, 1)
    with pytest.raises(SamplerError):
        sample_geometric_batch(s, 1.0001, 1)


def test_max_geometric_of_one_matches_geometric():
    a = sample_max_geometric_batch(make_stream(6, 0), 1, 0.3, 10**4)
    b = sample_geometric_batch(make_stream(6, 1), 0.3, 10**4)
    assert ks_two_sample(a, b) < ks_two_sample_critical(10**4, 10**4, 0.01)


def test_max_geometric_certain_death_at_huge_n():
    s = make_stream(6, 2)
    assert np.all(sample_max_geometric_batch(s, 10**6, 1.0, 50) == 1)


def test_max_geometric_cdf_ks():
    n, c, m = 100, 0.2, 10**5
    draws = sample_max_geometric_batch(make_stream(6, 3), n, c, m)
    lnq = math.log1p(-c)

    def cdf(t):
        with np.errstate(divide="ignore"):
            return np.exp(n * np.log1p(-np.exp(np.asarray(t, dtype=float) * lnq)))

    dist = ks_statistic(SampleSummary.from_samples(draws.astype(float)), cdf, lattice=1.0)
    assert dist < ks_critical_value(m, 0.01)


def test_max_geometric_matches_max_of_draws():
    # the O(1) inversion agrees with literally taking the max of n draws
    n, m = 100, 10**4
    inverted = sample_max_geometric_batch(make_stream(6, 4), n, 0.1, m)
    stream = make_stream(6, 5)
    direct = sample_geometric_batch(stream, 0.1, n * m).reshape(m, n).max(axis=1)
    assert ks_two_sample(inverted, direct) < ks_two_sample_critical(m, m, 0.01)


def test_max_geometric_handles_desk_scale_n():
    draws = sample_max_geometric_batch(make_stream(6, 6), 10**6, 0.1, 1000)
    assert draws.min() >= 1
    # typical size is d_n = ln(1e6)/|ln 0.9| ~ 131
    assert 100 < np.median(draws) < 170


def test_exponential_mean_and_survival():
    draws = sample_exponential_batch(make_stream(7, 0), 2.0, 10**5)
    assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(10**5)
    survivors = int(np.count_nonzero(sample_exponential_batch(make_stream(7, 1), 1.0, 10**5) > 1.0))
    low, high = wilson_interval(survivors, 10**5, 0.99)
    assert low <= math.exp(-1) <= high


def test_exponential_reproducible_and_positive():
    a = sample_exponential_batch(make_stream(8, 0), 1.0, 3)
    b = sample_exponential_batch(make_stream(8, 0), 1.0, 3)
    assert np.array_equal(a, b)
    assert np.all(a > 0)
    with pytest.raises(SamplerError):
        sample_exponential_batch(make_stream(8, 1), 0.0, 1)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=10**6),
    c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_binomial_support_property(x, c, seed):
    values = binomial_draws(make_stream(seed, 0), x, c, 4)
    assert np.all((values >= 0) & (values <= x))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2**53),
    c=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_max_geometric_support_property(n, c, seed):
    values = sample_max_geometric_batch(make_stream(seed, 1), n, c, 4)
    assert np.all(values >= 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_replay_property(seed):
    a = binomial_draws(make_stream(seed, 7), 20, 0.37, 50)
    b = binomial_draws(make_stream(seed, 7), 20, 0.37, 50)
    assert np.array_equal(a, b)
