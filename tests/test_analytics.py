import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deathlab import (
    AnalyticReport,
    AnalyticsError,
    Constant,
    InitialPower,
    JointPower,
    ReportRow,
    StatePower,
    extinction_cdf,
    implosion_expected_time,
    limit_passage_rate,
    mgf_by_summation,
    passage_mgf,
    passage_mgf_domain,
    passage_pmf,
    path_prob_lower_bound_constant,
    path_prob_lower_bound_joint,
    path_prob_lower_bound_state,
    single_drop_path_prob,
    single_drop_prob,
    typical_extinction_time,
)
from deathlab.analytics import (
    SUM_BLOCK, block_sum, expected_extinction_terms, expected_extinction_time, extinction_time_variance,
    extinction_variance_terms, implosion_cumulants,
)
from deathlab import analytics
from deathlab.oracle import exact_extinction_curve, exact_single_drop_path_prob

ZETA_3 = 1.2020569031595943  # reference constant for sum k^-3


class TestExtinctionCdf:
    def test_zero_at_time_zero(self):
        for n in (1, 7, 100):
            for c in (0.05, 0.5, 0.95):
                assert extinction_cdf(n, c, 0) == 0.0

    def test_spot_values(self):
        assert extinction_cdf(1, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert extinction_cdf(2, 0.5, 2) == pytest.approx(0.5625, abs=1e-15)

    def test_matches_geometric_cdf_at_n1(self):
        for c in (0.05, 0.3, 0.7, 0.95):
            for t in range(1, 51):
                reference = -math.expm1(t * math.log1p(-c))
                assert extinction_cdf(1, c, t) == pytest.approx(reference, rel=1e-15)

    def test_monotonicity_grid(self):
        cs = np.linspace(0.05, 0.95, 10)
        for n in range(1, 21):
            for c in cs:
                values = [extinction_cdf(n, c, t) for t in range(51)]
                assert all(b >= a for a, b in zip(values, values[1:]))
        for t in (1, 5, 20, 50):
            for c in cs:
                values = [extinction_cdf(n, c, t) for n in range(1, 21)]
                assert all(b <= a for a, b in zip(values, values[1:]))
            for n in (1, 5, 20):
                values = [extinction_cdf(n, c, t) for c in cs]
                assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(AnalyticsError):
            extinction_cdf(0, 0.5, 1)
        with pytest.raises(AnalyticsError):
            extinction_cdf(1, 0.0, 1)
        with pytest.raises(AnalyticsError):
            extinction_cdf(1, 0.5, -1)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
    def test_an_array_of_times_equals_the_scalar_bit_for_bit(self, dtype):
        times = np.array([[0, 1, 7], [40, 200, 3]], dtype=dtype)
        for n, c in ((1, 0.05), (50, 0.2), (10**6, 0.1), (2**60, 0.3)):
            values = extinction_cdf(n, c, times)
            assert values.shape == times.shape and values.dtype == np.float64
            assert values.tolist() == [[extinction_cdf(n, c, int(t)) for t in row] for row in times.tolist()]

    @pytest.mark.parametrize("bad", [np.array([1, -1]), np.array([1.0, 2.5]), np.array([0.0, math.nan]),
                                     np.array([True, False]), np.array(["1", "2"])],
                             ids=["negative", "fraction", "nan", "bool", "string"])
    def test_an_array_with_one_time_outside_the_rule_is_refused(self, bad):
        with pytest.raises(AnalyticsError, match="t must be an integer"):
            extinction_cdf(3, 0.3, bad)


def _reference():
    # the benchmark's closed forms, written without deathlab
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExtinctionTimeVariance:
    def test_matches_the_benchmark_reference(self):
        # both sum E tau^2 = sum (2t+1) P(tau > t), each to its own tail
        mean, variance = _reference().extinction_moments(10**6, 0.1)
        assert variance == pytest.approx(148.264311055, rel=1e-11)
        assert extinction_time_variance(10**6, 0.1) == pytest.approx(variance, rel=1e-12)
        assert expected_extinction_time(10**6, 0.1) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_matches_the_dp_oracles_pmf(self, n, c):
        # the DP's law of tau up to t = 200 holds all but 30 (1-c)^200 of its mass
        cdf = exact_extinction_curve(n, Constant(c), 200)
        assert cdf[-1] == 1.0
        t, pmf = np.arange(1, 201), np.diff(cdf)
        mean = math.fsum(t * pmf)
        variance = math.fsum((t - mean) ** 2 * pmf)
        assert extinction_time_variance(n, c) == pytest.approx(variance, rel=1e-12)

    def test_the_geometric_law_at_n1(self):
        # tau from 1 is Geometric(c): variance (1-c)/c^2
        for c in (0.05, 0.3, 0.9):
            assert extinction_time_variance(1, c) == pytest.approx((1 - c) / c**2, rel=1e-12)

    @pytest.mark.parametrize("n, c", [(1, 0.9), (30, 0.3), (10**6, 0.1), (10**6, 1e-3), (5, 1e-9)])
    def test_terms_stop_at_the_first_tail_bound_below_the_tolerance(self, n, c):
        def bound(t):
            return n * math.exp(t * math.log1p(-c)) * ((2 * t + 1) / c + 2 * (1 - c) / c**2)

        t_stop = extinction_variance_terms(n, c)
        assert bound(t_stop) < analytics.VARIANCE_TAIL_TOL <= bound(t_stop - 1)
        assert t_stop > expected_extinction_terms(n, c)


class TestTypicalExtinctionTime:
    def test_powers_of_two(self):
        assert typical_extinction_time(1024, 0.5) == pytest.approx(10.0, rel=1e-14)

    def test_rejects_degenerate_n(self):
        with pytest.raises(AnalyticsError):
            typical_extinction_time(1, 0.5)

    def test_mean_ratio_band_at_desk_scale(self):
        # Monte Carlo mean of tau/d_n at n = 10^6, c = 0.1 sits in [0.95, 1.05]
        from deathlab import make_stream, sample_max_geometric_batch
        from deathlab.analytics import expected_extinction_time

        n, c = 10**6, 0.1
        d = typical_extinction_time(n, c)
        ratios = sample_max_geometric_batch(make_stream(31, 0), n, c, 10**4) / d
        assert 0.95 < float(np.mean(ratios)) < 1.05
        # and the exact mean ratio from survival-function summation agrees
        exact = expected_extinction_time(n, c) / d
        se = float(np.std(ratios, ddof=1)) / math.sqrt(10**4)
        assert abs(float(np.mean(ratios)) - exact) < 4 * se


class TestSingleDropProb:
    def test_single_individual_is_certain(self):
        for c in (1e-9, 0.5, 1 - 1e-9):
            assert single_drop_prob(1, c) == 1.0

    def test_two_at_even_odds(self):
        assert single_drop_prob(2, 0.5) == pytest.approx(2 / 3, rel=1e-15)

    def test_small_mortality_limit(self):
        # series expansion: P = 1 - (k-1)c/2 + O(c^2)
        assert abs(single_drop_prob(5, 1e-6) - 1.0) < 1e-5
        assert abs(single_drop_prob(5, 1e-6) - (1 - 2 * 1e-6)) < 1e-11

    def test_direct_formula_agreement(self):
        for k in (2, 3, 10, 40):
            for c in (0.05, 0.3, 0.9):
                q = 1 - c
                direct = k * q ** (k - 1) * c / (1 - q**k)
                assert single_drop_prob(k, c) == pytest.approx(direct, rel=1e-13)

    def test_domain(self):
        with pytest.raises(AnalyticsError):
            single_drop_prob(0, 0.5)
        with pytest.raises(AnalyticsError):
            single_drop_prob(2, 1.0)


class TestSingleDropPathProb:
    def test_empty_product(self):
        assert single_drop_path_prob(0, []) == 1.0

    def test_two_levels(self):
        assert single_drop_path_prob(2, [0.5, 0.5]) == pytest.approx(2 / 3, rel=1e-15)

    def test_against_oracle(self):
        value = single_drop_path_prob(5, [0.1] * 5)
        assert value == pytest.approx(exact_single_drop_path_prob(5, Constant(0.1)), abs=1e-12)

    def test_state_sequence_touching_one(self):
        # c_k = k^-3 has c_1 = 1; the k=1 factor is 1 regardless
        mort = [k**-3.0 for k in range(1, 11)]
        value = single_drop_path_prob(10, mort)
        assert 0 < value < 1

    def test_fixed_c_decreases_to_zero(self):
        values = [single_drop_path_prob(n, [0.3] * n) for n in (1, 5, 10, 20, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-90
        # far beyond float range the product underflows to exactly 0
        assert single_drop_path_prob(1000, [0.3] * 1000) == 0.0

    def test_vanishing_initial_mortality_rescues_the_path(self):
        # c_n = n^-3 makes n^2 c_n -> 0, so the path probability tends to 1
        values = [single_drop_path_prob(n, [n**-3.0] * n) for n in (10, 100, 1000, 10**4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999


class TestLowerBounds:
    def test_constant_trivial(self):
        assert path_prob_lower_bound_constant(0, 0.3) == 1.0
        assert path_prob_lower_bound_constant(1, 0.3) == 1.0

    def test_constant_value(self):
        direct = (1 - 1e-3) ** 45
        assert path_prob_lower_bound_constant(10, 1e-3) == pytest.approx(direct, rel=1e-13)

    def test_constant_below_exact(self):
        for n in range(1, 13):
            for c in (0.05, 0.1, 0.3, 0.5):
                bound = path_prob_lower_bound_constant(n, c)
                assert bound <= single_drop_path_prob(n, [c] * n) + 1e-15

    def test_state_value_and_monotonicity(self):
        mort = [k**-3.0 for k in range(1, 21)]
        direct = math.prod((1 - mort[k - 1]) ** (k - 1) for k in range(1, 11))
        assert path_prob_lower_bound_state(10, mort) == pytest.approx(direct, rel=1e-12)
        values = [path_prob_lower_bound_state(n, mort) for n in range(1, 21)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_state_below_exact(self):
        regime = StatePower(0.5, 3.0)
        for n in range(1, 13):
            mort = [0.5 * k**-3.0 for k in range(1, n + 1)]
            assert path_prob_lower_bound_state(n, mort) <= single_drop_path_prob(n, mort) + 1e-15

    def test_joint_trivial_and_value(self):
        assert path_prob_lower_bound_joint(1, 1.0, 4.0) == 1.0
        direct = (1 - 1e-6) ** 4950
        assert path_prob_lower_bound_joint(100, 1.0, 4.0) == pytest.approx(direct, rel=1e-13)

    def test_joint_sweep_increases_toward_one(self):
        values = [path_prob_lower_bound_joint(n, 1.0, 4.0) for n in (10, 100, 1000, 10**4)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.995

    def test_joint_below_exact(self):
        regime = JointPower(1.0, 4.0)
        for n in range(2, 11):
            mort = [k / n**4 for k in range(1, n + 1)]
            bound = path_prob_lower_bound_joint(n, 1.0, 4.0)
            assert bound <= single_drop_path_prob(n, mort) + 1e-15

    def test_joint_equal_exponents_collapse(self):
        assert path_prob_lower_bound_joint(5, 2.0, 2.0) == 0.0
        assert path_prob_lower_bound_joint(1, 2.0, 2.0) == 1.0

    def test_domains(self):
        with pytest.raises(AnalyticsError):
            path_prob_lower_bound_constant(5, 0.0)
        with pytest.raises(AnalyticsError):
            path_prob_lower_bound_state(3, [0.5, 1.5, 0.5])
        with pytest.raises(AnalyticsError):
            path_prob_lower_bound_joint(5, 2.0, 1.0)
        # the exponent n(n-1)/2 beyond the largest double
        with pytest.raises(AnalyticsError, match=r"n\(n-1\)/2 overflows a double"):
            path_prob_lower_bound_constant(10**160, 0.5)
        with pytest.raises(AnalyticsError, match=r"n\(n-1\)/2 overflows a double"):
            path_prob_lower_bound_joint(10**160, 1.0, 4.0)


class TestPassagePmf:
    def test_spot_values(self):
        assert passage_pmf(1, 0.5, 1) == pytest.approx(0.5, rel=1e-15)
        assert passage_pmf(2, 0.5, 2) == pytest.approx(0.125, rel=1e-15)

    def test_geometric_series_sums_to_single_drop_prob(self):
        for k, c in ((3, 0.3), (5, 0.1), (10, 0.5)):
            first = passage_pmf(k, c, 1)
            ratio = (1 - c) ** k
            assert first / (1 - ratio) == pytest.approx(single_drop_prob(k, c), abs=1e-12)

    def test_domain(self):
        with pytest.raises(AnalyticsError):
            passage_pmf(2, 0.5, 0)


class TestPassageMgf:
    def test_total_mass_identities(self):
        assert passage_mgf(1, 0.3, 0.0) == pytest.approx(1.0, abs=1e-13)
        assert passage_mgf(2, 0.5, 0.0) == pytest.approx(2 / 3, rel=1e-14)
        for k in (1, 2, 3, 5, 10):
            for c in (0.1, 0.3, 0.5):
                assert passage_mgf(k, c, 0.0) == pytest.approx(
                    single_drop_prob(k, c), abs=1e-12
                )

    def test_against_series(self):
        assert passage_mgf(2, 0.5, 0.1) == pytest.approx(
            mgf_by_summation(2, 0.5, 0.1, tol=1e-13), abs=1e-12
        )

    def test_domain_boundary(self):
        k, c = 2, 0.5
        s_max = passage_mgf_domain(k, c)
        assert s_max == pytest.approx(-2 * math.log(0.5), rel=1e-15)
        assert passage_mgf(k, c, 0.999 * s_max) > 100
        with pytest.raises(AnalyticsError):
            passage_mgf(k, c, s_max)
        with pytest.raises(AnalyticsError):
            passage_mgf(k, c, s_max + 1.0)

    def test_negative_arguments_shrink_mass(self):
        assert passage_mgf(3, 0.3, -1.0) < passage_mgf(3, 0.3, 0.0)


class TestLimitPassageRate:
    def test_initial_scaling(self):
        assert limit_passage_rate(InitialPower(1.0, 1.0), 3, lam=1.0) == 3.0
        assert limit_passage_rate(InitialPower(1.0, 1.0), 2, lam=0.5) == 1.0

    def test_joint_scaling(self):
        assert limit_passage_rate(JointPower(1.0, 3.0), 3) == 9.0
        assert limit_passage_rate(JointPower(0.5, 3.0), 1) == 1.0

    def test_unsupported(self):
        with pytest.raises(AnalyticsError):
            limit_passage_rate(Constant(0.3), 2)
        with pytest.raises(AnalyticsError):
            limit_passage_rate(InitialPower(1.0, 1.0), 2)  # lam missing


class TestBlockSum:
    # (terms, first argument) of the three series block_sum adds up
    SERIES = {
        "implosion": (lambda k: k**-2.0, 1),
        "mean extinction": (lambda t: -np.expm1(1e6 * np.log1p(-np.exp(t * math.log1p(-1e-3)))), 1),
        "mgf": (lambda j: np.exp(-3.0 + j * -1e-4), 0),
    }

    @pytest.mark.parametrize("count", [1, 7, 1000, SUM_BLOCK])
    @pytest.mark.parametrize("series", sorted(SERIES))
    def test_up_to_one_block_is_one_numpy_sum(self, series, count):
        terms, start = self.SERIES[series]
        expected = float(terms(np.arange(start, start + count, dtype=np.float64)).sum())
        assert block_sum(terms, start, start + count) == expected

    @pytest.mark.parametrize("count", [SUM_BLOCK + 1, 3 * SUM_BLOCK + 5])
    @pytest.mark.parametrize("series", sorted(SERIES))
    def test_beyond_one_block_fsum_adds_the_block_sums(self, series, count):
        terms, start = self.SERIES[series]
        x = np.arange(start, start + count, dtype=np.float64)
        expected = math.fsum(float(terms(x[i : i + SUM_BLOCK]).sum()) for i in range(0, count, SUM_BLOCK))
        assert block_sum(terms, start, start + count) == expected

    @pytest.mark.parametrize("n, c", [(10, 0.3), (10**6, 0.1), (10**6, 1e-3)])
    def test_mean_extinction_time_in_one_block_is_one_numpy_sum(self, n, c):
        t = np.arange(expected_extinction_terms(n, c), dtype=np.float64)
        assert t.size <= SUM_BLOCK
        with np.errstate(divide="ignore"):
            survival = -np.expm1(n * np.log1p(-np.exp(t * math.log1p(-c))))
        assert expected_extinction_time(n, c) == float(survival.sum())


class TestImplosionSeries:
    def test_single_term(self):
        assert implosion_expected_time(1.0, 1) == (1.0, 1.0)

    def test_brackets_zeta_two(self):
        partial, tail = implosion_expected_time(1.0, 10**6)
        assert partial <= math.pi**2 / 6 <= partial + tail

    def test_brackets_zeta_three(self):
        partial, tail = implosion_expected_time(2.0, 10**4)
        assert partial <= ZETA_3 <= partial + tail

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("K", [1, 7, 1000, 2000, 10**4, 2**16])
    def test_one_block_is_numpys_sum(self, K, alpha):
        # up to 2^16 terms the partial sum is one numpy sum, bit for bit
        terms = np.arange(1, K + 1, dtype=np.float64) ** -(alpha + 1.0)
        assert implosion_expected_time(alpha, K)[0] == float(terms.sum())

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("K", [2**16 + 1, 10**6])
    def test_blocks_stay_near_the_exact_sum(self, K, alpha):
        # numpy's pairwise sum of one full block alone is up to about
        # 3 eps (relative) from the correctly rounded sum: 1.8 eps at
        # K=2^16+1, alpha=1, where the second block adds only 2^-34
        exact = math.fsum(np.arange(1, K + 1, dtype=np.float64) ** -(alpha + 1.0))
        partial = implosion_expected_time(alpha, K)[0]
        assert abs(partial - exact) <= 4 * np.finfo(np.float64).eps * exact

    def test_memory_does_not_grow_with_K(self):
        tracemalloc.start()
        try:
            implosion_expected_time(1.0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # all 10^6 terms at once take 8 MB, twice

    def test_diverges_for_nonpositive_alpha(self):
        with pytest.raises(AnalyticsError):
            implosion_expected_time(0.0, 10)
        with pytest.raises(AnalyticsError):
            implosion_expected_time(-1.0, 10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("K", [1, 7, 2000, 2**16 + 1])
    def test_cumulants_are_the_series_of_higher_powers(self, K, alpha):
        # sum k^-2(alpha+1) and 6 sum k^-4(alpha+1): the mean's series at
        # exponents 2 alpha + 1 and 4 alpha + 3
        variance, kappa4 = implosion_cumulants(alpha, K)
        assert variance == implosion_expected_time(2 * alpha + 1, K)[0]
        assert kappa4 == 6 * implosion_expected_time(4 * alpha + 3, K)[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [8e307, 1e308, np.finfo(np.float64).max])
    def test_cumulants_of_an_overflowing_exponent_are_stage_one(self, alpha):
        # 2 (alpha + 1), or twice it, passes the largest double: only k = 1 adds
        assert implosion_cumulants(alpha, 10**4) == (1.0, 6.0)

    @pytest.mark.parametrize("alpha, K", [(0.0, 10), (math.inf, 10), (1.0, 0)])
    def test_cumulants_refuse_what_the_series_refuses(self, alpha, K):
        with pytest.raises(AnalyticsError):
            implosion_cumulants(alpha, K)


class TestReport:
    def test_row_pass_semantics(self):
        ok = ReportRow.compare("x", 1.0, oracle=1.0 + 1e-13, tol=1e-12)
        bad = ReportRow.compare("x", 1.0, oracle=1.1, tol=1e-12)
        assert ok.passed and not bad.passed
        mc_ok = ReportRow.compare("x", 0.5, monte_carlo=(0.51, 0.02))
        mc_bad = ReportRow.compare("x", 0.5, monte_carlo=(0.55, 0.02))
        assert mc_ok.passed and not mc_bad.passed

    def test_wilson_row(self):
        row = ReportRow.wilson("x", 0.5, 5000, 10000, 0.99)
        assert row.passed
        assert not ReportRow.wilson("x", 0.9, 5000, 10000, 0.99).passed

    def test_wilson_row_with_oracle(self):
        # the closed form sits in the interval; the oracle decides
        near = ReportRow.wilson("x", 0.5, 5000, 10000, 0.99, oracle=0.5 + 1e-13, tol=1e-12)
        far = ReportRow.wilson("x", 0.5, 5000, 10000, 0.99, oracle=0.5 + 1e-9, tol=1e-12)
        assert near.passed and near.oracle == 0.5 + 1e-13
        assert not far.passed and far.oracle == 0.5 + 1e-9
        assert not ReportRow.wilson("x", 0.9, 5000, 10000, 0.99, oracle=0.9).passed

    def test_render_and_json(self):
        report = AnalyticReport(meta={"command": "test"})
        report.add(ReportRow.compare("alpha", 1.0, oracle=1.0))
        report.add(ReportRow.wilson("beta", 0.5, 50, 100, 0.99))
        text = report.render_text()
        assert "alpha" in text and "PASS" in text
        payload = report.to_json()
        assert '"pass": true' in payload


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    c=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False),
    t=st.integers(min_value=0, max_value=500),
)
def test_extinction_cdf_in_unit_interval(n, c, t):
    value = extinction_cdf(n, c, t)
    assert 0.0 <= value <= 1.0
    assert value <= extinction_cdf(n, c, t + 1)


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=100),
    c=st.floats(min_value=1e-6, max_value=0.99, allow_nan=False),
)
def test_single_drop_prob_in_unit_interval(k, c):
    value = single_drop_prob(k, c)
    assert 0.0 < value <= 1.0


def test_single_drop_prob_underflows_gracefully():
    # (1-c)^(k-1) below the float range: 0.0, never negative, no error
    assert single_drop_prob(56, 1 - 1e-6) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=30),
    c=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    j=st.integers(min_value=1, max_value=50),
)
def test_passage_pmf_decreasing_in_j(k, c, j):
    assert passage_pmf(k, c, j + 1) <= passage_pmf(k, c, j)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: extinction_cdf(x, 0.3, 1),
        lambda x: passage_pmf(2, 0.3, x),
        lambda x: implosion_expected_time(1.0, x),
    ],
    ids=["extinction_cdf_n", "passage_pmf_j", "implosion_K"],
)
def test_non_finite_count_is_a_domain_error(call, bad):
    with pytest.raises(AnalyticsError, match="must be an integer"):
        call(bad)
