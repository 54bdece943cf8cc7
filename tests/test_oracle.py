import math

import numpy as np
import pytest

from deathlab import (
    Constant,
    JointPower,
    OracleError,
    StatePower,
    exact_extinction_curve,
    exact_jump_law,
    exact_passage_law,
    exact_single_drop_path_prob,
    extinction_cdf,
    extinction_time_batch,
    make_stream,
    mgf_by_summation,
    passage_mgf,
    passage_mgf_domain,
    single_drop_path_prob,
    single_drop_prob,
    state_distribution_history,
    typical_extinction_time,
    wilson_interval,
)
from deathlab.analytics import SUM_BLOCK, exceedance_probability
from deathlab.oracle import MAX_TIME, mgf_series_cost


def test_point_mass_at_time_zero():
    mass = state_distribution_history(7, Constant(0.5), 0)[0]
    expected = np.zeros(8)
    expected[7] = 1.0
    assert np.array_equal(mass, expected)


def test_one_binomial_step():
    mass = state_distribution_history(2, Constant(0.5), 1)[1]
    assert mass == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_mass_conservation_and_absorption_flow():
    for regime in (Constant(0.3), StatePower(0.5, 1.0), JointPower(1.0, 2.0)):
        history = state_distribution_history(12, regime, 80)
        sums = history.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert np.all(history >= -1e-15)
        absorbed = history[:, 0]
        assert np.all(np.diff(absorbed) >= -1e-15)  # mass at 0 never decreases


def test_dp_matches_closed_form_extinction():
    for c in (0.05, 0.3, 0.9):
        for n in (1, 5, 12, 20):
            curve = exact_extinction_curve(n, Constant(c), 60)
            closed = np.array([extinction_cdf(n, c, t) for t in range(61)])
            assert np.max(np.abs(curve - closed)) < 1e-12


def test_exceedance_probability_matches_dp_sum():
    # P(|tau/d_n - 1| > eps) summed straight from the DP extinction pmf; the
    # mass past MAX_TIME all lies beyond (1+eps) d_n, so it counts in full
    t = np.arange(MAX_TIME + 1)
    for c in (0.1, 0.3, 0.5, 0.9):
        for n in range(2, 31):
            d = typical_extinction_time(n, c)
            curve = exact_extinction_curve(n, Constant(c), MAX_TIME)
            pmf = np.diff(curve, prepend=0.0)
            tail = 1.0 - curve[-1]
            for eps in (0.05, 0.1, 0.3, 0.5):
                assert (1.0 + eps) * d < MAX_TIME
                direct = float(pmf[np.abs(t / d - 1.0) > eps].sum()) + tail
                exact = exceedance_probability(n, c, eps)
                assert abs(exact - direct) <= 1e-12, (n, c, eps, exact, direct)


def test_dp_matches_thinned_binomial_law():
    # under constant mortality each individual is alive at t independently
    # with probability (1-c)^t, so the whole state law is Binomial(n, q^t)
    import math

    for c in (0.1, 0.5):
        for n in (4, 11, 20):
            history = state_distribution_history(n, Constant(c), 40)
            for t in (1, 3, 10, 40):
                p_alive = (1.0 - c) ** t
                pmf = np.array(
                    [
                        math.comb(n, x) * p_alive**x * (1 - p_alive) ** (n - x)
                        for x in range(n + 1)
                    ]
                )
                assert np.max(np.abs(history[t] - pmf)) < 1e-12, (n, c, t)


@pytest.mark.parametrize(
    "regime", [Constant(0.05), Constant(0.3), Constant(0.5), Constant(0.9), Constant(0.999), StatePower(0.5, 1.0)]
)
def test_one_dp_from_many_starts_equals_each_start_alone(regime):
    # mortality that does not depend on n gives every start the same kernel
    # rows, so each start's laws are those of its own DP, bit for bit
    starts = range(1, 16)
    history = state_distribution_history(15, regime, 50, starts=starts)
    assert history.shape == (51, 15, 16)
    for i, n in enumerate(starts):
        assert np.array_equal(history[:, i, : n + 1], state_distribution_history(n, regime, 50))
        assert not history[:, i, n + 1 :].any()


def test_starts_must_lie_in_the_chain():
    assert np.array_equal(state_distribution_history(3, Constant(0.5), 4, starts=[0])[:, 0, 0], np.ones(5))
    for starts in ([4], [-1], [2, 5]):
        with pytest.raises(OracleError):
            state_distribution_history(3, Constant(0.5), 4, starts=starts)


def test_dp_matches_monte_carlo_for_state_dependent_regime():
    # no closed form here: cross-check the DP against simulation
    regime = JointPower(1.0, 2.0)
    n, t_probe, m = 3, 10, 2 * 10**4
    curve = exact_extinction_curve(n, regime, 50)
    times = extinction_time_batch(n, regime, make_stream(11, 0), m, t_max=10**6)
    hits = int(np.count_nonzero(times <= t_probe))
    low, high = wilson_interval(hits, m, 0.999)
    assert low <= curve[t_probe] <= high


def test_caps_enforced():
    with pytest.raises(OracleError):
        state_distribution_history(31, Constant(0.5), 10)
    with pytest.raises(OracleError):
        state_distribution_history(5, Constant(0.5), 201)
    with pytest.raises(OracleError):
        exact_passage_law(31, 0.5, 10)
    with pytest.raises(OracleError):
        mgf_by_summation(31, 0.5, 0.0)


def test_jump_law_values():
    law = exact_jump_law(2, 0.5)
    assert law == pytest.approx([2 / 3, 1 / 3], abs=1e-15)  # entry 0 = one death
    for k in (1, 2, 30):  # certain death: all k die at once
        assert np.array_equal(exact_jump_law(k, 1.0), np.eye(k)[-1])
    for c in (0.0, 1.5, math.nan):
        with pytest.raises(OracleError):
            exact_jump_law(3, c)
    for k in (1, 3, 10, 30):
        for c in (0.05, 0.5, 0.9):
            law = exact_jump_law(k, c)
            assert abs(law.sum() - 1.0) < 1e-14
            assert law[0] == pytest.approx(single_drop_prob(k, c), abs=1e-12)


def test_single_drop_path_prob_oracle():
    assert exact_single_drop_path_prob(0, Constant(0.5)) == 1.0
    assert exact_single_drop_path_prob(1, Constant(0.5)) == 1.0
    assert exact_single_drop_path_prob(2, Constant(0.5)) == pytest.approx(2 / 3, rel=1e-13)
    for c in (0.05, 0.1, 0.3):
        for n in (3, 7, 10):
            assert exact_single_drop_path_prob(n, Constant(c)) == pytest.approx(
                single_drop_path_prob(n, [c] * n), abs=1e-12
            )


def test_single_drop_path_prob_state_regime_with_corner():
    # StatePower(1, 3) has c_1 = 1: the k=1 landing is still certain
    value = exact_single_drop_path_prob(6, StatePower(1.0, 3.0))
    mort = [k**-3.0 for k in range(1, 7)]
    assert value == pytest.approx(single_drop_path_prob(6, mort), abs=1e-12)


def test_passage_law_is_geometric_for_one_individual():
    pmf, tail = exact_passage_law(1, 0.5, 30)
    assert pmf == pytest.approx([0.5**j for j in range(1, 31)], rel=1e-12)
    assert tail == pytest.approx(0.5**30, rel=1e-9)


def test_passage_law_brackets_total_mass():
    # at small c the tail carries nearly all the mass, so its denominator
    # 1 - (1-c)^k must not cancel
    for k, c in ((3, 0.3), (5, 0.1), (10, 0.5), (2, 2e-9), (2, 1e-6)):
        pmf, tail = exact_passage_law(k, c, 200)
        target = single_drop_prob(k, c)
        assert pmf.sum() - 1e-12 <= target <= pmf.sum() + tail + 1e-12


def test_passage_law_constant_ratio():
    pmf, _ = exact_passage_law(4, 0.2, 50)
    ratios = pmf[1:] / pmf[:-1]
    assert np.max(np.abs(ratios - 0.8**4)) < 1e-12


def test_mgf_summation_consistency():
    pmf, tail = exact_passage_law(3, 0.3, 400)
    assert mgf_by_summation(3, 0.3, 0.0, tol=1e-13) == pytest.approx(
        float(pmf.sum()) + tail, abs=1e-11
    )
    assert mgf_by_summation(2, 0.5, 0.1, tol=1e-13) == pytest.approx(
        passage_mgf(2, 0.5, 0.1), abs=1e-12
    )


def test_mgf_summation_near_boundary():
    for k, c in ((2, 0.5), (3, 0.3), (1, 0.1)):
        s = 0.99 * passage_mgf_domain(k, c)
        assert mgf_by_summation(k, c, s, tol=1e-10) == pytest.approx(
            passage_mgf(k, c, s), abs=1e-9
        )


def test_mgf_summation_rejects_divergent_arguments():
    with pytest.raises(OracleError):
        mgf_by_summation(2, 0.5, passage_mgf_domain(2, 0.5) + 0.01)



@pytest.mark.parametrize(
    "k, c, frac, tol",
    [(3, 0.3, 0.5, 1e-13), (3, 0.05, 0.99, 1e-13), (2, 0.01, 0.99, 1e-12), (2, 0.002, 0.99, 1e-13)],
)
def test_mgf_series_adds_up_its_terms(k, c, frac, tol):
    # e^(s j) P(T_k = j) for j = 1, 2, ...: one numpy sum up to one block,
    # and within 4 eps of the correctly rounded sum beyond it
    s = frac * passage_mgf_domain(k, c)
    lnq = math.log1p(-c)
    j = np.arange(mgf_series_cost(k, c, s, tol), dtype=np.float64)
    terms = np.exp(s + math.log(k) + (k - 1) * lnq + math.log(c) + j * (s + k * lnq))
    series = mgf_by_summation(k, c, s, tol)
    if terms.size <= SUM_BLOCK:
        assert series == float(terms.sum())
    else:
        exact = math.fsum(terms)
        assert abs(series - exact) <= 4 * np.finfo(np.float64).eps * exact
