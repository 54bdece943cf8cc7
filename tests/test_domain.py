"""Every public count and probability argument keeps the package's two
input rules, stated once in ``regimes.check_count`` and
``regimes.check_probability``.

A count is a Python int, a numpy integer or a finite float with an integer
value, never a bool or a string; a probability is a real number, never a
bool, a string or NaN, in the interval its call uses.  Implosion's
``alpha``, the parameters of the power-law regimes and the exponents of
the joint bound are real numbers by the probability's test, finite and
> 0 (``regimes.check_positive``); an exponential rate is one too, or
``+inf``, and an array of rates has an integer or float dtype.  A value
outside the rule raises the module's own ``ValueError`` subclass before
any draw: the stream's generator does not move and no substream is
made.  Values accepted before the rules were stated once (numpy
integers, ``3.0``, and counts above 2**53 where no cap applies) still give
the same answer.
"""

import math

import numpy as np
import pytest

from deathlab import analytics, limits, oracle, process, samplers
from deathlab.analytics import AnalyticsError
from deathlab.oracle import OracleError
from deathlab.process import ProcessError
from deathlab.regimes import Constant, InitialPower, JointPower, RegimeError, StatePower
from deathlab.rng import RngStream, make_stream
from deathlab.samplers import SamplerError

C = Constant(0.3)

# (id, call(value, stream), a good value, minimum, error)
COUNTS = [
    ("analytics.extinction_cdf.n", lambda v, s: analytics.extinction_cdf(v, 0.3, 5), 3, 1, AnalyticsError),
    ("analytics.extinction_cdf.t", lambda v, s: analytics.extinction_cdf(3, 0.3, v), 5, 0, AnalyticsError),
    ("analytics.typical_extinction_time.n", lambda v, s: analytics.typical_extinction_time(v, 0.3), 3, 2,
     AnalyticsError),
    ("analytics.expected_extinction_time.n", lambda v, s: analytics.expected_extinction_time(v, 0.3), 3, 1,
     AnalyticsError),
    ("analytics.extinction_time_variance.n", lambda v, s: analytics.extinction_time_variance(v, 0.3), 3, 1,
     AnalyticsError),
    ("analytics.extinction_variance_terms.n", lambda v, s: analytics.extinction_variance_terms(v, 0.3), 3, 1,
     AnalyticsError),
    ("analytics.single_drop_prob.k", lambda v, s: analytics.single_drop_prob(v, 0.3), 3, 1, AnalyticsError),
    ("analytics.single_drop_path_prob.n", lambda v, s: analytics.single_drop_path_prob(v, [0.3] * 3), 3, 0,
     AnalyticsError),
    ("analytics.path_prob_lower_bound_constant.n",
     lambda v, s: analytics.path_prob_lower_bound_constant(v, 0.3), 3, 0, AnalyticsError),
    ("analytics.path_prob_lower_bound_state.n",
     lambda v, s: analytics.path_prob_lower_bound_state(v, [0.3] * 3), 3, 0, AnalyticsError),
    ("analytics.path_prob_lower_bound_joint.n",
     lambda v, s: analytics.path_prob_lower_bound_joint(v, 1.0, 4.0), 3, 1, AnalyticsError),
    ("analytics.passage_pmf.k", lambda v, s: analytics.passage_pmf(v, 0.3, 2), 3, 1, AnalyticsError),
    ("analytics.passage_pmf.j", lambda v, s: analytics.passage_pmf(3, 0.3, v), 2, 1, AnalyticsError),
    ("analytics.passage_mgf_domain.k", lambda v, s: analytics.passage_mgf_domain(v, 0.3), 3, 1, AnalyticsError),
    ("analytics.passage_mgf.k", lambda v, s: analytics.passage_mgf(v, 0.3, 0.1), 3, 1, AnalyticsError),
    ("analytics.limit_passage_rate.k", lambda v, s: analytics.limit_passage_rate(JointPower(1.0, 3.0), v), 3, 1,
     AnalyticsError),
    ("analytics.scaling_constant.k",
     lambda v, s: analytics.scaling_constant(InitialPower(1.0, 1.0), v, 100, 1.0), 3, 1, AnalyticsError),
    ("analytics.scaling_constant.n",
     lambda v, s: analytics.scaling_constant(JointPower(1.0, 3.0), 2, v), 100, 1, AnalyticsError),
    ("analytics.implosion_expected_time.K", lambda v, s: analytics.implosion_expected_time(1.0, v), 10, 1,
     AnalyticsError),
    ("oracle.state_distribution_history.n", lambda v, s: oracle.state_distribution_history(v, C, 5), 3, 1,
     OracleError),
    ("oracle.state_distribution_history.t_max", lambda v, s: oracle.state_distribution_history(3, C, v), 5, 0,
     OracleError),
    ("oracle.state_distribution_history.starts",
     lambda v, s: oracle.state_distribution_history(5, C, 5, starts=[v, 5]), 2, 0, OracleError),
    ("oracle.exact_extinction_curve.n", lambda v, s: oracle.exact_extinction_curve(v, C, 5), 3, 1, OracleError),
    ("oracle.exact_jump_law.k", lambda v, s: oracle.exact_jump_law(v, 0.3), 3, 1, OracleError),
    ("oracle.exact_single_drop_path_prob.n", lambda v, s: oracle.exact_single_drop_path_prob(v, C), 3, 0,
     OracleError),
    ("oracle.exact_passage_law.k", lambda v, s: oracle.exact_passage_law(v, 0.3, 4), 3, 1, OracleError),
    ("oracle.exact_passage_law.j_max", lambda v, s: oracle.exact_passage_law(3, 0.3, v), 4, 1, OracleError),
    ("oracle.mgf_by_summation.k", lambda v, s: oracle.mgf_by_summation(v, 0.3, 0.1), 3, 1, OracleError),
    ("samplers.sample_geometric_batch.size", lambda v, s: samplers.sample_geometric_batch(s, 0.3, v), 4, 0,
     SamplerError),
    ("samplers.sample_max_geometric_batch.n",
     lambda v, s: samplers.sample_max_geometric_batch(s, v, 0.3, 4), 3, 1, SamplerError),
    ("samplers.sample_max_geometric_batch.size",
     lambda v, s: samplers.sample_max_geometric_batch(s, 3, 0.3, v), 4, 0, SamplerError),
    ("samplers.sample_exponential_batch.size", lambda v, s: samplers.sample_exponential_batch(s, 2.0, v), 4, 0,
     SamplerError),
    ("process.step.x", lambda v, s: process.step(v, 0.3, s), 3, 1, ProcessError),
    ("process.extinction_time_batch.n", lambda v, s: process.extinction_time_batch(v, C, s, 4), 3, 1,
     ProcessError),
    ("process.extinction_time_batch.samples", lambda v, s: process.extinction_time_batch(3, C, s, v), 4, 0,
     ProcessError),
    ("process.extinction_time_batch.t_max", lambda v, s: process.extinction_time_batch(3, C, s, 4, t_max=v), 5, 1,
     ProcessError),
    ("process.extinction_time_batch.workers",
     lambda v, s: process.extinction_time_batch(3, C, s, 4, workers=v), 2, 1, ProcessError),
    ("process.simulate_trajectory.n", lambda v, s: process.simulate_trajectory(v, C, s, runs=2).lengths, 3, 1,
     ProcessError),
    ("process.simulate_trajectory.runs", lambda v, s: process.simulate_trajectory(3, C, s, runs=v).lengths, 2, 0,
     ProcessError),
    ("process.simulate_trajectory.t_max",
     lambda v, s: process.simulate_trajectory(3, C, s, v, runs=2).lengths, 5, 1, ProcessError),
    ("process.single_drop_batch.n", lambda v, s: process.single_drop_batch(v, C, s, 4), 3, 0, ProcessError),
    ("process.single_drop_batch.samples", lambda v, s: process.single_drop_batch(3, C, s, v), 4, 0,
     ProcessError),
    ("process.single_drop_batch.samples_from_0", lambda v, s: process.single_drop_batch(0, C, s, v), 4, 0,
     ProcessError),
    ("process.single_drop_batch.workers", lambda v, s: process.single_drop_batch(3, C, s, 4, workers=v), 2, 1,
     ProcessError),
    ("process.first_passage_batch.k", lambda v, s: process.first_passage_batch(v, C, s, 4, n=5), 3, 1,
     ProcessError),
    ("process.first_passage_batch.n", lambda v, s: process.first_passage_batch(3, C, s, 4, n=v), 5, 1,
     ProcessError),
    ("process.first_passage_batch.samples", lambda v, s: process.first_passage_batch(3, C, s, v), 4, 0,
     ProcessError),
    ("process.first_passage_batch.workers", lambda v, s: process.first_passage_batch(3, C, s, 4, workers=v), 2, 1,
     ProcessError),
    ("process.drop_distribution.k", lambda v, s: process.drop_distribution(v, 0.3), 3, 1, ProcessError),
    ("limits.scaled_passage_batch.k",
     lambda v, s: limits.scaled_passage_batch(v, 100, JointPower(1.0, 3.0), 4, s).scaled_times, 2, 1,
     AnalyticsError),
    ("limits.scaled_passage_batch.num_samples",
     lambda v, s: limits.scaled_passage_batch(2, 100, JointPower(1.0, 3.0), v, s).scaled_times, 4, 0,
     ProcessError),
    ("limits.scaled_passage_batch.workers",
     lambda v, s: limits.scaled_passage_batch(2, 100, JointPower(1.0, 3.0), 4, s, workers=v).scaled_times, 2, 1,
     ProcessError),
    ("limits.implosion_batch.K", lambda v, s: limits.implosion_batch(1.0, v, 4, s)[0], 10, 1, AnalyticsError),
    ("limits.implosion_batch.runs", lambda v, s: limits.implosion_batch(1.0, 10, v, s)[0], 4, 1, AnalyticsError),
    ("limits.implosion_batch.workers", lambda v, s: limits.implosion_batch(1.0, 10, 4, s, workers=v)[0], 2, 1,
     AnalyticsError),
    ("limits.implosion_batch.levels", lambda v, s: limits.implosion_batch(1.0, 10, 4, s, levels=[v, 10])[0], 5, 1,
     AnalyticsError),
    ("limits.check_sweep_levels.levels", lambda v, s: limits.check_sweep_levels([v, 10]), 5, 1, AnalyticsError),
]

# (id, call(value, stream), interval, error)
PROBABILITIES = [
    ("analytics.extinction_cdf.c", lambda v, s: analytics.extinction_cdf(3, v, 5), "(0,1)", AnalyticsError),
    ("analytics.typical_extinction_time.c", lambda v, s: analytics.typical_extinction_time(3, v), "(0,1)",
     AnalyticsError),
    ("analytics.expected_extinction_time.c", lambda v, s: analytics.expected_extinction_time(3, v), "(0,1)",
     AnalyticsError),
    ("analytics.extinction_time_variance.c", lambda v, s: analytics.extinction_time_variance(3, v), "(0,1)",
     AnalyticsError),
    ("analytics.extinction_variance_terms.c", lambda v, s: analytics.extinction_variance_terms(3, v), "(0,1)",
     AnalyticsError),
    ("analytics.single_drop_prob.c", lambda v, s: analytics.single_drop_prob(3, v), "(0,1)", AnalyticsError),
    ("analytics.single_drop_prob.c_at_1", lambda v, s: analytics.single_drop_prob(1, v), "(0,1]", AnalyticsError),
    ("analytics.single_drop_path_prob.c_1", lambda v, s: analytics.single_drop_path_prob(3, [v, 0.3, 0.3]),
     "(0,1]", AnalyticsError),
    ("analytics.single_drop_path_prob.c_3", lambda v, s: analytics.single_drop_path_prob(3, [0.3, 0.3, v]),
     "(0,1]", AnalyticsError),
    ("analytics.path_prob_lower_bound_constant.c", lambda v, s: analytics.path_prob_lower_bound_constant(3, v),
     "(0,1)", AnalyticsError),
    ("analytics.path_prob_lower_bound_state.c_2",
     lambda v, s: analytics.path_prob_lower_bound_state(3, [0.3, v, 0.3]), "(0,1]", AnalyticsError),
    ("analytics.passage_pmf.c", lambda v, s: analytics.passage_pmf(3, v, 2), "(0,1)", AnalyticsError),
    ("analytics.passage_mgf_domain.c", lambda v, s: analytics.passage_mgf_domain(3, v), "(0,1)", AnalyticsError),
    ("analytics.passage_mgf.c", lambda v, s: analytics.passage_mgf(3, v, 0.0), "(0,1)", AnalyticsError),
    ("oracle.exact_jump_law.c", lambda v, s: oracle.exact_jump_law(3, v), "(0,1]", OracleError),
    ("oracle.exact_passage_law.c", lambda v, s: oracle.exact_passage_law(3, v, 4), "(0,1)", OracleError),
    ("oracle.mgf_series_cost.c", lambda v, s: oracle.mgf_series_cost(3, v, 0.0), "(0,1)", OracleError),
    ("oracle.mgf_by_summation.c", lambda v, s: oracle.mgf_by_summation(3, v, 0.0), "(0,1)", OracleError),
    ("samplers.sample_geometric_batch.c", lambda v, s: samplers.sample_geometric_batch(s, v, 4), "(0,1]",
     SamplerError),
    ("samplers.sample_max_geometric_batch.c", lambda v, s: samplers.sample_max_geometric_batch(s, 3, v, 4),
     "(0,1]", SamplerError),
    # step's mortality has always been the sampler's to check
    ("process.step.c", lambda v, s: process.step(3, v, s), "[0,1]", SamplerError),
    ("process.drop_distribution.c", lambda v, s: process.drop_distribution(3, v), "(0,1)", ProcessError),
]

# (id, call(value, stream)): implosion's alpha
ALPHAS = [
    ("analytics.implosion_expected_time.alpha", lambda v, s: analytics.implosion_expected_time(v, 10)),
    ("analytics.check_alpha", lambda v, s: analytics.check_alpha(v)),
    ("limits.implosion_batch.alpha", lambda v, s: limits.implosion_batch(v, 10, 4, s)[0]),
    ("limits.implosion_batch.alpha_swept", lambda v, s: limits.implosion_batch(v, 10, 4, s, 2, [5, 10])[1]),
]
BAD_ALPHAS = [True, "1.0", math.nan, math.inf, -math.inf, 0.0, -1.0, 10**400]
BAD_ALPHA_IDS = ["bool", "string", "nan", "inf", "-inf", "zero", "below", "beyond_float"]

# (id, call(value), error): a positive parameter, refused as alpha is
PARAMETERS = [
    ("regimes.InitialPower.a", lambda v: InitialPower(v, 1.0), RegimeError),
    ("regimes.InitialPower.gamma", lambda v: InitialPower(1.0, v), RegimeError),
    ("regimes.StatePower.a", lambda v: StatePower(v, 1.0), RegimeError),
    ("regimes.StatePower.gamma", lambda v: StatePower(1.0, v), RegimeError),
    ("regimes.JointPower.alpha", lambda v: JointPower(v, 4.0), RegimeError),
    ("regimes.JointPower.beta", lambda v: JointPower(1.0, v), RegimeError),
    ("analytics.path_prob_lower_bound_joint.alpha", lambda v: analytics.path_prob_lower_bound_joint(3, v, 4.0),
     AnalyticsError),
    ("analytics.path_prob_lower_bound_joint.beta",
     lambda v: analytics.path_prob_lower_bound_joint(3, 1.0, v), AnalyticsError),
]


# exponential rates: real numbers > 0 by alpha's test, where +inf is a rate
# (a stage that overflowed lasts no time), and arrays of a real dtype
BAD_RATES = [True, "2", math.nan, -math.inf, 0.0, -1.0, 10**400, np.array([True, True]), np.array(["1", "2"]),
             np.array([1.0, 2.0], dtype=object), np.array([1.0, math.nan]), np.array([2.0, 0.0]),
             np.array([1.0 + 0.0j])]
BAD_RATE_IDS = ["bool", "string", "nan", "-inf", "zero", "below", "beyond_float", "bool_array", "str_array",
                "object_array", "nan_in_array", "zero_in_array", "complex_array"]
# (id, out) for 2 rates of 3 draws: the wrong dtype, size, layout or access
BAD_OUTS = [
    ("float32", np.empty(6, dtype=np.float32)),
    ("too_small", np.empty(5)),
    ("too_large", np.empty((3, 3))),
    ("strided", np.empty(12)[::2]),
    ("fortran", np.empty((3, 2), order="F")),
    ("list", [0.0] * 6),
    ("read_only", np.lib.stride_tricks.as_strided(np.empty(6), writeable=False)),
]

def _bad_counts(minimum):
    return [True, "3", math.nan, math.inf, -math.inf, 2.5, minimum - 1]


def _bad_probabilities(interval):
    below = -0.5 if interval[0] == "[" else 0.0
    above = 1.5 if interval[-1] == "]" else 1.0
    return [True, "0.3", math.nan, math.inf, -math.inf, below, above]


BAD_IDS = ["bool", "string", "nan", "inf", "-inf", "2.5", "below"]
BAD_PROBABILITY_IDS = ["bool", "string", "nan", "inf", "-inf", "below", "above"]


@pytest.fixture()
def substreams(monkeypatch):
    # every substream made while a call runs
    made = []
    derive = RngStream.substream

    def counted(self, index):
        made.append(index)
        return derive(self, index)

    monkeypatch.setattr(RngStream, "substream", counted)
    return made


def _refused(call, value, error, substreams):
    stream = make_stream(7, 0)
    before = repr(stream.generator.bit_generator.state)  # Philox's counter, key and buffer
    with pytest.raises(error):
        call(value, stream)
    assert repr(stream.generator.bit_generator.state) == before
    assert substreams == []


@pytest.mark.parametrize("index", range(len(BAD_IDS)), ids=BAD_IDS)
@pytest.mark.parametrize("name, call, good, minimum, error", COUNTS, ids=[case[0] for case in COUNTS])
def test_a_count_outside_the_rule_is_refused_before_any_draw(substreams, name, call, good, minimum, error, index):
    _refused(call, _bad_counts(minimum)[index], error, substreams)


@pytest.mark.parametrize("index", range(len(BAD_PROBABILITY_IDS)), ids=BAD_PROBABILITY_IDS)
@pytest.mark.parametrize("name, call, interval, error", PROBABILITIES, ids=[case[0] for case in PROBABILITIES])
def test_a_probability_outside_the_rule_is_refused_before_any_draw(substreams, name, call, interval, error, index):
    _refused(call, _bad_probabilities(interval)[index], error, substreams)


@pytest.mark.parametrize("index", range(len(BAD_ALPHA_IDS)), ids=BAD_ALPHA_IDS)
@pytest.mark.parametrize("name, call", ALPHAS, ids=[case[0] for case in ALPHAS])
def test_an_alpha_outside_the_rule_is_refused_before_any_draw(substreams, name, call, index):
    _refused(call, BAD_ALPHAS[index], AnalyticsError, substreams)


@pytest.mark.parametrize("index", range(len(BAD_ALPHA_IDS)), ids=BAD_ALPHA_IDS)
@pytest.mark.parametrize("name, call, error", PARAMETERS, ids=[case[0] for case in PARAMETERS])
def test_a_parameter_outside_the_rule_is_refused(name, call, error, index):
    with pytest.raises(error):
        call(BAD_ALPHAS[index])


@pytest.mark.parametrize("name, call, error", PARAMETERS, ids=[case[0] for case in PARAMETERS])
def test_an_int_and_a_numpy_number_are_parameters(name, call, error):
    expected = call(1.0)
    for value in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
        assert call(value) == expected, value


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name, call, good, minimum, error", COUNTS, ids=[case[0] for case in COUNTS])
def test_a_numpy_integer_and_an_integral_float_count_as_the_int(name, call, good, minimum, error):
    expected = call(good, make_stream(7, 0))
    for value in (np.int64(good), float(good), np.float64(good)):
        assert _same(call(value, make_stream(7, 0)), expected), value


@pytest.mark.parametrize("name, call, interval, error", PROBABILITIES, ids=[case[0] for case in PROBABILITIES])
def test_a_numpy_float_and_an_int_at_a_closed_end_are_probabilities(name, call, interval, error):
    expected = call(0.5, make_stream(7, 0))
    assert _same(call(np.float64(0.5), make_stream(7, 0)), expected)
    if interval[-1] == "]":
        assert _same(call(1, make_stream(7, 0)), call(1.0, make_stream(7, 0)))


@pytest.mark.parametrize("name, call", ALPHAS, ids=[case[0] for case in ALPHAS])
def test_an_int_and_a_numpy_number_are_alphas(name, call):
    expected = call(1.0, make_stream(7, 0))
    for value in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
        assert _same(call(value, make_stream(7, 0)), expected), value


@pytest.mark.parametrize("rate", BAD_RATES, ids=BAD_RATE_IDS)
def test_a_rate_outside_the_rule_is_refused_before_any_draw(substreams, rate):
    _refused(lambda v, s: samplers.sample_exponential_batch(s, v, 2), rate, SamplerError, substreams)


@pytest.mark.parametrize("out", [case[1] for case in BAD_OUTS], ids=[case[0] for case in BAD_OUTS])
def test_an_exponential_out_of_the_wrong_kind_is_refused_before_any_draw(substreams, out):
    _refused(lambda v, s: samplers.sample_exponential_batch(s, np.array([1.0, 2.0]), 3, out=v), out, SamplerError,
             substreams)


def test_ints_numpy_numbers_and_inf_are_rates():
    expected = samplers.sample_exponential_batch(make_stream(7, 0), 2.0, 3)
    for value in (2, np.int64(2), np.float32(2.0), np.array(2), np.array([2], dtype=np.uint8)):
        assert np.array_equal(samplers.sample_exponential_batch(make_stream(7, 0), value, 3), expected), value
    stages = samplers.sample_exponential_batch(make_stream(7, 0), np.array([2.0, math.inf]), 3)
    assert np.array_equal(stages, np.concatenate([expected, np.zeros(3)]))
    assert np.array_equal(samplers.sample_exponential_batch(make_stream(7, 0), math.inf, 3), np.zeros(3))

def test_analytics_counts_have_no_cap():
    # the closed forms take counts above 2**53, exact ints and floats alike
    n = 2**60
    assert analytics.extinction_cdf(n, 0.3, 200) == analytics.extinction_cdf(float(n), 0.3, 200)
    assert analytics.typical_extinction_time(n, 0.5) == pytest.approx(60.0)
    assert analytics.limit_passage_rate(JointPower(1.0, 3.0), 2**53 + 1) > 0.0


def test_the_process_and_samplers_cap_counts_at_2_to_the_53():
    stream = make_stream(7, 0)
    with pytest.raises(ProcessError):
        process.extinction_time_batch(2**53 + 1, C, stream, 1)
    with pytest.raises(SamplerError):
        samplers.sample_max_geometric_batch(stream, 2**53 + 1, 0.3, 1)
    assert samplers.sample_max_geometric_batch(stream, 2**53, 0.3, 1).size == 1
