import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deathlab import (
    Constant,
    InitialPower,
    JointPower,
    ProcessError,
    RegimeError,
    StatePower,
    Table,
    TrajectoryBatch,
    drop_distribution,
    exact_single_drop_path_prob,
    extinction_time_batch,
    first_passage_batch,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical,
    make_stream,
    sample_max_geometric_batch,
    simulate_trajectory,
    single_drop_batch,
    single_drop_prob,
    step,
    wilson_interval,
)
from deathlab import kernels
from deathlab.rng import RngStream
from deathlab.stats import SampleSummary
from gof import chi_square_gof, two_proportion_p_value


def test_step_degenerate():
    s = make_stream(0, 0)
    assert step(4, 0.0, s) == 4
    assert step(4, 1.0, s) == 0


def test_step_one_death_frequency():
    # P(exactly one death | x=3, c=0.2) = 3 * 0.2 * 0.8^2 = 0.384
    s = make_stream(1, 0)
    hits = sum(1 for _ in range(10**5) if step(3, 0.2, s) == 2)
    low, high = wilson_interval(hits, 10**5, 0.99)
    assert low <= 0.384 <= high


def test_certain_death_trajectory():
    batch = simulate_trajectory(1, Table({(1, 1): 1.0}), make_stream(0, 1), runs=1)
    assert batch.states.tolist() == [1, 0]
    assert batch.lengths.tolist() == [2]
    assert batch.extinction_times.tolist() == [1]


def test_trajectory_invariants():
    for i, regime in enumerate([Constant(0.5), StatePower(0.5, 1.0), JointPower(1.0, 2.0)]):
        for n in (1, 3, 10, 25):
            batch = simulate_trajectory(n, regime, make_stream(2, 10 * i + n), runs=1)
            states, (time,) = batch.states, batch.extinction_times.tolist()
            assert states[0] == n
            assert np.all(np.diff(states) <= 0)
            assert time >= 0  # not censored
            assert states[time] == 0
            assert np.all(states[:-1] > 0)  # no entries after absorption


def test_censoring_is_encoded_not_raised():
    batch = simulate_trajectory(50, Constant(0.01), make_stream(3, 0), t_max=2, runs=1)
    assert batch.extinction_times.tolist() == [-1]
    assert batch.lengths.tolist() == [3]
    assert batch.states.size == 3


def test_censoring_rare_at_default_t_max():
    times = extinction_time_batch(5, Constant(0.5), make_stream(3, 1), 10**4, t_max=10**4)
    assert np.count_nonzero(times < 0) == 0


def test_mortality_uses_current_state():
    # a Table clone of the joint regime must replay the identical draws
    n = 3
    joint = JointPower(1.0, 4.0)
    table = Table({(k, n): k / n**4 for k in range(1, n + 1)})
    a = simulate_trajectory(n, joint, make_stream(4, 0), t_max=10**6, runs=1)
    b = simulate_trajectory(n, table, make_stream(4, 0), t_max=10**6, runs=1)
    assert a.states.tolist() == b.states.tolist()
    a = extinction_time_batch(n, joint, make_stream(4, 1), 200)
    b = extinction_time_batch(n, table, make_stream(4, 1), 200)
    assert np.array_equal(a, b)
    a = single_drop_batch(n, joint, make_stream(4, 2), 200)
    b = single_drop_batch(n, table, make_stream(4, 2), 200)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: single_drop_batch(5, StatePower(2.0, 0.5), s, 8),  # c_1 = 2
        lambda s: extinction_time_batch(5, StatePower(2.0, 0.5), s, 8, t_max=10),
        lambda s: simulate_trajectory(2, InitialPower(5.0, 1.0), s, runs=1),  # c_2 = 2.5
        lambda s: simulate_trajectory(3, Table({(1, 3): 0.5, (3, 3): 0.5}), s, t_max=10, runs=1),
    ],
    ids=["single_drop_c_above_one", "extinction_c_above_one", "trajectory_c_above_one",
         "table_missing_a_state"],
)
def test_invalid_mortality_rejected_before_any_draw(call):
    s = make_stream(4, 3)
    before = str(s.generator.bit_generator.state)
    with pytest.raises(RegimeError):
        call(s)
    assert str(s.generator.bit_generator.state) == before


def test_run_constant_regime_at_huge_n():
    # two mortality entries whatever n is, so 10**12 individuals cost O(1) memory
    times = extinction_time_batch(10**12, Constant(0.5), make_stream(4, 4), 10)
    assert times.shape == (10,)
    assert np.all(times > 0)


def test_extinction_matches_geometric_at_n1():
    times = extinction_time_batch(1, Constant(0.5), make_stream(5, 0), 10**5)
    observed = np.bincount(np.minimum(times, 21), minlength=22)[1:].astype(float)
    pmf = 0.5 ** np.arange(1, 21)
    expected = np.append(pmf, 0.5**20) * 10**5
    _, _, p = chi_square_gof(observed, expected)
    assert p > 0.01


def test_extinction_cdf_ks_at_n100():
    n, c, m = 100, 0.2, 10**5
    times = extinction_time_batch(n, Constant(c), make_stream(5, 1), m)
    assert np.all(times > 0)
    lnq = math.log1p(-c)

    def cdf(t):
        with np.errstate(divide="ignore"):
            return np.exp(n * np.log1p(-np.exp(np.asarray(t, dtype=float) * lnq)))

    dist = ks_statistic(SampleSummary.from_samples(times.astype(float)), cdf, lattice=1.0)
    assert dist < ks_critical_value(m, 0.01)


def test_extinction_equals_max_of_geometrics_in_distribution():
    m = 10**4
    ext = extinction_time_batch(50, Constant(0.2), make_stream(5, 2), m)
    maxg = sample_max_geometric_batch(make_stream(5, 3), 50, 0.2, m)
    assert ks_two_sample(ext, maxg) < ks_two_sample_critical(m, m, 0.01)


def test_single_drop_trivial_cases():
    assert single_drop_batch(0, Constant(0.5), make_stream(6, 0), 10).all()
    assert single_drop_batch(1, Constant(0.5), make_stream(6, 1), 1000).all()


def test_single_drop_frequency_matches_oracle_product():
    flags = single_drop_batch(5, Constant(0.1), make_stream(6, 2), 10**5)
    low, high = wilson_interval(int(np.count_nonzero(flags)), 10**5, 0.99)
    assert low <= exact_single_drop_path_prob(5, Constant(0.1)) <= high


def test_drop_distribution_values():
    assert drop_distribution(1, 0.3).tolist() == [1.0]
    two = drop_distribution(2, 0.5)
    assert two == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    for k in (1, 2, 5, 17, 40):
        for c in (0.05, 0.5, 0.95):
            vec = drop_distribution(k, c)
            assert abs(vec.sum() - 1.0) < 1e-12
            assert np.all(vec >= 0)
            assert abs(vec[k - 1] - single_drop_prob(k, c)) < 1e-12


def test_drop_distribution_domain():
    with pytest.raises(ProcessError):
        drop_distribution(2, 0.0)
    with pytest.raises(ProcessError):
        drop_distribution(2, 1.0)


def test_first_passage_from_one_never_jumps():
    _, codes = first_passage_batch(1, Constant(0.3), make_stream(7, 0), 10**4)
    assert np.all(codes == kernels.FINITE)


def test_first_passage_finite_probability():
    _, codes = first_passage_batch(2, Constant(0.5), make_stream(7, 1), 10**5)
    low, high = wilson_interval(int(np.count_nonzero(codes == kernels.FINITE)), 10**5, 0.99)
    assert low <= 2 / 3 <= high


def test_first_passage_head_probability():
    times, codes = first_passage_batch(2, Constant(0.5), make_stream(7, 2), 10**5)
    hits = int(np.count_nonzero((codes == kernels.FINITE) & (times == 1)))
    low, high = wilson_interval(hits, 10**5, 0.99)
    assert low <= 0.5 <= high  # 2 * c * (1-c) at c = 0.5


def test_first_passage_censoring():
    # only the stepped reference censors; the O(1) draw never does
    times, codes = np.empty(1, dtype=np.int64), np.empty(1, dtype=np.int64)
    kernels.first_passage_stepped_batch(make_stream(7, 3).generator, 3, 1e-12, 10, times, codes)
    assert (times.tolist(), codes.tolist()) == ([10], [kernels.CENSORED])


def test_first_passage_no_censoring_when_uncapped():
    _, codes = first_passage_batch(3, Constant(0.3), make_stream(7, 4), 10**5)
    finite = int(np.count_nonzero(codes == kernels.FINITE))
    jumped = int(np.count_nonzero(codes == kernels.JUMPED_OVER))
    assert finite + jumped == 10**5


def test_fast_and_stepped_passage_agree_in_distribution():
    # dual route: the O(1) factorized draw vs raw stepping
    m = 2 * 10**4
    t_fast, c_fast = first_passage_batch(3, Constant(0.3), make_stream(7, 5), m)
    t_step, c_step = first_passage_batch(3, Constant(0.3), make_stream(7, 6), m, stepped=True)
    f_fast = int(np.count_nonzero(c_fast == kernels.FINITE))
    f_step = int(np.count_nonzero(c_step == kernels.FINITE))
    assert two_proportion_p_value(f_fast, m, f_step, m) > 0.01
    d = ks_two_sample(t_fast[c_fast == kernels.FINITE], t_step[c_step == kernels.FINITE])
    assert d < ks_two_sample_critical(f_fast, f_step, 0.01)


def test_holding_time_is_geometric():
    # time spent at k before any departure: Geometric(1 - (1-c)^k)
    k, c, m = 3, 0.3, 10**5
    times, _ = first_passage_batch(k, Constant(c), make_stream(7, 7), m, stepped=True)
    p = -math.expm1(k * math.log1p(-c))
    t_cut = 25
    observed = np.bincount(np.minimum(times, t_cut + 1), minlength=t_cut + 2)[1:].astype(float)
    pmf = (1 - p) ** np.arange(t_cut) * p
    expected = np.append(pmf, (1 - p) ** t_cut) * m
    _, _, p_value = chi_square_gof(observed, expected)
    assert p_value > 0.01


def test_first_passage_with_context_regime():
    _, codes = first_passage_batch(2, JointPower(1.0, 3.0), make_stream(7, 8), 1, n=1000)
    assert codes[0] in (kernels.FINITE, kernels.JUMPED_OVER)
    with pytest.raises(ProcessError):
        first_passage_batch(5, Constant(0.5), make_stream(7, 9), 1, n=3)  # k > n


def test_default_t_max_bounds_censoring():
    t = simulate_trajectory(5, Constant(0.5), make_stream(3, 3), runs=1).t_max
    # the shortest horizon whose survival bound n (1-c)^t is below 1e-9
    assert 5 * 0.5**t < 1e-9 <= 5 * 0.5 ** (t - 1)


def test_horizon_stays_int64_and_holds_stay_below_the_cap():
    # an explicit horizon past int64 is clamped, as the automatic one is
    times = extinction_time_batch(5, Constant(0.5), make_stream(0, 0), 100, t_max=10**30)
    assert times.dtype == np.int64 and np.all(times > 0)
    # where a hold would reach the cap of 4.6e18 steps before the horizon, refused
    for call in (
        lambda: extinction_time_batch(5, Constant(1e-20), make_stream(0, 0), 1),
        lambda: extinction_time_batch(5, Constant(5e-324), make_stream(0, 0), 1),
        lambda: first_passage_batch(2, Constant(1e-20), make_stream(0, 0), 1),
    ):
        with pytest.raises(ProcessError, match="below 8e-18"):
            call()
    # below the cap a capped hold is censored, as the hold it stands for is
    assert np.all(extinction_time_batch(5, Constant(1e-20), make_stream(0, 0), 10, t_max=100) == -1)
    # the stepped reference draws no holds
    first_passage_batch(2, Constant(1e-20), make_stream(0, 0), 0, stepped=True)


def test_batches_at_zero_samples_are_typed_and_empty_and_draw_nothing(monkeypatch):
    def refuse(self, index):
        raise AssertionError("a substream was made")

    monkeypatch.setattr(RngStream, "substream", refuse)
    rng = make_stream(0, 0)
    batch = simulate_trajectory(5, Constant(0.3), rng, runs=0)
    arrays = [
        (extinction_time_batch(5, Constant(0.3), rng, 0), np.int64),
        (single_drop_batch(5, Constant(0.3), rng, 0), np.bool_),
        *zip(first_passage_batch(3, Constant(0.3), rng, 0), (np.int64, np.int64)),
        *zip(first_passage_batch(3, Constant(0.3), rng, 0, stepped=True), (np.int64, np.int64)),
        (batch.states, np.int64), (batch.lengths, np.int64), (batch.extinction_times, np.int64),
    ]
    for array, dtype in arrays:
        assert array.shape == (0,) and array.dtype == dtype
    assert rng.generator.random() == make_stream(0, 0).generator.random()


def test_batches_worker_count_invariant():
    kwargs = dict(n=20, regime=Constant(0.3), samples=3 * 10**4)
    a = extinction_time_batch(rng=make_stream(9, 0), workers=1, **kwargs)
    b = extinction_time_batch(rng=make_stream(9, 0), workers=4, **kwargs)
    assert np.array_equal(a, b)
    ta, ca = first_passage_batch(4, Constant(0.2), make_stream(9, 1), 3 * 10**4, workers=1)
    tb, cb = first_passage_batch(4, Constant(0.2), make_stream(9, 1), 3 * 10**4, workers=8)
    assert np.array_equal(ta, tb) and np.array_equal(ca, cb)


def test_domain_errors():
    with pytest.raises(ProcessError):
        simulate_trajectory(0, Constant(0.5), make_stream(0, 0), runs=1)
    for bad in (True, 2.5, float("inf"), float("nan"), "3", [3], None):
        with pytest.raises(ProcessError, match="population must be an integer"):
            simulate_trajectory(bad, Constant(0.5), make_stream(0, 0), runs=1)
    with pytest.raises(ProcessError):
        extinction_time_batch(5, Constant(0.5), make_stream(0, 0), 1, t_max=0)


def test_runs_draw_what_the_extinction_walk_draws():
    # at t_max = 7 about half the runs from 12 are censored, so extinct
    # paths sit between censored ones in the batch
    batch = simulate_trajectory(12, Constant(0.3), make_stream(5, 0), t_max=7, runs=40)
    # the same walk without its holds gives the same times
    times = extinction_time_batch(12, Constant(0.3), make_stream(5, 0), 40, t_max=7)
    assert batch.extinction_times.tolist() == times.tolist()
    assert {time < 0 for time in times.tolist()} == {True, False}
    assert batch.t_max == 7 and batch.initial_n == 12
    none = simulate_trajectory(12, Constant(0.3), make_stream(5, 0), t_max=7, runs=0)
    assert none.states.size == none.lengths.size == none.extinction_times.size == 0


def _batch(states, lengths, times, n=3, t_max=4):
    return TrajectoryBatch(n, *(np.array(a, dtype=np.int64) for a in (states, lengths, times)), t_max)


def test_a_batch_holds_the_rules_of_a_trajectory():
    _batch([3, 2, 0, 3, 3, 1, 1, 1], [3, 5], [2, -1])
    _batch([], [], [])
    for states, lengths, times in [
        ([3, 2, 0, 3, 3, 1, 1], [3, 5], [2, -1]),  # lengths and states disagree
        ([2, 2, 0], [3], [2]),  # starts below n
        ([3, 1, 2, 0], [4], [3]),  # rises within a run
        ([3, 0, 0], [3], [2]),  # entries after absorption
        ([3, 2, 0], [3], [1]),  # time off the first 0
        ([3, 3, 3, 1, 0], [5], [-1]),  # censored but extinct
        ([3, 3, 1], [3], [-1]),  # censored before t_max
        ([3, 2, 0], [3], [2, 1]),  # a time without a path
    ]:
        with pytest.raises(ProcessError):
            _batch(states, lengths, times)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    c=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_trajectory_property(n, c, seed):
    batch = simulate_trajectory(n, Constant(c), make_stream(seed, 3), runs=1)
    assert batch.states[0] == n
    assert np.all(np.diff(batch.states) <= 0)
    if batch.extinction_times[0] >= 0:
        assert batch.states[-1] == 0


def test_every_active_kernel_is_a_module_attribute():
    # callers read kernels.<name> at call time, so each kernel of the
    # active build must be that very module attribute
    backend = kernels.get_backend(kernels.BACKEND == "numba")
    named = {name: kernel for name, kernel in vars(backend).items() if callable(kernel)}
    assert set(named) == {
        "binomial_draw", "geometric_batch", "max_geometric_batch", "extinction_batch", "single_drop_batch",
        "first_passage_batch", "first_passage_stepped_batch",
    }
    for name, kernel in named.items():
        assert getattr(kernels, name) is kernel, name


def test_warmup_calls_every_kernel(monkeypatch):
    # the numba build compiles a kernel at its first call with each
    # signature, so warmup must call every kernel of the active build, and
    # extinction_batch with and without its paths recorded
    backend = kernels.get_backend(kernels.BACKEND == "numba")
    calls = {}

    def recorder(name, kernel):
        def call(*args, **kwargs):
            calls.setdefault(name, []).append((args, kwargs))
            return kernel(*args, **kwargs)

        return call

    named = {name: kernel for name, kernel in vars(backend).items() if callable(kernel)}
    for name, kernel in named.items():
        monkeypatch.setattr(kernels, name, recorder(name, kernel))
    kernels.warmup()
    assert set(calls) == set(named)
    records = {bool(kwargs.get("record", args[5] if len(args) > 5 else False))
               for args, kwargs in calls["extinction_batch"]}
    assert records == {False, True}
