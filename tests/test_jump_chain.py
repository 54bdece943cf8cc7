"""Laws of the jump-chain kernels.

The extinction and trajectory kernels draw the geometric holding time at
each level and then the landing state, and ``simulate_trajectory`` takes
its paths from the extinction walk with the holds recorded; the
single-drop kernel walks the jump chain alone.  The landing draw walks the conditional pmf or, where
that walk would be long, rejects zero-death binomial draws.  These tests
check the draws against the law itself -- the dynamic-programming oracle
and the single-drop oracle -- and against the per-step references in
``stepped.py``.  The cases cover a regime where every level holds long, a
``Table``, a ``StatePower`` regime whose stay chance crosses 1/2 along the
path, a ``Table`` entry with c = 1, and a dense regime whose landings from
the top levels take the rejection draw.

The single-death batches never draw a landing: one uniform against the
landing walk's first test answers whether a departure kills exactly one,
at every level that draws.  The law of that answer is checked at the
first level whose full landing would reject, with exact binomial tails,
and its cost is read from the Philox counter: two uniforms a first
passage, one a live run and level of a single-drop batch.

The last tests pin the draw order of the batches.  Test-side copies of
the single-death test (level-major for single drops; every hold, then
every test, for first passages) and of the full landing draw (extinction
times and paths, round-major) must draw what the active build, the
Python build's entry points and their scalar source draw, up to the
generator's end position.

Every statistical check runs at level 0.001, so the fifty or so of them
together fail by chance on about one seed in twenty.
"""

import math

import numpy as np
import pytest

from deathlab import (
    Constant,
    StatePower,
    Table,
    exact_single_drop_path_prob,
    extinction_time_batch,
    ks_two_sample,
    ks_two_sample_critical,
    make_stream,
    passage_pmf,
    simulate_trajectory,
    single_drop_batch,
    single_drop_prob,
    wilson_interval,
)
from deathlab import kernels
from deathlab.oracle import MAX_TIME, exact_extinction_curve, state_distribution_history
from deathlab.regimes import mortality, prepare
from gof import binomial_tails, chi_square_gof
import stepped

SEED = 20261018
LEVEL = 0.001

# name -> (n, regime, stream-id block)
CASES = {
    # every level holds long: (1 - 0.02)^k >= 0.8 for k <= 10
    "constant_low": (10, Constant(0.02), 100),
    # a departure is likely, (1-c_k)^k < 1/2, at k = 1, 3, 5, 7 only
    "table": (
        8,
        Table({(k, 8): c for k, c in zip(range(1, 9), (0.6, 0.05, 0.3, 0.02, 0.15, 0.08, 0.4, 0.03))}),
        200,
    ),
    # c_k = 0.3 / sqrt(k): a departure is likely from 20 down to 5, not below
    "state_power_crossing": (20, StatePower(0.3, 0.5), 300),
    # everyone dies at once from state 3
    "table_certain_death": (6, Table({(k, 6): 1.0 if k == 3 else 0.1 for k in range(1, 7)}), 400),
    # landings from k >= 21 take the rejection draw
    "dense": (30, Constant(0.7), 700),
}


def _landing_draw(k, c):
    """The branch of the landing draw that a departure from k takes."""
    if k == 1 or c >= 1.0:
        return "none"
    if k * c > kernels._WALK_MAX * -math.expm1(k * math.log1p(-c)):
        return "reject"
    return "walk"


def _median_time(n, regime):
    return int(np.searchsorted(exact_extinction_curve(n, regime, MAX_TIME), 0.5))


def _uncensored(times, t_max):
    # censored runs (-1) sort above every extinction time
    return np.where(times < 0, t_max + 1, times)


def test_cases_cover_every_landing_draw():
    draws = {
        case: {_landing_draw(k, mortality(regime, k, n)) for k in range(1, n + 1)}
        for case, (n, regime, _) in CASES.items()
    }
    assert draws["constant_low"] == draws["state_power_crossing"] == {"none", "walk"}
    assert draws["dense"] == {"none", "walk", "reject"}
    assert _landing_draw(3, mortality(CASES["table_certain_death"][1], 3, 6)) == "none"


@pytest.mark.parametrize("case", CASES)
def test_extinction_law_matches_dp(case):
    n, regime, block = CASES[case]
    m = 20000
    times = extinction_time_batch(n, regime, make_stream(SEED, block), m, t_max=MAX_TIME)
    assert np.all((times == -1) | ((times >= 1) & (times <= MAX_TIME)))
    curve = exact_extinction_curve(n, regime, MAX_TIME)
    expected = np.append(np.diff(curve), 1.0 - curve[-1]) * m  # t = 1..MAX_TIME, censored
    observed = np.bincount(_uncensored(times, MAX_TIME), minlength=MAX_TIME + 2)[1:]
    _, _, p = chi_square_gof(observed.astype(float), expected)
    assert p > LEVEL, (case, p)


@pytest.mark.parametrize("case", CASES)
def test_censoring_at_small_t_max_matches_dp_survival(case):
    n, regime, block = CASES[case]
    m, t_max = 20000, _median_time(n, regime)
    times = extinction_time_batch(n, regime, make_stream(SEED, block + 1), m, t_max=t_max)
    assert np.all((times == -1) | ((times >= 1) & (times <= t_max)))
    survival = 1.0 - exact_extinction_curve(n, regime, t_max)[-1]
    low, high = wilson_interval(int(np.count_nonzero(times < 0)), m, 1.0 - LEVEL)
    assert low <= survival <= high, (case, t_max, survival, low, high)


@pytest.mark.parametrize("case", CASES)
def test_extinction_matches_stepped_reference(case):
    n, regime, block = CASES[case]
    m = 3000
    cs = prepare(regime, n)
    fast = np.empty(m, dtype=np.int64)
    kernels.extinction_batch(make_stream(SEED, block + 2).generator, fast, cs, n, MAX_TIME)
    gen = make_stream(SEED, block + 3).generator
    slow = np.array([stepped.extinction_time(gen, cs, n, MAX_TIME) for _ in range(m)])
    dist = ks_two_sample(_uncensored(fast, MAX_TIME), _uncensored(slow, MAX_TIME))
    assert dist < ks_two_sample_critical(m, m, LEVEL), case


def _paths(fill, gen, cs, n, t_max, m):
    """m paths from fill, as a (m, t_max+1) array with 0 after extinction."""
    paths = np.zeros((m, t_max + 1), dtype=np.int64)
    for row in paths:
        ext = fill(gen, row, cs, n, t_max)
        if ext >= 0:
            row[ext + 1 :] = 0
    return paths


def _last_move(paths):
    """Index at which each path reaches the state it holds at t_max."""
    return np.argmax(paths == paths[:, -1:], axis=1)


def _drawn_paths(n, regime, stream_id, t_max, m):
    """m paths as in ``_paths``, from one batch of ``simulate_trajectory``:
    the extinction walk with its holds.  ``trajectory_fill`` is one
    recorded run of the same walk, draw for draw
    (``tests/test_uniform_source.py``), so these laws cover it too."""
    batch = simulate_trajectory(n, regime, make_stream(SEED, stream_id), t_max, runs=m)
    paths = np.zeros((m, t_max + 1), dtype=np.int64)
    run = np.repeat(np.arange(m), batch.lengths)
    paths[run, np.arange(run.size) - np.repeat(np.cumsum(batch.lengths) - batch.lengths, batch.lengths)] = batch.states
    return paths


@pytest.mark.parametrize("case", CASES)
def test_trajectory_marginals_match_dp(case):
    # paths censored at the median extinction time, so half of them are
    # filled to t_max by the hold that outlasts it
    n, regime, block = CASES[case]
    m, t_max = 3000, _median_time(n, regime)
    paths = _drawn_paths(n, regime, block + 7, t_max, m)
    assert np.all(paths[:, 0] == n)
    assert np.all(np.diff(paths, axis=1) <= 0)
    history = state_distribution_history(n, regime, t_max)
    for t in sorted({1, t_max // 2, t_max}):
        observed = np.bincount(paths[:, t], minlength=n + 1).astype(float)
        _, _, p = chi_square_gof(observed, history[t] * m)
        assert p > LEVEL, (case, t, p)


@pytest.mark.parametrize("case", CASES)
def test_trajectory_matches_stepped_reference(case):
    n, regime, block = CASES[case]
    m, t_max = 2000, _median_time(n, regime)
    fast = _drawn_paths(n, regime, block + 8, t_max, m)
    gen = make_stream(SEED, block + 9).generator
    slow = _paths(stepped.trajectory_fill, gen, prepare(regime, n), n, t_max, m)
    crit = ks_two_sample_critical(m, m, LEVEL)
    # the state halfway, and the time of the last departure seen by t_max
    assert ks_two_sample(fast[:, t_max // 2], slow[:, t_max // 2]) < crit, case
    assert ks_two_sample(_last_move(fast), _last_move(slow)) < crit, case


SINGLE_DROP_CASES = {
    "constant_low": (10, Constant(0.02)),
    "table": CASES["table"][:2],
    "state_power": (10, StatePower(0.5, 2.0)),
}


@pytest.mark.parametrize("case", SINGLE_DROP_CASES)
def test_single_drop_matches_oracle_and_stepped_reference(case):
    n, regime = SINGLE_DROP_CASES[case]
    exact = exact_single_drop_path_prob(n, regime)
    m_fast, m_slow = 20000, 3000
    fast = int(np.count_nonzero(single_drop_batch(n, regime, make_stream(SEED, 500), m_fast)))
    cs = prepare(regime, n)
    gen = make_stream(SEED, 501).generator
    slow = sum(stepped.single_drop(gen, cs, n) for _ in range(m_slow))
    for hits, m in ((fast, m_fast), (slow, m_slow)):
        low, high = wilson_interval(hits, m, 1.0 - LEVEL)
        assert low <= exact <= high, (case, hits, m, exact)
    pooled = (fast + slow) / (m_fast + m_slow)
    z = (fast / m_fast - slow / m_slow) / math.sqrt(pooled * (1 - pooled) * (1 / m_fast + 1 / m_slow))
    assert abs(z) < 3.29, (case, z)  # two-sided 0.001


def test_single_drop_with_certain_death_at_a_level():
    # c = 1 at state 3 lands at 0 from there, a drop of three
    n, regime, _ = CASES["table_certain_death"]
    assert not single_drop_batch(n, regime, make_stream(SEED, 502), 2000).any()
    # c = 1 at state 1 is the one certain death that keeps the path single-drop
    lone = Table({(1, 2): 1.0, (2, 2): 0.5})
    flags = single_drop_batch(2, lone, make_stream(SEED, 503), 20000)
    low, high = wilson_interval(int(np.count_nonzero(flags)), 20000, 1.0 - LEVEL)
    assert low <= 2 / 3 <= high  # P(A_2) at c = 1/2


def _words_drawn(gen):
    """64-bit words a Philox generator has handed out; every uniform the
    kernels take costs one."""
    state = gen.bit_generator.state
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - int(state["buffer_pos"]))


def test_cost_is_at_most_one_draw_per_level():
    # at n = 10, c = 0.02 every level holds and every landing is one pmf
    # walk, so a single-drop sample costs at most n-1 uniforms and a path
    # at most 2n; stepping per time step costs hundreds
    n, c = 10, 0.02
    assert all((1 - c) ** k >= 0.5 and k * c <= 14 * -math.expm1(k * math.log1p(-c)) for k in range(1, n + 1))
    cs = prepare(Constant(c), n)
    gen = make_stream(SEED, 600).generator
    out = np.empty(1, dtype=np.uint8)
    for _ in range(500):
        before = _words_drawn(gen)
        kernels.single_drop_batch(gen, out, cs, n)
        assert _words_drawn(gen) - before <= n - 1
    t_max = 1200
    buf = np.empty(t_max + 1, dtype=np.int64)
    for _ in range(500):
        before = _words_drawn(gen)
        kernels.trajectory_fill(gen, buf, cs, n, t_max)
        assert _words_drawn(gen) - before <= 2 * n


PY = kernels.get_backend(False)


def _landing(gen, k, c):
    """Deaths in a departure from k by the full landing draw: the pmf walk
    from one death upward, or rejection of zero-death binomial draws where
    that walk would be long."""
    if k == 1 or c >= 1.0:
        return k
    lq = k * math.log1p(-c)
    total = -math.expm1(lq)
    if k * c > kernels._WALK_MAX * total:
        while True:
            d = PY.binomial_draw(gen, k, c)
            if d >= 1:
                return d
    ratio = c / (1.0 - c)
    mass = k * ratio * math.exp(lq)
    u = gen.random() * total
    b, acc = 1, mass
    while u > acc and b < k:
        mass *= ratio * (k - b) / (b + 1.0)
        b += 1
        acc += mass
    return b


def _hold(gen, k, c):
    """The geometric hold at k by inversion, capped at 4.6e18; certain
    death holds one step, on a uniform of its own."""
    u = gen.random()
    if c >= 1.0:
        return 1
    x = math.log1p(-u) / (k * math.log1p(-c))
    return int(4.6e18 if x >= 4.6e18 else math.floor(x) + 1.0)


def _single_death(gen, k, c):
    """Whether a departure from k kills exactly one: certain death and a
    lone individual without a draw, and at every other level one uniform
    u, by the landing walk's first test u (1-(1-c)^k) <= k c (1-c)^(k-1),
    whether the full landing draw would walk or reject."""
    if k == 1 or c >= 1.0:
        return k == 1
    lq = k * math.log1p(-c)
    return gen.random() * -math.expm1(lq) <= k * (c / (1.0 - c)) * math.exp(lq)


def _first_passage(gen, k, c, m):
    """(hold, code) of the first departure from k for m samples: every
    hold in order, then every single-death test in order."""
    holds = [_hold(gen, k, c) for _ in range(m)]
    codes = [kernels.FINITE if _single_death(gen, k, c) else kernels.JUMPED_OVER for _ in range(m)]
    return list(zip(holds, codes))


def _single_drops(gen, cs, n, m):
    """Whether every departure from n down to 2 kills exactly one, for m
    runs drawn level-major: at each level every run still in takes the
    single-death test, in run order, and stays in if it passes."""
    last = cs.shape[0] - 1
    live = range(m)
    for k in range(n, 1, -1):
        live = [i for i in live if _single_death(gen, k, float(cs[min(k, last)]))]
    return [i in live for i in range(m)]


def _extinction_walk(gen, cs, n, t_max, m):
    """Extinction times of m chains from n, -1 when censored, round-major:
    each round the hold of every live chain in run order, censoring those
    it carries past t_max; then the landings that walk the pmf, in run
    order; then those that reject, in run order.  Also each chain's path,
    its state at times 0, 1, ... up to extinction or t_max."""
    last = cs.shape[0] - 1
    k, t, out = [n] * m, [0] * m, [-1] * m
    paths = [[] for _ in range(m)]
    live = list(range(m)) if t_max > 0 else []
    while live:
        departing = []
        for i in live:
            hold = _hold(gen, k[i], float(cs[min(k[i], last)]))
            if hold <= t_max - t[i]:
                paths[i] += [k[i]] * hold
                t[i] += hold
                departing.append(i)
            else:
                paths[i] += [k[i]] * (t_max + 1 - len(paths[i]))
        draws = [_landing_draw(k[i], float(cs[min(k[i], last)])) for i in departing]
        for branch in ({"none", "walk"}, {"reject"}):
            for i, draw in zip(departing, draws):
                if draw in branch:
                    k[i] -= _landing(gen, k[i], float(cs[min(k[i], last)]))
        for i in departing:
            if k[i] == 0:
                out[i] = t[i]
            if k[i] == 0 or t[i] == t_max:
                paths[i].append(k[i])
        live = [i for i in departing if k[i] > 0 and t[i] < t_max]
    return out, paths


def _entry_points(name):
    """The active build's batch, the Python build's array entry point and
    the scalar source it keeps."""
    return getattr(kernels, name), getattr(PY, name), getattr(PY, name).__wrapped__


# k = 1, certain death, walks at small and large k, and rejection
PASSAGE_LEVELS = [(1, 0.3), (1, 1.0), (3, 1.0), (2, 1e-9), (5, 0.3), (10, 0.02), (30, 0.7), (1000, 0.05)]


def test_passage_levels_cover_every_landing_draw():
    assert {_landing_draw(k, c) for k, c in PASSAGE_LEVELS} == {"none", "walk", "reject"}


@pytest.mark.parametrize("k, c", PASSAGE_LEVELS)
def test_first_passage_batch_draws_what_the_single_death_test_draws(k, c):
    m = 2000
    ref = make_stream(SEED, 800).generator
    expected = _first_passage(ref, k, c, m)
    for kernel in _entry_points("first_passage_batch"):
        gen = make_stream(SEED, 800).generator
        out_j, out_code = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
        kernel(gen, k, c, out_j, out_code)
        assert list(zip(out_j.tolist(), out_code.tolist())) == expected, kernel
        assert _words_drawn(gen) == _words_drawn(ref), kernel


# every case above, certain death at state 1, and a chain with no level to pass
DROP_CHAINS = {
    **{case: (n, regime) for case, (n, regime, _) in CASES.items()},
    "lone_certain_death": (2, Table({(1, 2): 1.0, (2, 2): 0.5})),
    "single_level": (1, Constant(0.5)),
}


# and a chain whose top levels would land by transformed rejection, many
# uniforms a landing, where "dense" would land by one walk on one uniform
TESTED_DROP_CHAINS = {**DROP_CHAINS, "transformed_rejection": (300, Constant(0.05))}


@pytest.mark.parametrize("case", TESTED_DROP_CHAINS)
def test_single_drop_batch_draws_what_the_single_death_test_draws(case):
    n, regime = TESTED_DROP_CHAINS[case]
    cs, m = prepare(regime, n), 500
    ref = make_stream(SEED, 801).generator
    expected = _single_drops(ref, cs, n, m)
    for kernel in _entry_points("single_drop_batch"):
        gen = make_stream(SEED, 801).generator
        out = np.empty(m, dtype=np.uint8)
        kernel(gen, out, cs, n)
        assert out.astype(bool).tolist() == expected, kernel
        assert _words_drawn(gen) == _words_drawn(ref), kernel


# (k, c, samples, stream id) at the first level, at each c, whose full
# landing draw would reject; P(one death | a departure) is 8.53e-6 and
# 1.06e-6 there, so each draws for about 21 to 26 expected hits
FIRST_REJECTING = [(280, 0.05, 3 * 10**6, 900), (47, 0.3, 2 * 10**7, 901)]
PASSAGE_CHUNK = 10**6


@pytest.mark.parametrize("k, c, m, stream_id", FIRST_REJECTING)
def test_first_passage_at_the_first_rejecting_level_matches_the_law(k, c, m, stream_id):
    assert (_landing_draw(k, c), _landing_draw(k - 1, c)) == ("reject", "walk")
    gen = make_stream(SEED, stream_id).generator
    single = first = 0  # single deaths, and those at time 1
    for start in range(0, m, PASSAGE_CHUNK):
        size = min(PASSAGE_CHUNK, m - start)
        out_j, out_code = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
        kernels.first_passage_batch(gen, k, c, out_j, out_code)
        finite = out_code == kernels.FINITE
        single += int(np.count_nonzero(finite))
        first += int(np.count_nonzero(finite & (out_j == 1)))
    for hits, p in ((single, single_drop_prob(k, c)), (first, passage_pmf(k, c, 1))):
        assert m * p >= 20
        below, above = binomial_tails(hits, m, p)
        assert min(below, above) > LEVEL / 2, (k, c, hits, m * p)


# walking levels, and rejecting ones whose full landing would take one
# walk (30, 0.7) or transformed rejection; k = 1 and certain death draw
# no test
TESTED_LEVELS = [(10, 0.02), (5, 0.3), (30, 0.7), (47, 0.3), (280, 0.05), (1000, 0.05)]


@pytest.mark.parametrize("k, c", TESTED_LEVELS)
def test_a_single_death_question_takes_one_uniform(k, c):
    m = 700
    # below k every level is certain death, which draws nothing: each
    # single-drop run takes its one test at k and no other
    cs = np.append(np.ones(k), c)
    for kernel in _entry_points("first_passage_batch"):
        gen = make_stream(SEED, 803).generator
        kernel(gen, k, c, np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64))
        assert _words_drawn(gen) == 2 * m, kernel  # a hold and a test
    for kernel in _entry_points("single_drop_batch"):
        gen = make_stream(SEED, 804).generator
        kernel(gen, np.empty(m, dtype=np.uint8), cs, k)
        assert _words_drawn(gen) == m, kernel


# every chain above at a horizon that censors about half of its runs, and
# uncensored; a chain from 1000 whose upper levels reject
EXTINCTION_CHAINS = {
    **{case: (n, regime, _median_time(n, regime)) for case, (n, regime) in DROP_CHAINS.items()},
    **{f"{case}/uncensored": (n, regime, MAX_TIME) for case, (n, regime) in DROP_CHAINS.items()},
    "large_rejection": (1000, Constant(0.05), 150),
}


@pytest.mark.parametrize("case", EXTINCTION_CHAINS)
def test_extinction_batch_draws_what_the_full_landing_draw_draws(case):
    n, regime, t_max = EXTINCTION_CHAINS[case]
    cs, m = prepare(regime, n), 300
    ref = make_stream(SEED, 802).generator
    expected, paths = _extinction_walk(ref, cs, n, t_max, m)
    for kernel in _entry_points("extinction_batch"):
        for record in (False, True):
            gen = make_stream(SEED, 802).generator
            out = np.empty(m, dtype=np.int64)
            pieces = kernel(gen, out, cs, n, t_max, record)
            assert out.tolist() == expected, kernel
            assert _words_drawn(gen) == _words_drawn(ref), kernel
        # the recorded pieces, laid end to end run by run, are the paths
        recorded = [[] for _ in range(m)]
        for run, state, steps in zip(*(a.tolist() for a in pieces)):
            recorded[run] += [state] * steps
        assert recorded == paths, kernel
