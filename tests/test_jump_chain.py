"""Laws of the jump-chain kernels.

The extinction and trajectory kernels draw the geometric holding time at
each level and then the landing state; the single-drop kernel walks the
jump chain alone.  The landing draw walks the conditional pmf or, where
that walk would be long, rejects zero-death binomial draws.  These tests
check the draws against the law itself -- the dynamic-programming oracle
and the single-drop oracle -- and against the per-step references in
``stepped.py``.  The cases cover a regime where every level holds long, a
``Table``, a ``StatePower`` regime whose stay chance crosses 1/2 along the
path, a ``Table`` entry with c = 1, and a dense regime whose landings from
the top levels take the rejection draw.

The last tests pin the draw order of the batches.  Test-side copies of
the full landing draw, run sample by sample for first passages,
level-major for single drops and round-major for extinction times, must
draw what the active build, the Python build's entry points and their
scalar source draw, up to the generator's end position.

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
    single_drop_batch,
    wilson_interval,
)
from deathlab import kernels
from deathlab.oracle import MAX_TIME, exact_extinction_curve, state_distribution_history
from deathlab.regimes import mortality, prepare
from gof import chi_square_gof
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


@pytest.mark.parametrize("case", CASES)
def test_trajectory_marginals_match_dp(case):
    # paths censored at the median extinction time, so half of them are
    # filled to t_max by the hold that outlasts it
    n, regime, block = CASES[case]
    m, t_max = 3000, _median_time(n, regime)
    cs = prepare(regime, n)
    paths = _paths(kernels.trajectory_fill, make_stream(SEED, block + 4).generator, cs, n, t_max, m)
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
    cs = prepare(regime, n)
    fast = _paths(kernels.trajectory_fill, make_stream(SEED, block + 5).generator, cs, n, t_max, m)
    slow = _paths(stepped.trajectory_fill, make_stream(SEED, block + 6).generator, cs, n, t_max, m)
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


def _first_passage(gen, k, c):
    """(hold, code) of the first departure from k: the hold, then the full
    landing draw; certain death draws nothing."""
    if c >= 1.0:
        return 1, kernels.FINITE if k == 1 else kernels.JUMPED_OVER
    return _hold(gen, k, c), kernels.FINITE if _landing(gen, k, c) == 1 else kernels.JUMPED_OVER


def _single_drops(gen, cs, n, m):
    """Whether every landing from n down to 2 kills exactly one, for m runs
    drawn level-major: at each level every run still in takes the full
    landing draw, in run order, and stays in if it kills exactly one."""
    last = cs.shape[0] - 1
    live = range(m)
    for k in range(n, 1, -1):
        live = [i for i in live if _landing(gen, k, float(cs[min(k, last)])) == 1]
    return [i in live for i in range(m)]


def _extinction_times(gen, cs, n, t_max, m):
    """Extinction times of m chains from n, -1 when censored, round-major:
    each round the hold of every live chain in run order, censoring those
    it carries past t_max; then the landings that walk the pmf, in run
    order; then those that reject, in run order."""
    last = cs.shape[0] - 1
    k, t, out = [n] * m, [0] * m, [-1] * m
    live = list(range(m)) if t_max > 0 else []
    while live:
        departing = []
        for i in live:
            hold = _hold(gen, k[i], float(cs[min(k[i], last)]))
            if hold <= t_max - t[i]:
                t[i] += hold
                departing.append(i)
        draws = [_landing_draw(k[i], float(cs[min(k[i], last)])) for i in departing]
        for branch in ({"none", "walk"}, {"reject"}):
            for i, draw in zip(departing, draws):
                if draw in branch:
                    k[i] -= _landing(gen, k[i], float(cs[min(k[i], last)]))
        for i in departing:
            if k[i] == 0:
                out[i] = t[i]
        live = [i for i in departing if k[i] > 0 and t[i] < t_max]
    return out


def _entry_points(name):
    """The active build's batch, the Python build's block-source entry point
    and the kernel it wraps."""
    return getattr(kernels, name), getattr(PY, name), getattr(PY, name).__wrapped__


# k = 1, certain death, walks at small and large k, and rejection
PASSAGE_LEVELS = [(1, 0.3), (1, 1.0), (3, 1.0), (2, 1e-9), (5, 0.3), (10, 0.02), (30, 0.7), (1000, 0.05)]


def test_passage_levels_cover_every_landing_draw():
    assert {_landing_draw(k, c) for k, c in PASSAGE_LEVELS} == {"none", "walk", "reject"}


@pytest.mark.parametrize("k, c", PASSAGE_LEVELS)
def test_first_passage_batch_draws_what_the_full_landing_draw_draws(k, c):
    m = 2000
    ref = make_stream(SEED, 800).generator
    expected = [_first_passage(ref, k, c) for _ in range(m)]
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


@pytest.mark.parametrize("case", DROP_CHAINS)
def test_single_drop_batch_draws_what_the_full_landing_draw_draws(case):
    n, regime = DROP_CHAINS[case]
    cs, m = prepare(regime, n), 500
    ref = make_stream(SEED, 801).generator
    expected = _single_drops(ref, cs, n, m)
    for kernel in _entry_points("single_drop_batch"):
        gen = make_stream(SEED, 801).generator
        out = np.empty(m, dtype=np.uint8)
        kernel(gen, out, cs, n)
        assert out.astype(bool).tolist() == expected, kernel
        assert _words_drawn(gen) == _words_drawn(ref), kernel


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
    expected = _extinction_times(ref, cs, n, t_max, m)
    for kernel in _entry_points("extinction_batch"):
        gen = make_stream(SEED, 802).generator
        out = np.empty(m, dtype=np.int64)
        kernel(gen, out, cs, n, t_max)
        assert out.tolist() == expected, kernel
        assert _words_drawn(gen) == _words_drawn(ref), kernel
