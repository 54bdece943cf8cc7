"""The batch entry points of the Python kernel build against their source.

Every ``*_batch`` entry point of the Python build is array code and must
draw what its scalar source (``__wrapped__``) draws.  Every case here
calls both on equal streams and compares outputs and
``bit_generator.state``; the extinction cases run again with the paths
recorded, compared once laid end to end.  The sizes span one run, a few,
and batches long enough that the rejection landings take their doubles
in several blocks, each one per landing still to draw, and that the
extinction walk reads its level constants from one table per batch (n
at most 4 runs) as well as per round; the cases span k = 1, certain
death at a level, censoring, and levels whose landing walks the pmf or
rejects, at the top of a chain or below it.  The stepped cases span
walks at c below and above 1/2, censoring, and the levels that call the
scalar source (transformed rejection, certain death); the stepped entry
is also checked against one ``binomial_draw`` per step.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from deathlab import _parallel, kernels, process
from deathlab._parallel import CHUNK_SIZE
from deathlab.regimes import Constant, StatePower, Table, prepare
from deathlab.rng import make_stream

PY = kernels.get_backend(False)
SEED = 20261018


BATCHES = {
    "geometric_batch", "max_geometric_batch", "extinction_batch", "single_drop_batch",
    "first_passage_batch", "first_passage_stepped_batch",
}


def test_every_batch_is_array_code_and_binomial_draw_is_its_source():
    named = {name: kernel for name, kernel in vars(PY).items() if callable(kernel)}
    assert set(named) == BATCHES | {"binomial_draw"}
    source = kernels._build_backend(False)
    for name, entry in named.items():
        if name in BATCHES:
            assert entry.__code__ is not entry.__wrapped__.__code__, name
            entry = entry.__wrapped__
        assert entry.__code__ is getattr(source, name).__code__, name


def _state(gen):
    s = gen.bit_generator.state
    return (
        s["state"]["counter"].tolist(),
        s["state"]["key"].tolist(),
        s["buffer"].tolist(),
        s["buffer_pos"],
        s["has_uint32"],
        s["uinteger"],
    )


def _ints(m):
    return np.zeros(m, dtype=np.int64)


def _flags(m):
    return np.zeros(m, dtype=np.uint8)


# certain death at state 3, a drop of three
CERTAIN_AT_3 = Table({(k, 6): 1.0 if k == 3 else 0.1 for k in range(1, 7)})
# levels 30 to 21 walk the pmf, level 20 rejects (20 c > 14), the rest walk
REJECTS_AT_20 = Table({(k, 30): 0.9 if k == 20 else 0.01 for k in range(1, 31)})

# (k, c, t_max) of the stepped reference: walks at c below and above 1/2,
# certain death (no uniform), transformed rejection below and above 1/2,
# censoring, a lone individual, and a walk above 1/2 that often stays
STEPPED_CASES = [
    (3, 0.3, 10**6), (5, 0.8, 10**6), (4, 1.0, 10**6), (100, 0.3, 10**6), (40, 0.9, 10**6),
    (200, 0.9, 10**6), (3, 1e-12, 10), (1, 0.3, 10**6), (5, 0.05, 30), (2, 0.6, 3),
]

# entry point -> builder of its arguments after the generator, for m samples
CASES = {
    "geometric_batch": lambda m: (0.2, _ints(m)),
    "geometric_batch/certain_death": lambda m: (1.0, _ints(m)),
    # most holds pass the cap of 4.6e18
    "geometric_batch/capped": lambda m: (1e-19, _ints(m)),
    "max_geometric_batch": lambda m: (100, 0.2, _ints(m)),
    "max_geometric_batch/certain_death": lambda m: (100, 1.0, _ints(m)),
    "max_geometric_batch/capped": lambda m: (100, 1e-19, _ints(m)),
    "max_geometric_batch/huge_n": lambda m: (2**53, 0.2, _ints(m)),
    "extinction_batch": lambda m: (_ints(m), prepare(Constant(0.2), 50), 50, 10**4),
    "extinction_batch/censored": lambda m: (_ints(m), prepare(StatePower(0.5, 1.0), 30), 30, 40),
    "extinction_batch/certain_death": lambda m: (_ints(m), prepare(CERTAIN_AT_3, 6), 6, 10**4),
    # landings from k >= 47 reject, and binomial_draw there runs BTRS (k c > 14)
    "extinction_batch/btrs": lambda m: (_ints(m), prepare(Constant(0.3), 400), 400, 10**4),
    # landings from k >= 21 reject
    "extinction_batch/rejection": lambda m: (_ints(m), prepare(Constant(0.7), 30), 30, 10**4),
    # rejection from 1000 down to about 280, then the walk; some runs censored
    "extinction_batch/rejection_censored": lambda m: (_ints(m), prepare(Constant(0.05), 1000), 1000, 100),
    "single_drop_batch": lambda m: (_flags(m), prepare(Constant(0.02), 10), 10),
    "single_drop_batch/certain_death": lambda m: (_flags(m), prepare(CERTAIN_AT_3, 6), 6),
    "single_drop_batch/rejection": lambda m: (_flags(m), prepare(Constant(0.7), 30), 30),
    "single_drop_batch/rejection_below": lambda m: (_flags(m), prepare(REJECTS_AT_20, 30), 30),
    "single_drop_batch/lone": lambda m: (_flags(m), prepare(Constant(0.3), 1), 1),
    "single_drop_batch/one_level": lambda m: (_flags(m), prepare(Constant(0.3), 2), 2),
    "single_drop_batch/state_power": lambda m: (_flags(m), prepare(StatePower(0.5, 2.0), 10), 10),
    # about 26 uniforms a run: live runs at each of 99 levels
    "single_drop_batch/refill": lambda m: (_flags(m), prepare(Constant(0.001), 100), 100),
    # every run fails within about 830 of 10^6 levels: the batch stops there
    "single_drop_batch/deep": lambda m: (_flags(m), prepare(Constant(1e-7), 10**6), 10**6),
    "first_passage_batch": lambda m: (5, 0.3, _ints(m), _ints(m)),
    "first_passage_batch/lone": lambda m: (1, 0.3, _ints(m), _ints(m)),
    "first_passage_batch/certain_death": lambda m: (3, 1.0, _ints(m), _ints(m)),
    "first_passage_batch/rejection": lambda m: (1000, 0.05, _ints(m), _ints(m)),
}


CASES.update({
    f"first_passage_stepped_batch/k={k},c={c:g},t_max={t_max}":
        lambda m, k=k, c=c, t_max=t_max: (k, c, t_max, _ints(m), _ints(m))
    for k, c, t_max in STEPPED_CASES
})


def _recording(build):
    return lambda m: build(m) + (True,)


# every extinction case again, with the paths recorded
CASES.update({f"{case}/record": _recording(build) for case, build in list(CASES.items())
              if case.startswith("extinction_batch")})
# the certain limit: nearly every level of 1000 visited, one death at a time,
# and holds up to about 10^4 steps at the last levels (not recorded: 3000
# paths of about 7000 steps as Python lists)
CASES["extinction_batch/long_chain"] = lambda m: (_ints(m), prepare(Constant(0.001), 1000), 1000, 10**4)
SIZES = (0, 1, 7, 40, 300, 3000)


def _expand(pieces, m):
    """The paths of m runs from the pieces (run, state, steps) a recording
    walk returns, run by run in plain Python."""
    assert [a.dtype for a in pieces] == [np.int64] * 3
    paths = [[] for _ in range(m)]
    for run, state, steps in zip(*(a.tolist() for a in pieces)):
        paths[run] += [state] * steps
    return paths


def _call(kernel, gen, args):
    result = kernel(gen, *args)
    if isinstance(result, tuple):  # extinction_batch's pieces, empty unless recorded
        result = _expand(result, args[0].shape[0])
    return result, [a.tolist() for a in args if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("m", SIZES)
def test_entry_point_matches_its_kernel(case, m):
    entry = getattr(PY, case.split("/")[0])
    raw = entry.__wrapped__
    assert raw is not entry
    g1, g2 = make_stream(SEED, m).generator, make_stream(SEED, m).generator
    assert _call(entry, g1, CASES[case](m)) == _call(raw, g2, CASES[case](m))
    assert _state(g1) == _state(g2)
    # the stream goes on where the kernel's own draws left it
    assert PY.binomial_draw(g1, 30, 0.3) == PY.binomial_draw(g2, 30, 0.3)
    assert g1.random(5).tolist() == g2.random(5).tolist()
    assert _state(g1) == _state(g2)


# (cs, n, t_max) of one run: each extinction case, and runs that start
# extinct, stop at once, are censored by their first hold, or land at
# t_max (None: t_max is the first hold of the run, a landing above 0 from
# 50 at c = 0.2)
FILL_CASES = {case: CASES[case](1)[1:] for case in CASES
              if case.startswith("extinction_batch") and not case.endswith("/record")}
FILL_CASES.update({
    "n_0": (prepare(Constant(0.2), 5), 0, 100),
    "t_max_0": (prepare(Constant(0.2), 5), 5, 0),
    "censored": (prepare(Constant(1e-9), 5), 5, 50),
    "lands_at_t_max": (prepare(Constant(0.2), 50), 50, None),
})


@pytest.mark.parametrize("case", sorted(FILL_CASES))
def test_trajectory_fill_is_one_recorded_run_of_the_walk(case):
    cs, n, t_max = FILL_CASES[case]
    walk = PY.extinction_batch.__wrapped__
    if t_max is None:
        t_max = int(walk(make_stream(SEED, 13).generator, _ints(1), cs, n, 10**4, True)[2][0])
    g1, g2 = make_stream(SEED, 13).generator, make_stream(SEED, 13).generator
    time = _ints(1)
    path = _expand(walk(g2, time, cs, n, t_max, True), 1)[0] or [n]
    out = np.full(t_max + 2, -7, dtype=np.int64)  # one entry past the longest path
    assert kernels.trajectory_fill(g1, out, cs, n, t_max) == time[0]
    assert out.tolist() == path + [-7] * (t_max + 2 - len(path))
    assert _state(g1) == _state(g2)
    expected = {"n_0": (0, [0]), "t_max_0": (-1, [5]), "censored": (-1, [5] * 51)}
    if case in expected:
        assert (time[0], path) == expected[case]
    if case == "lands_at_t_max":
        assert time[0] == -1 and path[:-1] == [n] * t_max and 0 < path[-1] < n


def test_simulate_walks_chunk_by_chunk(monkeypatch):
    # chunks of 7, 7 and 6 runs, each an extinction walk on its substream
    monkeypatch.setattr(_parallel, "CHUNK_SIZE", 7)
    root, cs = make_stream(SEED, 12), prepare(Constant(0.3), 12)
    batch = process.simulate_trajectory(12, Constant(0.3), root, t_max=7, runs=20)
    paths, times = [], []
    for i, m in enumerate((7, 7, 6)):
        out = _ints(m)
        paths += _expand(PY.extinction_batch.__wrapped__(root.substream(i).generator, out, cs, 12, 7, True), m)
        times += out.tolist()
    assert [p.tolist() for p in np.split(batch.states, np.cumsum(batch.lengths)[:-1])] == paths
    assert batch.extinction_times.tolist() == times


@pytest.mark.parametrize("case", sorted(CASES))
def test_zero_length_outputs_draw_nothing(case):
    entry = getattr(PY, case.split("/")[0])
    for kernel in (entry, entry.__wrapped__):
        gen = make_stream(SEED, 1).generator
        gen.random(3)  # a part-used Philox block
        before = _state(gen)
        kernel(gen, *CASES[case](0))
        assert _state(gen) == before


def _stepping(gen, k, c, t_max, out_j, out_code):
    """The stepped reference by its definition: one ``binomial_draw`` per
    step until the sample leaves k, censored after t_max steps."""
    for i in range(out_j.shape[0]):
        t = 0
        while True:
            t += 1
            d = PY.binomial_draw(gen, k, c)
            if d >= 1 or t == t_max:
                break
        out_j[i] = t
        out_code[i] = kernels.CENSORED if d < 1 else kernels.FINITE if d == 1 else kernels.JUMPED_OVER


@pytest.mark.parametrize("k, c, t_max", STEPPED_CASES)
@pytest.mark.parametrize("m", SIZES)
def test_stepped_entry_steps_one_binomial_draw_at_a_time(k, c, t_max, m):
    seen = []
    for kernel in (PY.first_passage_stepped_batch, _stepping):
        gen, out_j, out_code = make_stream(SEED, m).generator, _ints(m), _ints(m)
        kernel(gen, k, c, t_max, out_j, out_code)
        seen.append((out_j.tolist(), out_code.tolist(), _state(gen)))
    assert seen[0] == seen[1]
    if c == 1.0:
        assert seen[0][:2] == ([1] * m, [kernels.JUMPED_OVER] * m)
    if t_max == 10:
        assert seen[0][:2] == ([10] * m, [kernels.CENSORED] * m)


@pytest.mark.parametrize("fail_at", [2, 40, 700])
def test_a_stepped_batch_that_raises_leaves_the_stream_where_its_draws_did(fail_at):
    # out_code is shorter than out_j, so the scalar source raises on
    # writing sample fail_at
    seen = []
    for kernel in (PY.first_passage_stepped_batch.__wrapped__, _stepping):
        gen = make_stream(SEED, 7).generator
        out_j, out_code = _ints(1000), _ints(fail_at)
        with pytest.raises(IndexError) as raised:
            kernel(gen, 5, 0.05, 30, out_j, out_code)
        seen.append((out_j.tolist(), out_code.tolist(), _state(gen), raised.type))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("fail_at", [2, 40, 700])
def test_a_stepped_array_batch_that_raises_writes_the_sources_times_first(fail_at):
    # the array entry writes a round's times, then fails on its codes: it
    # raises too, with the source's times up to sample fail_at in place
    seen = []
    for kernel, error in ((PY.first_passage_stepped_batch, ValueError),
                          (PY.first_passage_stepped_batch.__wrapped__, IndexError)):
        out_j = _ints(1000)
        with pytest.raises(error):
            kernel(make_stream(SEED, 7).generator, 5, 0.05, 30, out_j, _ints(fail_at))
        seen.append(out_j[: fail_at + 1].tolist())
    assert seen[0] == seen[1]


def test_a_huge_start_allocates_no_array_of_its_size():
    # 3 runs from n: the walk takes each round's levels, never a table of
    # every state.  n = 10^6 comes first: an O(n) table shows there as 8 MB,
    # before it could reach 8 GB at 10^9
    process.extinction_time_batch(50, Constant(0.3), make_stream(SEED, 15), 3)  # one-off set-up
    for n in (10**6, 10**9):
        tracemalloc.start()
        try:
            process.extinction_time_batch(n, Constant(0.3), make_stream(SEED, 15), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**18, n


def test_the_source_leaves_no_cycles():
    # blocks held by a reference cycle would outlive the call until the
    # collector ran, and raise peak memory; the rejection landings of this
    # chain take their doubles in blocks
    cs = prepare(Constant(0.7), 30)
    gen = make_stream(SEED, 8).generator
    gc.collect()
    gc.disable()
    try:
        PY.extinction_batch(gen, _ints(500), cs, 30, 10**4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(kernels.BACKEND != "python", reason="the array entry points are the Python build's")
def test_worker_counts_and_the_raw_kernels_agree_through_process(monkeypatch):
    samples = 2 * CHUNK_SIZE + 5  # three chunks, so two workers share them
    regime = Constant(0.5)

    def outcomes(workers):
        ext = process.extinction_time_batch(3, regime, make_stream(SEED, 9), samples, workers=workers)
        times, codes = process.first_passage_batch(
            4, regime, make_stream(SEED, 10), samples, workers=workers
        )
        return ext.tolist(), times.tolist(), codes.tolist()

    one, two = outcomes(1), outcomes(2)
    monkeypatch.setattr(kernels, "extinction_batch", PY.extinction_batch.__wrapped__)
    monkeypatch.setattr(kernels, "first_passage_batch", PY.first_passage_batch.__wrapped__)
    assert one == two == outcomes(1)


# (k, c) of levels that walk the pmf, short and long walks
WALK_LEVELS = [(3, 0.3), (5, 0.3), (50, 0.2), (10, 0.02), (200, 0.01)]


def _hold(u, lq):
    x = math.log1p(-u) / lq
    return int(4.6e18 if x >= 4.6e18 else math.floor(x) + 1.0)


def test_array_holds_match_the_scalar_hold_at_integer_boundaries():
    # uniforms whose x = log1p(-u)/lq lies within rounding of an integer,
    # where a logarithm off in its last bit moves the hold by one step;
    # where numpy's log1p is not libm's, it differs on some of them
    for k, c in WALK_LEVELS + [(1, 0.001), (2, 0.01)]:
        lq = k * math.log1p(-c)
        u = [-math.expm1(j * lq) for j in range(1, 5000)]
        u = [v for v in u if v < 1.0]
        assert kernels._holds(np.array(u), lq).tolist() == [_hold(v, lq) for v in u], (k, c)


def test_numpy_log1p_stays_inside_the_holds_guard():
    # _holds keeps numpy's log1p where x (1 -+ 2^-40) brackets no integer,
    # which is sound while numpy strays from libm by far less than 2^-40
    u = np.concatenate([
        make_stream(SEED, 0).generator.random(10**5),
        np.linspace(0.0, 1.0, 10**4, endpoint=False),
        np.logspace(-300, -1, 2000),
        1.0 - np.logspace(-16, -1, 2000),
    ])
    libm = np.array([math.log1p(-v) for v in u.tolist()])
    assert np.all(np.abs(np.log1p(-u) - libm) <= 2.0**-44 * np.abs(libm))


def test_array_holds_match_the_scalar_hold_at_the_edges():
    cap = kernels.HOLD_CAP
    u = np.array([0.0, 2.0**-53, 1e-300, 0.3, 0.5, 0.9, 1.0 - 2.0**-53])
    # certain death (lq = -inf) and u = 0 hold one step
    assert kernels._holds(u, -math.inf).tolist() == [1] * u.size
    assert kernels._holds(np.zeros(3), np.array([-0.1, -1e-300, -math.inf])).tolist() == [1, 1, 1]
    # x near the cap, and x past a double at tiny c (lq = -1e-320)
    near_cap = [math.log1p(-v) / (cap * f) for v in u[1:].tolist() for f in (1 - 2**-50, 1.0, 1 + 2**-50)]
    for lq in near_cap + [-1e-320, math.log1p(-1e-19)]:
        assert kernels._holds(u, lq).tolist() == [_hold(v, lq) for v in u.tolist()], lq
    # one lq per uniform, mixing held, capped and certain levels
    lq = np.array([-0.2, near_cap[4], -1e-320, -math.inf, -3.0, near_cap[-1], -1e-320])
    assert kernels._holds(u, lq).tolist() == [_hold(v, q) for v, q in zip(u.tolist(), lq.tolist())]


def test_array_walk_matches_the_scalar_walk_at_ties():
    # targets equal to each running sum of the walk, and one ulp above
    # it, where a sum off in its last bit moves the landing by one death
    for k, c in WALK_LEVELS:
        _, _, mass, ratio, _ = kernels._level_constants(k, c)
        sums, term, acc = [mass], mass, mass
        for b in range(1, k):
            term *= ratio * (k - b) / (b + 1.0)
            acc += term
            sums.append(acc)
        targets = sums + [math.nextafter(s, math.inf) for s in sums]
        expected = [next((b for b, s in enumerate(sums, 1) if not t > s), k) for t in targets]
        got = kernels._walk(np.array(targets), np.zeros(len(targets), dtype=np.int64), np.array([mass]),
                            np.array([ratio]), np.array([k]))
        assert got.tolist() == expected, (k, c)


class _Listed:
    """A generator that hands out the listed doubles in order, one per
    ``random()`` and ``size`` per ``random(size)``."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self, size=None):
        self.at += 1 if size is None else size
        if size is None:
            return self.values[self.at - 1]
        return np.array(self.values[self.at - size : self.at])


# chains from k at constant c; at the top level of the first three the
# quotient mass/total rounds up past the least uniform that fails it
DROP_TIE_CHAINS = [(12, 0.1), (25, 0.05), (43, 0.02), (10, 0.02), (3, 0.3)]


def _boundary(total, mass):
    # the largest uniform that passes a level, u * total <= mass (at most
    # levels one with u * total == mass exactly), and the next double
    u = mass / total
    while u * total > mass:
        u = math.nextafter(u, 0.0)
    while math.nextafter(u, 1.0) * total <= mass:
        u = math.nextafter(u, 1.0)
    return u, math.nextafter(u, 1.0)


@pytest.mark.parametrize("k, c", DROP_TIE_CHAINS)
def test_single_drop_entry_matches_its_source_at_ties(k, c):
    # two runs per level j: run 2j meets the boundary uniform there and
    # run 2j+1 the double above it, and both meet u = 0 at every other
    # level; so run 2j passes every level and run 2j+1 fails at level j
    levels = range(k, 1, -1)
    ties = [_boundary(*kernels._level_constants(level, c)[1:3]) for level in levels]
    values = []
    for j, tie in enumerate(ties):
        for run in range(2 * len(ties)):
            if run % 2 == 0 or run // 2 >= j:  # still in at level j
                values.append(tie[run % 2] if run // 2 == j else 0.0)
    cs = prepare(Constant(c), k)
    seen = []
    for kernel in (PY.single_drop_batch, PY.single_drop_batch.__wrapped__):
        gen, out = _Listed(values), _flags(2 * len(ties))
        kernel(gen, out, cs, k)
        seen.append((out.tolist(), gen.at))
    assert seen[0] == seen[1] == ([1, 0] * len(ties), len(values))


# doubles no Philox stream hands out early: u = 0 (a max of one without a
# logarithm, a hold of one); u = 1e-300, where u^(1/n) - 1 rounds to -1 at
# n = 1, so the max rounds below one (the tf < 1 branch); and the ends of
# the doubles a stream can give
EDGE_UNIFORMS = [0.0, 1e-300, 2.0**-53, 0.5, 1.0 - 2.0**-53]


@pytest.mark.parametrize("m", [1, 7, 2000])
@pytest.mark.parametrize("name, args", [
    ("geometric_batch", (0.2,)), ("geometric_batch", (1e-19,)), ("geometric_batch", (1.0,)),
    ("max_geometric_batch", (1, 0.2)), ("max_geometric_batch", (100, 0.2)),
    ("max_geometric_batch", (100, 1e-19)), ("max_geometric_batch", (3, 1.0)),
])
def test_geometric_entries_match_their_source_at_every_branch(m, name, args):
    values = (EDGE_UNIFORMS + make_stream(SEED, 11).generator.random(m).tolist())[:m]
    entry = getattr(PY, name)
    seen = []
    for kernel in (entry, entry.__wrapped__):
        gen, out = _Listed(values), _ints(m)
        kernel(gen, *args, out)
        seen.append((out.tolist(), gen.at))
    assert seen[0] == seen[1]


# Transformed rejection at k = 40, c = 0.4 (a level whose landing
# rejects): a first uniform in [0.01128, 0.01225] and a tiny second one
# accept 0 deaths; a first uniform of 0 (u = -1/2, outside the method's
# open domain) rejects the attempt; a second uniform of 0 accepts.
NO_DEATH = [0.0117, 1e-12]
OFF_DOMAIN = [0.0, 0.3]
ZERO_V = [0.0117, 0.0]


def test_transformed_rejection_takes_uniforms_of_zero():
    for script, deaths in ((NO_DEATH, 0), (ZERO_V, 0), (OFF_DOMAIN + NO_DEATH, 0)):
        gen = _Listed(script)
        assert PY.binomial_draw(gen, 40, 0.4) == deaths
        assert gen.at == len(script)


@pytest.mark.parametrize("m", [1, 3, 7])
def test_a_landing_that_draws_no_death_draws_again(m):
    # one round of the extinction walk from 40, a level that rejects, up to
    # t_max = 1: m holds, then m landings.  The first landing draws 0
    # deaths twice, with an attempt off the domain between, before the
    # stream's own doubles; every attempt takes two uniforms at least
    assert kernels._level_constants(40, 0.4)[4] == kernels._REJECTS
    stream = make_stream(SEED, 14).generator.random(m + 200).tolist()
    values = stream[:m] + NO_DEATH + OFF_DOMAIN + ZERO_V + stream[m:]
    seen = []
    for kernel in (PY.extinction_batch, PY.extinction_batch.__wrapped__):
        gen, out = _Listed(values), _ints(m)
        paths = _expand(kernel(gen, out, prepare(Constant(0.4), 40), 40, 1, True), m)
        seen.append((out.tolist(), paths, gen.at))
    assert seen[0] == seen[1]
    assert all(len(path) == 2 and 0 < path[1] < 40 for path in seen[0][1])
    assert seen[0][2] >= 3 * m + 6
