"""The batch entry points of the Python kernel build against their source.

Six entry points of the Python build, ``extinction_batch``,
``single_drop_batch``, ``first_passage_batch``, ``geometric_batch``,
``max_geometric_batch`` and ``trajectory_batch``, are array code.
``first_passage_stepped_batch`` runs the shared scalar source on a block
source that hands out, in order, the doubles ``gen.random()`` would, and
leaves the generator where those calls would leave it, also when the
kernel raises.  Either way the entry point must draw what its scalar
source (``__wrapped__``) draws.
Every case here calls both on equal streams and compares outputs and
``bit_generator.state``.  The sizes span part of the first block, the
switch from one block to the next and blocks of the largest size; the
cases span k = 1, certain death at a level, censoring, and levels whose
landing walks the pmf or rejects, at the top of a chain or below it.
"""

import gc
import math

import numpy as np
import pytest

from deathlab import kernels, process
from deathlab._parallel import CHUNK_SIZE
from deathlab.regimes import Constant, StatePower, Table, prepare
from deathlab.rng import make_stream

PY = kernels.get_backend(False)
SEED = 20261018


BATCHES = {
    "geometric_batch", "max_geometric_batch", "extinction_batch", "single_drop_batch",
    "first_passage_batch", "first_passage_stepped_batch", "trajectory_batch",
}


def test_every_exported_batch_and_nothing_else_is_buffered():
    named = {name: kernel for name, kernel in vars(PY).items() if callable(kernel)}
    assert set(named) == BATCHES | {"binomial_draw", "trajectory_fill"}
    for name, kernel in named.items():
        assert hasattr(kernel, "__wrapped__") == (name in BATCHES), name


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
    "first_passage_stepped_batch": lambda m: (5, 0.05, 30, _ints(m), _ints(m)),
}
SIZES = (0, 1, 7, 40, 300, 3000)
ARRAY_ENTRIES = {
    "extinction_batch", "single_drop_batch", "first_passage_batch", "geometric_batch",
    "max_geometric_batch", "trajectory_batch",
}


def test_six_entry_points_are_array_code_and_one_uses_the_block_source():
    for name in BATCHES:
        entry = getattr(PY, name)
        assert entry is not entry.__wrapped__
        assert (entry.__code__ is kernels._buffered(entry.__wrapped__).__code__) == (name not in ARRAY_ENTRIES)


def _call(kernel, gen, args):
    result = kernel(gen, *args)
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


def _record(gen, m, seen):
    # a kernel that keeps every uniform it draws
    for _ in range(m):
        seen.append(gen.random())


@pytest.mark.parametrize("m", [0, 1, 64, 65, 192, 193, 5000])
def test_the_source_hands_out_the_generator_doubles(m):
    g1, g2 = make_stream(SEED, 2).generator, make_stream(SEED, 2).generator
    seen = []
    kernels._buffered(_record)(g1, m, seen)
    assert seen == [g2.random() for _ in range(m)]
    assert _state(g1) == _state(g2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_zero_length_outputs_draw_nothing(case):
    entry = getattr(PY, case.split("/")[0])
    for kernel in (entry, entry.__wrapped__):
        gen = make_stream(SEED, 1).generator
        gen.random(3)  # a part-used Philox block
        before = _state(gen)
        kernel(gen, *CASES[case](0))
        assert _state(gen) == before


@pytest.mark.parametrize("fail_at", [2, 40, 700])
def test_a_kernel_that_raises_leaves_the_stream_where_its_draws_did(fail_at):
    # out_code is shorter than out_j, so the kernel raises on writing
    # sample fail_at, in the first block or after it
    seen = []
    for kernel in (PY.first_passage_stepped_batch, PY.first_passage_stepped_batch.__wrapped__):
        gen = make_stream(SEED, 7).generator
        out_j, out_code = _ints(1000), _ints(fail_at)
        with pytest.raises(IndexError) as raised:
            kernel(gen, 5, 0.05, 30, out_j, out_code)
        # read while the traceback, and every frame on it, is alive
        seen.append((out_j.tolist(), out_code.tolist(), _state(gen), raised.type))
    assert seen[0] == seen[1]


def test_the_source_leaves_no_cycles():
    # blocks held by a reference cycle would outlive the call until the
    # collector ran, and raise peak memory; the rejection landings of this
    # chain run on the block source
    cs = prepare(Constant(0.7), 30)
    gen = make_stream(SEED, 8).generator
    gc.collect()
    gc.disable()
    try:
        PY.extinction_batch(gen, _ints(500), cs, 30, 10**4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(kernels.BACKEND != "python", reason="the block source wraps the Python build")
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


def test_array_walk_matches_the_scalar_walk_at_ties():
    # targets equal to each running sum of the walk, and one ulp above
    # it, where a sum off in its last bit moves the landing by one death
    for k, c in WALK_LEVELS:
        _, _, mass = kernels._level_constants(k, c)
        ratio = c / (1.0 - c)
        sums, term, acc = [mass], mass, mass
        for b in range(1, k):
            term *= ratio * (k - b) / (b + 1.0)
            acc += term
            sums.append(acc)
        targets = sums + [math.nextafter(s, math.inf) for s in sums]
        expected = [next((b for b, s in enumerate(sums, 1) if not t > s), k) for t in targets]
        got = kernels._walk(np.array(targets), np.full(len(targets), mass), np.full(len(targets), ratio),
                            np.full(len(targets), k))
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
    ties = [_boundary(*kernels._level_constants(level, c)[1:]) for level in levels]
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


LOW_TABLE = Table({(k, 10): 0.02 for k in range(1, 11)})

# (regime, n, t_max or None for the default horizon, runs)
TRAJECTORY_CASES = {
    # the two regimes of the low-mortality workload
    "low_constant": (Constant(0.02), 10, None, 200),
    "low_table": (LOW_TABLE, 10, None, 200),
    # landings from k >= 21 reject: each run is redone by the source
    "rejection": (Constant(0.7), 30, None, 100),
    "certain_death": (CERTAIN_AT_3, 6, None, 100),
    "censored": (Constant(0.02), 10, 2, 100),
    # about 200 uniforms a run, in rows of 64
    "extended_rows": (Constant(0.01), 100, None, 30),
    # rejection from 1000 down to about 280, some runs censored
    "rejection_censored": (Constant(0.05), 1000, 100, 20),
    "single_run": (Constant(0.02), 10, None, 1),
    "no_runs": (Constant(0.02), 10, None, 0),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trajectory_batch_matches_its_source(case, seed, monkeypatch):
    regime, n, t_max, runs = TRAJECTORY_CASES[case]
    cs, t_max = process._prepare_run(regime, n, t_max)
    keys = make_stream(seed, 0).substream_keys(runs)
    seeks = []  # the word each seek of the array code starts its stream at
    seek = kernels._seek

    def counted(bitgen, state, key, word=0):
        seeks.append(word)
        seek(bitgen, state, key, word)

    monkeypatch.setattr(kernels, "_seek", counted)
    got = PY.trajectory_batch(keys, cs, n, t_max)
    monkeypatch.setattr(kernels, "_seek", seek)
    want = PY.trajectory_batch.__wrapped__(keys, cs, n, t_max)
    assert [a.dtype for a in got] == [np.int64] * 3
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    # rows are extended where a run outlasts its row, and a run at a
    # rejection level is redone from its start
    assert any(seeks) == (case == "extended_rows")
    assert (seeks.count(0) > runs) == case.startswith("rejection")


def test_trajectory_batch_splits_the_runs_alike(monkeypatch):
    cs = prepare(Constant(0.02), 10)
    keys = make_stream(SEED, 12).substream_keys(20)
    whole = PY.trajectory_batch(keys, cs, 10, 1000)
    monkeypatch.setattr(kernels, "_PATH_RUNS", 7)
    assert [a.tolist() for a in PY.trajectory_batch(keys, cs, 10, 1000)] == [a.tolist() for a in whole]
