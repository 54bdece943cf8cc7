"""Backend equivalence: the numba build and the pure-Python build of every
kernel consume the same uniform stream and must agree bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from deathlab import kernels, process
from deathlab._parallel import CHUNK_SIZE
from deathlab.regimes import Constant, JointPower, StatePower, Table, prepare
from deathlab.rng import make_stream

pytestmark = pytest.mark.skipif(
    not kernels._HAVE_NUMBA, reason="equivalence needs both backends importable"
)


def _pair_of_generators(tag):
    return make_stream(99, tag).generator, make_stream(99, tag).generator


@pytest.fixture(scope="module")
def backends():
    return kernels.get_backend(True), kernels.get_backend(False)


def test_binomial_paths_identical(backends):
    nb, py = backends
    for tag, (x, c) in enumerate([(5, 0.3), (10, 0.9), (200, 0.05), (500, 0.5), (10**5, 0.4)]):
        g1, g2 = _pair_of_generators(tag)
        a = [nb.binomial_draw(g1, x, c) for _ in range(4000)]
        b = [py.binomial_draw(g2, x, c) for _ in range(4000)]
        assert a == b, (x, c)
        assert str(g1.bit_generator.state) == str(g2.bit_generator.state)


def test_geometric_and_max_geometric_identical(backends):
    nb, py = backends
    for tag, c in ((10, 0.2), (12, 1.0)):
        g1, g2 = _pair_of_generators(tag)
        a = np.empty(5000, dtype=np.int64)
        b = np.empty(5000, dtype=np.int64)
        nb.geometric_batch(g1, c, a)
        py.geometric_batch(g2, c, b)
        assert np.array_equal(a, b)
    for tag, c in ((11, 0.1), (13, 1.0)):
        g1, g2 = _pair_of_generators(tag)
        a = np.empty(5000, dtype=np.int64)
        b = np.empty(5000, dtype=np.int64)
        nb.max_geometric_batch(g1, 10**6, c, a)
        py.max_geometric_batch(g2, 10**6, c, b)
        assert np.array_equal(a, b)


def test_process_kernels_identical(backends):
    nb, py = backends
    g1, g2 = _pair_of_generators(20)
    a = np.empty(2000, dtype=np.int64)
    b = np.empty(2000, dtype=np.int64)
    cs = prepare(Constant(0.2), 50)
    nb.extinction_batch(g1, a, cs, 50, 10**6)
    py.extinction_batch(g2, b, cs, 50, 10**6)
    assert np.array_equal(a, b)
    cs = prepare(Constant(0.02), 10)  # every level holds; some runs censored
    nb.extinction_batch(g1, a, cs, 10, 150)
    py.extinction_batch(g2, b, cs, 10, 150)
    assert np.array_equal(a, b)

    g1, g2 = _pair_of_generators(21)
    ab = np.empty(1000, dtype=np.uint8)
    bb = np.empty(1000, dtype=np.uint8)
    cs = prepare(JointPower(1.0, 2.0), 10)
    nb.single_drop_batch(g1, ab, cs, 10)
    py.single_drop_batch(g2, bb, cs, 10)
    assert np.array_equal(ab, bb)

    g1, g2 = _pair_of_generators(22)
    aj = np.empty(2000, dtype=np.int64)
    ac = np.empty(2000, dtype=np.int64)
    bj = np.empty(2000, dtype=np.int64)
    bc = np.empty(2000, dtype=np.int64)
    nb.first_passage_batch(g1, 3, 1e-6, aj, ac)
    py.first_passage_batch(g2, 3, 1e-6, bj, bc)
    assert np.array_equal(aj, bj)
    assert np.array_equal(ac, bc)

    g1, g2 = _pair_of_generators(23)
    nb.first_passage_stepped_batch(g1, 3, 0.3, 10**6, aj, ac)
    py.first_passage_stepped_batch(g2, 3, 0.3, 10**6, bj, bc)
    assert np.array_equal(aj, bj)
    assert np.array_equal(ac, bc)


# certain death at state 3, a drop of three
CERTAIN_AT_3 = Table({(k, 6): 1.0 if k == 3 else 0.1 for k in range(1, 7)})

# (regime, n, t_max): walks only, censoring, rejection, rejection with
# censoring, certain death at a level
EXTINCTION_CASES = [
    (Constant(0.2), 50, 10**6),
    (StatePower(0.5, 1.0), 30, 40),
    (Constant(0.7), 30, 10**6),
    (Constant(0.05), 1000, 100),
    (CERTAIN_AT_3, 6, 10**6),
]


def _same_draws(backends, tag, run):
    """``run(backend, gen)`` returns a batch's outputs as lists; both builds
    must return equal ones and leave equal generator states."""
    seen = [(run(b, gen), str(gen.bit_generator.state)) for b, gen in zip(backends, _pair_of_generators(tag))]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("case", range(len(EXTINCTION_CASES)))
def test_extinction_batch_identical_at_every_landing_draw(backends, case):
    regime, n, t_max = EXTINCTION_CASES[case]
    cs = prepare(regime, n)

    def run(backend, gen):
        out = np.empty(700, dtype=np.int64)
        backend.extinction_batch(gen, out, cs, n, t_max)
        return out.tolist()

    _same_draws(backends, 40 + case, run)


@pytest.mark.parametrize("regime, n", [(Constant(0.7), 30), (CERTAIN_AT_3, 6), (Constant(0.02), 10)])
def test_single_drop_batch_identical_at_every_landing_draw(backends, regime, n):
    cs = prepare(regime, n)

    def run(backend, gen):
        out = np.empty(700, dtype=np.uint8)
        backend.single_drop_batch(gen, out, cs, n)
        return out.tolist()

    _same_draws(backends, 50 + n, run)


@pytest.mark.parametrize("k, c", [(1, 0.3), (3, 1.0), (5, 0.3), (30, 0.7), (1000, 0.05)])
def test_first_passage_batch_identical_at_every_landing_draw(backends, k, c):
    def run(backend, gen):
        out_j, out_code = np.empty(700, dtype=np.int64), np.empty(700, dtype=np.int64)
        backend.first_passage_batch(gen, k, c, out_j, out_code)
        return out_j.tolist(), out_code.tolist()

    _same_draws(backends, 60, run)


def test_multi_chunk_batches_identical(backends, monkeypatch):
    samples = 2 * CHUNK_SIZE + 5  # three chunks, shared by two workers

    def outcomes():
        return (
            process.extinction_time_batch(30, Constant(0.7), make_stream(99, 70), samples, workers=2).tolist(),
            process.single_drop_batch(10, Constant(0.02), make_stream(99, 71), samples, workers=2).tolist(),
            [a.tolist() for a in process.first_passage_batch(5, Constant(0.3), make_stream(99, 72), samples, workers=2)],
        )

    seen = []
    for backend in backends:
        for name in ("extinction_batch", "single_drop_batch", "first_passage_batch"):
            monkeypatch.setattr(kernels, name, getattr(backend, name))
        seen.append(outcomes())
    assert seen[0] == seen[1]


def test_trajectory_fill_identical(backends):
    nb, py = backends
    g1, g2 = _pair_of_generators(30)
    a = np.zeros(1001, dtype=np.int64)
    b = np.zeros(1001, dtype=np.int64)
    cs = prepare(StatePower(0.5, 1.0), 30)
    ea = nb.trajectory_fill(g1, a, cs, 30, 1000)
    eb = py.trajectory_fill(g2, b, cs, 30, 1000)
    assert ea == eb
    assert np.array_equal(a, b)
    # a hold that outlasts t_max fills the rest of the buffer
    cs = prepare(Constant(0.02), 10)
    for _ in range(20):
        assert nb.trajectory_fill(g1, a, cs, 10, 40) == py.trajectory_fill(g2, b, cs, 10, 40)
        assert np.array_equal(a[:41], b[:41])


@pytest.mark.parametrize(
    "regime, n, t_max",
    [
        (Constant(0.02), 10, 1200),  # walks only
        (Constant(0.02), 10, 2),  # censored
        (Constant(0.7), 30, 10**4),  # rejection: runs redone by the source
        (CERTAIN_AT_3, 6, 10**4),
        (Constant(0.01), 100, 10**5),  # rows extended
    ],
)
def test_trajectory_batch_identical(backends, regime, n, t_max):
    cs = prepare(regime, n)
    keys = make_stream(99, 80).substream_keys(60)
    seen = [[a.tolist() for a in backend.trajectory_batch(keys, cs, n, t_max)] for backend in backends]
    assert seen[0] == seen[1]


def test_env_flag_selects_python_backend():
    env = dict(os.environ, DEATHLAB_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "import deathlab; print(deathlab.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "python"


@pytest.mark.skipif(kernels.numba_disabled(), reason="fallback forced via env flag")
def test_default_backend_is_numba_here():
    assert kernels.BACKEND == "numba"

