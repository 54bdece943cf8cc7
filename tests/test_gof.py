import numpy as np

from deathlab.rng import make_stream
from gof import chi_square_gof, pool_cells


def test_pool_cells_merges_sparse_tails():
    observed = np.array([100.0, 3.0, 1.0, 0.0, 96.0])
    expected = np.array([99.0, 3.0, 1.5, 0.5, 96.0])
    obs, exp = pool_cells(observed, expected, min_expected=5.0)
    assert exp.min() >= 5.0
    assert obs.sum() == observed.sum()
    assert exp.sum() == expected.sum()


def test_chi_square_gof_calibration():
    gen = make_stream(100, 2).generator
    counts = np.bincount(gen.integers(0, 10, size=10**4), minlength=10)
    _, dof, p = chi_square_gof(counts.astype(float), np.full(10, 10**3))
    assert dof == 9
    assert p > 0.01
    skewed = np.full(10, 10**3)
    skewed[0] += 300
    skewed[1] -= 300
    _, _, p_bad = chi_square_gof(skewed.astype(float), np.full(10, 10**3))
    assert p_bad < 1e-6
