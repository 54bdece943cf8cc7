import math

import numpy as np

from deathlab import single_drop_path_prob
from deathlab.rng import make_stream
from gof import chi_square_gof, family_misses, pool_cells


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


def _criterion_5_laws(scale=1.0):
    # the single-drop path probabilities of acceptance criterion 5, n = 1..10
    # at c = 0.05 and 0.1, with every c times scale; n = 1 is certain
    return {
        f"n={n}, c={c}": single_drop_path_prob(n, [c * scale] * n) for c in (0.05, 0.1) for n in range(1, 11)
    }


def test_family_rule_holds_its_level_and_has_power():
    # exact Binomial counts from numpy for families shaped like criterion 5:
    # at the true laws the rule rejects about 1% of families, and at c
    # 2% high it rejects most of them
    families, trials, level = 2000, 10**5, 0.01
    gen = np.random.default_rng(20261019)
    laws = _criterion_5_laws()

    def rejected(probs):
        counts = gen.binomial(trials, list(probs.values()), size=(families, len(probs)))
        return sum(
            bool(family_misses({label: (int(h), laws[label]) for label, h in zip(laws, row)}, trials, level))
            for row in counts.tolist()
        )

    assert rejected(laws) / families <= level + 3 * math.sqrt(level * (1 - level) / families)
    assert rejected(_criterion_5_laws(1.02)) > families / 2
