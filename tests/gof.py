"""Goodness-of-fit helpers for the tests of discrete samplers.

Pooled chi-square: KS on discrete laws is conservative; chi-square is the
sharp tool there.  The p-value needs scipy, which only the tests depend
on.  ``family_misses`` checks many binomial counts at once at a stated
family-wise level.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc

from deathlab.stats import StatsError, wilson_interval


def pool_cells(observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """Merge adjacent cells until every pooled expected count is adequate."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if observed.shape != expected.shape or observed.ndim != 1:
        raise StatsError("observed and expected must be equal-length vectors")
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    return np.array(pooled_obs), np.array(pooled_exp)


def chi_square_gof(
    observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Pooled chi-square goodness of fit: (statistic, dof, p-value)."""
    obs, exp = pool_cells(observed, expected, min_expected)
    if exp.size < 2:
        raise StatsError("chi-square needs at least two pooled cells")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = int(exp.size - 1)
    p_value = float(gammaincc(dof / 2.0, stat / 2.0))
    return stat, dof, p_value


def family_misses(rows: dict, trials: int, level: float = 0.01) -> list[str]:
    """The rows, label -> (hits, p), whose count disagrees with p, as
    "label: observed vs p" lines.  Each row with 0 < p < 1 is checked with
    a Wilson interval at confidence 1 - level/r, r the number of such rows
    (Bonferroni), so the whole family fails by chance with probability
    about ``level`` at most.  A certain row, p = 0 or 1, is not counted: it
    must show exactly p * trials hits."""
    r = sum(0.0 < p < 1.0 for _, p in rows.values())
    misses = []
    for label, (hits, p) in rows.items():
        if 0.0 < p < 1.0:
            low, high = wilson_interval(hits, trials, 1.0 - level / r)
            agrees = low <= p <= high
        else:
            agrees = hits == p * trials
        if not agrees:
            misses.append(f"{label}: {hits / trials} vs {p}")
    return misses
