"""Statistical machinery linking Monte Carlo output to closed forms.

Covers what the report builders need: sample summaries, one- and
two-sample Kolmogorov-Smirnov statistics with asymptotic critical
values, and Wilson score intervals.  The pooled chi-square test of the
discrete samplers lives with the tests (``tests/gof.py``), so importing
the package does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np


class StatsError(ValueError):
    """Invalid sample or parameter."""


@dataclass(frozen=True)
class SampleSummary:
    """Count, mean, standard error, and a sorted copy for CDF queries."""

    count: int
    mean: float
    stderr: float
    sorted_values: np.ndarray

    @classmethod
    def from_samples(cls, values: Sequence[float] | np.ndarray) -> "SampleSummary":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise StatsError("need a nonempty one-dimensional sample")
        count = int(arr.size)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        return cls(count, mean, stderr, np.sort(arr))


def ks_statistic(
    summary: SampleSummary,
    cdf: Callable[[np.ndarray], np.ndarray],
    lattice: float | None = None,
) -> float:
    """One-sample KS distance between the sample and a reference CDF.

    For a continuous reference both one-sided gaps are taken at every
    sample point (the classical convention).  For a reference supported on
    a lattice pass its spacing: the left-limit gap is then evaluated
    against the reference's own left limit F(v - lattice) rather than
    F(v), which the continuous convention would otherwise inflate by the
    largest atom mass.  Combined with continuous-case critical values the
    lattice test is conservative.
    """
    values, counts = np.unique(summary.sorted_values, return_counts=True)
    cum = np.cumsum(counts)
    ref = np.asarray(cdf(values), dtype=np.float64)
    if np.any(np.diff(ref) < -1e-12):
        raise StatsError("reference CDF is not monotone on the sample range")
    m = summary.count
    ecdf_right = cum / m
    ecdf_left = (cum - counts) / m
    d_plus = float(np.max(ecdf_right - ref))
    if lattice is None:
        d_minus = float(np.max(ref - ecdf_left))
    else:
        ref_left = np.asarray(cdf(values - lattice), dtype=np.float64)
        d_plus = float(np.max(np.abs(ecdf_right - ref)))
        d_minus = float(np.max(np.abs(ecdf_left - ref_left)))
    return max(d_plus, d_minus, 0.0)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise StatsError("two-sample KS needs nonempty samples")
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def kolmogorov_sf(x: float) -> float:
    """Asymptotic KS tail probability: 2 sum_j (-1)^(j-1) exp(-2 j^2 x^2)."""
    if x <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * x * x)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def _kolmogorov_quantile(level: float) -> float:
    """x with tail probability ``level``, by bisection."""
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must lie in (0,1), got {level}")
    lo, hi = 0.05, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_critical_value(count: int, level: float = 0.01) -> float:
    """One-sample KS rejection threshold at the given level (asymptotic)."""
    if count < 1:
        raise StatsError(f"count must be >= 1, got {count}")
    return _kolmogorov_quantile(level) / math.sqrt(count)


def ks_two_sample_critical(m: int, n: int, level: float = 0.01) -> float:
    """Two-sample KS rejection threshold at the given level (asymptotic)."""
    if m < 1 or n < 1:
        raise StatsError("two-sample KS needs positive sample sizes")
    return _kolmogorov_quantile(level) * math.sqrt((m + n) / (m * n))


def wilson_interval(successes: int, trials: int, level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise StatsError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise StatsError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must lie in (0,1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)  # exact at the edges
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high
