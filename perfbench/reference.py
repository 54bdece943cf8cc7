"""Closed forms of the death process, recomputed from the formulas in
PAPER.md without importing deathlab.

Probabilities use exact rational arithmetic (``fractions.Fraction``) and
are rounded to a float only at the end; a mortality given as a decimal
string such as ``"0.02"`` is taken as the exact rational 1/50.  The
implosion series are summed with ``math.fsum``.  The only float formula is
the ratio-law exceedance at n = 10^6, whose exact rational would need a
power with a million-fold exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rational(c) -> Fraction:
    """A mortality as an exact rational; decimal strings stay exact."""
    return c if isinstance(c, Fraction) else Fraction(str(c))


def extinction_cdf(n: int, c, t: int) -> float:
    """P(extinct by t from n) = (1 - (1-c)^t)^n."""
    q = 1 - rational(c)
    return float((1 - q**t) ** n)


def single_drop_prob(k: int, c) -> float:
    """P(A_k) = k (1-c)^(k-1) c / (1 - (1-c)^k)."""
    return float(_single_drop(k, rational(c)))


def _single_drop(k: int, c: Fraction) -> Fraction:
    q = 1 - c
    return k * q ** (k - 1) * c / (1 - q**k)


def single_drop_path_prob(mortalities) -> float:
    """Product of P(A_k) over k = 1..n, entry k-1 giving c_k."""
    total = Fraction(1)
    for k, c in enumerate(mortalities, start=1):
        total *= _single_drop(k, rational(c))
    return float(total)


def path_lower_bound_constant(n: int, c) -> float:
    """(1-c)^(n(n-1)/2)."""
    return float((1 - rational(c)) ** (n * (n - 1) // 2))


def path_lower_bound_state(mortalities) -> float:
    """prod_k (1-c_k)^(k-1)."""
    total = Fraction(1)
    for k, c in enumerate(mortalities, start=1):
        total *= (1 - rational(c)) ** (k - 1)
    return float(total)


def passage_pmf(k: int, c, j: int) -> float:
    """P(T_k = j) = ((1-c)^k)^(j-1) k (1-c)^(k-1) c."""
    c = rational(c)
    q = 1 - c
    return float(q ** (k * (j - 1)) * k * q ** (k - 1) * c)


def implosion_mean(alpha: float, K: int) -> float:
    """sum_{k=1..K} k^-(alpha+1)."""
    return math.fsum(float(k) ** -(alpha + 1.0) for k in range(1, K + 1))


def implosion_variance(alpha: float, K: int) -> float:
    """sum_{k=1..K} k^-2(alpha+1)."""
    return math.fsum(float(k) ** (-2.0 * (alpha + 1.0)) for k in range(1, K + 1))


def exceedance(n: int, c: float, eps: float) -> float:
    """P(|tau_n/d_n - 1| > eps) with d_n = -ln n / ln(1-c), from the CDF."""
    d = -math.log(n) / math.log1p(-c)

    def cdf(t: int) -> float:
        return math.exp(n * math.log1p(-((1.0 - c) ** t))) if t > 0 else 0.0

    below = math.ceil((1.0 - eps) * d) - 1  # largest t with t < (1-eps) d
    above = math.floor((1.0 + eps) * d)  # largest t with t <= (1+eps) d
    return cdf(below) + 1.0 - cdf(above)


def extinction_moments(n: int, c: float, tol: float = 1e-16) -> tuple[float, float]:
    """Exact mean and variance of the extinction time from n under constant
    c, by summing the survival function: E tau = sum_t P(tau > t) and
    E tau^2 = sum_t (2t+1) P(tau > t)."""
    first, second = [], []
    q_t, t = 1.0, 0
    while True:
        survive = -math.expm1(n * math.log1p(-q_t)) if q_t < 1.0 else 1.0
        first.append(survive)
        second.append((2 * t + 1) * survive)
        if (2 * t + 1) * survive < tol and t > 0:
            break
        q_t *= 1.0 - c
        t += 1
    mean = math.fsum(first)
    return mean, math.fsum(second) - mean * mean
