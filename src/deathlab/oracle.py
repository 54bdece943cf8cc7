"""Brute-force ground truth on small instances.

Everything here re-derives its answer from the raw binomial transition
law, never from the closed forms in :mod:`deathlab.analytics`, so that
agreement between the two is evidence rather than tautology.  Instances
are capped at desk scale (n <= 30, t <= 200); the dynamic program runs in
extended precision to keep accumulation error far below the 1e-12
comparison tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .regimes import MortalityRegime, mortality

MAX_STATE = 30
MAX_TIME = 200
# mgf_by_summation refuses series longer than this
MAX_SERIES_TERMS = 10**8


class OracleError(ValueError):
    """Instance outside the brute-force caps."""


def _check_caps(n: int, t: int) -> tuple[int, int]:
    if not 1 <= n <= MAX_STATE:
        raise OracleError(f"oracle handles 1 <= n <= {MAX_STATE}, got n={n}")
    if not 0 <= t <= MAX_TIME:
        raise OracleError(f"oracle handles 0 <= t <= {MAX_TIME}, got t={t}")
    return int(n), int(t)


def _transition_matrix(n: int, regime: MortalityRegime) -> np.ndarray:
    """Lower-triangular one-step kernel: row x holds P(x -> y)."""
    kernel = np.zeros((n + 1, n + 1), dtype=np.longdouble)
    kernel[0, 0] = 1.0
    for x in range(1, n + 1):
        c = np.longdouble(mortality(regime, x, n))
        q = np.longdouble(1.0) - c
        for y in range(0, x + 1):
            b = x - y  # number dying
            kernel[x, y] = math.comb(x, b) * c**b * q**y
    return kernel


def state_distribution_history(n: int, regime: MortalityRegime, t_max: int) -> np.ndarray:
    """Exact state laws for t = 0..t_max as a (t_max+1, n+1) array."""
    n, t_max = _check_caps(n, t_max)
    kernel = _transition_matrix(n, regime)
    mass = np.zeros(n + 1, dtype=np.longdouble)
    mass[n] = 1.0
    history = np.empty((t_max + 1, n + 1), dtype=np.float64)
    history[0] = mass.astype(np.float64)
    for t in range(1, t_max + 1):
        mass = mass @ kernel
        history[t] = mass.astype(np.float64)
    return history


def exact_extinction_curve(n: int, regime: MortalityRegime, t_max: int) -> np.ndarray:
    """P(extinct by t) for t = 0..t_max, read off the dynamic program."""
    return state_distribution_history(n, regime, t_max)[:, 0]


def exact_jump_law(k: int, c: float) -> np.ndarray:
    """Departure landing law from k, re-derived from the raw transition.

    Entry b-1 is the chance that the step leaving k removes b individuals,
    i.e. the binomial pmf over 1..k deaths renormalized by its own sum
    (independent of any closed-form denominator).
    """
    if not 1 <= k <= MAX_STATE:
        raise OracleError(f"oracle handles 1 <= k <= {MAX_STATE}, got k={k}")
    if k == 1 and c == 1.0:
        return np.array([1.0])  # a lone individual can only land at 0
    if not 0 < c < 1:
        raise OracleError(f"jump law needs c in (0,1), got {c}")
    cl = np.longdouble(c)
    q = np.longdouble(1.0) - cl
    masses = np.array(
        [math.comb(k, b) * cl**b * q ** (k - b) for b in range(1, k + 1)],
        dtype=np.longdouble,
    )
    return (masses / masses.sum()).astype(np.float64)


def exact_single_drop_path_prob(n: int, regime: MortalityRegime) -> float:
    """Chance of an all-single-drop extinction path, from the jump law.

    Chains the single-death entry of ``exact_jump_law`` over k = n..1; an
    independent code path from the closed-form product.
    """
    if not 0 <= n <= MAX_STATE:
        raise OracleError(f"oracle handles 0 <= n <= {MAX_STATE}, got n={n}")
    log_total = 0.0
    for k in range(1, n + 1):
        log_total += math.log(exact_jump_law(k, mortality(regime, k, n))[0])
    return math.exp(log_total)


def exact_passage_law(k: int, c: float, j_max: int) -> tuple[np.ndarray, float]:
    """Defective passage-time pmf over j = 1..j_max plus its geometric tail.

    The cumulative sum bracketed by the tail bound encloses the total
    finite-passage mass.
    """
    if not 1 <= k <= MAX_STATE:
        raise OracleError(f"oracle handles 1 <= k <= {MAX_STATE}, got k={k}")
    if not 0 < c < 1:
        raise OracleError(f"passage law needs c in (0,1), got {c}")
    if j_max < 1:
        raise OracleError(f"j_max must be >= 1, got {j_max}")
    q = 1.0 - c
    ratio = q**k
    pmf = np.empty(j_max, dtype=np.float64)
    pmf[0] = k * q ** (k - 1) * c
    for j in range(1, j_max):
        pmf[j] = pmf[j - 1] * ratio
    # 1 - (1-c)^k by expm1: 1.0 - ratio cancels catastrophically at small c
    tail = pmf[j_max - 1] * ratio / -math.expm1(k * math.log1p(-c))
    return pmf, float(tail)


def mgf_series_cost(k: int, c: float, s: float, tol: float = 1e-12) -> int:
    """Terms the summation oracle needs before its tail bound reaches tol."""
    if not 1 <= k <= MAX_STATE:
        raise OracleError(f"oracle handles 1 <= k <= {MAX_STATE}, got k={k}")
    if not 0 < c < 1:
        raise OracleError(f"series needs c in (0,1), got {c}")
    if tol <= 0:
        raise OracleError(f"tol must be positive, got {tol}")
    lnq = math.log1p(-c)
    log_ratio = s + k * lnq
    if not log_ratio < 0.0:
        raise OracleError(f"series diverges: e^s (1-c)^k = {math.exp(log_ratio)} >= 1")
    log_first = s + math.log(k) + (k - 1) * lnq + math.log(c)
    # smallest J with first * ratio^J / (1 - ratio) < tol
    log_tail_target = math.log(tol) + math.log(-math.expm1(log_ratio)) - log_first
    return max(1, math.ceil(log_tail_target / log_ratio))


def mgf_by_summation(k: int, c: float, s: float, tol: float = 1e-12) -> float:
    """Sum e^(s j) P(T_k = j) until the geometric tail drops below tol.

    Terms are evaluated directly as exp(log_first + (j-1) log_ratio) in
    vectorized blocks: a multiplicative recurrence would accumulate one
    ulp per term, visible over the ~10^7 terms slow series need.
    """
    n_terms = mgf_series_cost(k, c, s, tol)
    if n_terms > MAX_SERIES_TERMS:
        raise OracleError(f"series needs {n_terms} terms to reach tol={tol}; cap is {MAX_SERIES_TERMS}")
    lnq = math.log1p(-c)
    log_ratio = s + k * lnq
    log_first = s + math.log(k) + (k - 1) * lnq + math.log(c)
    block = 1 << 17
    partials = []
    for start in range(0, n_terms, block):
        j = np.arange(start, min(start + block, n_terms), dtype=np.float64)
        partials.append(float(np.exp(log_first + j * log_ratio).sum()))
    return math.fsum(partials)
