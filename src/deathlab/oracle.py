"""Brute-force ground truth on small instances.

Everything here re-derives its answer from the raw binomial transition
law, never from the closed forms in :mod:`deathlab.analytics`, so that
agreement between the two is evidence rather than tautology.  The one
thing shared with that module is ``block_sum``, which only adds up the
terms it is given: arithmetic, not a closed form.  Instances are capped at
desk scale (n <= 30, t <= 200); the dynamic program runs in extended
precision to keep accumulation error far below the 1e-12 comparison
tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .analytics import block_sum
from .regimes import MortalityRegime, check_count, check_probability, mortality

MAX_STATE = 30
MAX_TIME = 200
# mgf_by_summation refuses series longer than this
MAX_SERIES_TERMS = 10**8


class OracleError(ValueError):
    """Instance outside the brute-force caps."""


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


def state_distribution_history(
    n: int, regime: MortalityRegime, t_max: int, starts: Sequence[int] | None = None
) -> np.ndarray:
    """Exact state laws for t = 0..t_max from D_0 = n, as a (t_max+1, n+1)
    array.

    Given ``starts``, the laws from each start on the same kernel (mortality
    ``mortality(regime, k, n)`` at state k), as a (t_max+1, len(starts), n+1)
    array from one dynamic program on a mass matrix.  numpy's longdouble
    matmul adds each entry in the same order for a matrix as for a vector,
    and the zero terms above a start come last, so where mortality does not
    depend on n (``Constant``, ``StatePower``) the row of start s equals the
    history from s alone bit for bit, padded with zeros.
    """
    n = check_count(n, "n", 1, OracleError, MAX_STATE)
    t_max = check_count(t_max, "t_max", 0, OracleError, MAX_TIME)
    rows = [n] if starts is None else [check_count(s, "start", 0, OracleError, n) for s in starts]
    kernel = _transition_matrix(n, regime)
    mass = np.zeros((len(rows), n + 1), dtype=np.longdouble)
    mass[np.arange(len(rows)), rows] = 1.0
    history = np.empty((t_max + 1, len(rows), n + 1), dtype=np.float64)
    history[0] = mass
    for t in range(1, t_max + 1):
        mass = mass @ kernel
        history[t] = mass
    return history[:, 0] if starts is None else history


def exact_extinction_curve(n: int, regime: MortalityRegime, t_max: int) -> np.ndarray:
    """P(extinct by t) for t = 0..t_max, read off the dynamic program."""
    return state_distribution_history(n, regime, t_max)[:, 0]


def exact_jump_law(k: int, c: float) -> np.ndarray:
    """Departure landing law from k, re-derived from the raw transition.

    Entry b-1 is the chance that the step leaving k removes b individuals,
    i.e. the binomial pmf over 1..k deaths renormalized by its own sum
    (independent of any closed-form denominator).  At c = 1 all k die.
    """
    k = check_count(k, "k", 1, OracleError, MAX_STATE)
    c = check_probability(c, "(0,1]", OracleError, "jump law needs c in")
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
    n = check_count(n, "n", 0, OracleError, MAX_STATE)
    log_total = 0.0
    for k in range(1, n + 1):
        single = exact_jump_law(k, mortality(regime, k, n))[0]
        if single == 0.0:
            return 0.0  # certain death at k >= 2
        log_total += math.log(single)
    return math.exp(log_total)


def exact_passage_law(k: int, c: float, j_max: int) -> tuple[np.ndarray, float]:
    """Defective passage-time pmf over j = 1..j_max plus its geometric tail.

    The cumulative sum bracketed by the tail bound encloses the total
    finite-passage mass.
    """
    k = check_count(k, "k", 1, OracleError, MAX_STATE)
    c = check_probability(c, "(0,1)", OracleError, "passage law needs c in")
    j_max = check_count(j_max, "j_max", 1, OracleError)
    q = 1.0 - c
    ratio = q**k
    pmf = np.empty(j_max, dtype=np.float64)
    pmf[0] = k * q ** (k - 1) * c
    for j in range(1, j_max):
        pmf[j] = pmf[j - 1] * ratio
    # 1 - (1-c)^k by expm1: 1.0 - ratio cancels catastrophically at small c
    tail = pmf[j_max - 1] * ratio / -math.expm1(k * math.log1p(-c))
    return pmf, float(tail)


def _mgf_series(k: int, c: float, s: float, tol: float) -> tuple[int, float, float]:
    """(terms, log of the first term, log of the ratio) of the MGF series:
    the first ``terms`` of first * ratio^(j-1) leave a tail below tol."""
    k = check_count(k, "k", 1, OracleError, MAX_STATE)
    c = check_probability(c, "(0,1)", OracleError, "series needs c in")
    if tol <= 0:
        raise OracleError(f"tol must be positive, got {tol}")
    lnq = math.log1p(-c)
    log_ratio = s + k * lnq
    if not log_ratio < 0.0:
        raise OracleError(f"series diverges: e^s (1-c)^k = {math.exp(log_ratio)} >= 1")
    log_first = s + math.log(k) + (k - 1) * lnq + math.log(c)
    # smallest J with first * ratio^J / (1 - ratio) < tol
    log_tail_target = math.log(tol) + math.log(-math.expm1(log_ratio)) - log_first
    return max(1, math.ceil(log_tail_target / log_ratio)), log_first, log_ratio


def mgf_series_cost(k: int, c: float, s: float, tol: float = 1e-12) -> int:
    """Terms the summation oracle needs before its tail bound reaches tol."""
    return _mgf_series(k, c, s, tol)[0]


def mgf_by_summation(k: int, c: float, s: float, tol: float = 1e-12) -> float:
    """Sum e^(s j) P(T_k = j) until the geometric tail drops below tol.

    Terms are evaluated directly as exp(log_first + (j-1) log_ratio) and
    added by ``block_sum``: a multiplicative recurrence would accumulate
    one ulp per term, visible over the ~10^7 terms slow series need.
    """
    n_terms, log_first, log_ratio = _mgf_series(k, c, s, tol)
    if n_terms > MAX_SERIES_TERMS:
        raise OracleError(f"series needs {n_terms} terms to reach tol={tol}; cap is {MAX_SERIES_TERMS}")
    return block_sum(lambda j: np.exp(log_first + j * log_ratio), 0, n_terms)
