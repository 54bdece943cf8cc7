"""Closed-form quantities of the death process, evaluated in log space.

Everything here is a direct evaluation of an exact formula: the extinction
CDF and its time scale, the single-drop probabilities and their lower
bounds, the defective first-passage pmf and moment generating function,
the limiting exponential rates of scaled passage times, and the partial
sums (with certified tails) of the implosion time series.  Naive powering
of terms like (1-c)^(n(n-1)/2) underflows at desk scale, hence the
log1p/expm1 arithmetic throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .regimes import InitialPower, JointPower, MortalityRegime, check_count, check_positive, check_probability, mortality

# expected_extinction_time stops once its remaining tail is below this
MEAN_TAIL_TOL = 1e-10
# extinction_time_variance stops once its weighted tail is below this
VARIANCE_TAIL_TOL = 1e-14

SUM_BLOCK = 1 << 16


class AnalyticsError(ValueError):
    """Argument outside a formula's domain."""


def block_sum(terms: Callable[[np.ndarray], np.ndarray], start: int, stop: int) -> float:
    """Sum of ``terms(x)`` over the float64 x = start, ..., stop-1: numpy
    sums over blocks of SUM_BLOCK, combined by ``math.fsum``, so memory does
    not grow with the count.  Up to SUM_BLOCK terms, one numpy sum."""
    sums = []
    for a in range(start, stop, SUM_BLOCK):
        # x lives until the next block's is made: freed first, the heap top
        # went back to the OS and was faulted in again each block (2x time)
        x = np.arange(a, min(a + SUM_BLOCK, stop), dtype=np.float64)
        sums.append(float(terms(x).sum()))
    return math.fsum(sums)


def extinction_cdf(n: int, c: float, t):
    """P(extinct by time t from n) = (1 - (1-c)^t)^n, at a count ``t`` or
    at each count of an array ``t``.  Each point goes through libm on its
    own, so an array's values equal the scalar's bit for bit."""
    n = check_count(n, "n", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    lnq = math.log1p(-c)
    array = isinstance(t, np.ndarray)
    times = [check_count(x, "t", 0, AnalyticsError) for x in (t.ravel().tolist() if array else [t])]
    # (1-c)^t = e^(t ln q); at t = 0 nobody is dead yet
    values = [math.exp(n * math.log1p(-math.exp(x * lnq))) if x else 0.0 for x in times]
    return np.array(values).reshape(t.shape) if array else values[0]


def exceedance_probability(n: int, c: float, eps: float) -> float:
    """Exact P(|tau_n/d_n - 1| > eps), straight from the extinction CDF."""
    d = typical_extinction_time(n, c)
    left_cut = math.ceil((1.0 - eps) * d) - 1  # largest t strictly below (1-eps) d
    right_cut = math.floor((1.0 + eps) * d)  # largest t not above (1+eps) d
    left = extinction_cdf(n, c, left_cut) if left_cut >= 0 else 0.0
    right = 1.0 - extinction_cdf(n, c, right_cut)
    return left + right


def typical_extinction_time(n: int, c: float) -> float:
    """The deterministic scale d_n = -ln n / ln(1-c) of the extinction time."""
    n = check_count(n, "n", 2, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    return -math.log(n) / math.log1p(-c)


def expected_extinction_terms(n: int, c: float) -> int:
    """The number of terms ``expected_extinction_time`` sums: about
    ln(n / (MEAN_TAIL_TOL c)) / c."""
    n = check_count(n, "n", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    # tail after T: sum_t n q^t = n q^T / c
    return max(1, math.ceil((math.log(MEAN_TAIL_TOL * c) - math.log(n)) / math.log1p(-c)))


def expected_extinction_time(n: int, c: float) -> float:
    """Exact E[extinction time from n] by summing the survival function.

    E = sum_{t>=0} (1 - (1-(1-c)^t)^n), truncated once the bound
    n (1-c)^t / c on the remaining tail drops below MEAN_TAIL_TOL.
    """
    t_stop = expected_extinction_terms(n, c)
    lnq = math.log1p(-c)
    with np.errstate(divide="ignore"):
        return block_sum(lambda t: -np.expm1(n * np.log1p(-np.exp(t * lnq))), 0, t_stop)


def extinction_variance_terms(n: int, c: float) -> int:
    """The number of terms ``extinction_time_variance`` sums: the least T
    whose weighted tail bound n q^T ((2T+1)/c + 2q/c^2), q = 1-c, lies below
    VARIANCE_TAIL_TOL."""
    n = check_count(n, "n", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    lnq = math.log1p(-c)
    room = math.log(VARIANCE_TAIL_TOL) - math.log(n)
    # each pass: the least T below the bound at the last pass's weight, which
    # grows with T, so no pass overshoots; at T = 0 the bound exceeds n/c
    t_stop, t_next = 0, 1
    while t_next > t_stop:
        t_stop = t_next
        weight = (2 * t_stop + 1) / c + 2 * (1.0 - c) / (c * c)
        t_next = math.ceil((room - math.log(weight)) / lnq)
    return t_stop


def extinction_time_variance(n: int, c: float) -> float:
    """Exact Var(extinction time from n) = E tau^2 - (E tau)^2, with
    E tau^2 = sum_{t>=0} (2t+1) P(tau > t) and E tau = sum_{t>=0} P(tau > t)
    summed over the first ``extinction_variance_terms`` t: past them both
    tails lie below VARIANCE_TAIL_TOL."""
    t_stop = extinction_variance_terms(n, c)
    lnq = math.log1p(-c)

    def survival(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return -np.expm1(n * np.log1p(-np.exp(t * lnq)))

    mean = block_sum(survival, 0, t_stop)
    return block_sum(lambda t: (2.0 * t + 1.0) * survival(t), 0, t_stop) - mean * mean


def single_drop_prob(k: int, c: float) -> float:
    """Chance the first departure from k is a drop of exactly one:
    k (1-c)^(k-1) c / (1 - (1-c)^k)."""
    k = check_count(k, "k", 1, AnalyticsError)
    # at k=1 the formula is c/c: certain for every c in (0,1], including
    # the c=1 corner the joint-power family reaches at k=n=1
    c = check_probability(c, "(0,1]" if k == 1 else "(0,1)", AnalyticsError)
    if k == 1:
        return 1.0
    lnq = math.log1p(-c)
    log_num = math.log(k) + (k - 1) * lnq + math.log(c)
    log_den = math.log(-math.expm1(k * lnq))
    return math.exp(log_num - log_den)


def _path_levels(n: int, mortalities: Sequence[float]):
    """(k, c_k) for k = 2..n, with every c_k checked to lie in (0,1] as the
    walk reaches it (entry k-1 gives c_k).  Level 1 is checked and left
    out: a lone individual can only drop by one, whatever c_1."""
    n = check_count(n, "n", 0, AnalyticsError)
    if len(mortalities) < n:
        raise AnalyticsError(f"need {n} mortalities, got {len(mortalities)}")
    for k, c in enumerate(mortalities[:n], 1):
        try:
            c = check_probability(c, "(0,1]", AnalyticsError)
        except AnalyticsError as exc:  # the level is named on failure only, not formatted per call
            raise AnalyticsError(f"at level k={k}: {exc}") from None
        if k > 1:
            yield k, c


def single_drop_path_prob(n: int, mortalities: Sequence[float]) -> float:
    """Chance of reaching 0 from n only through drops of one: the product
    of ``single_drop_prob(k, c_k)`` for k = 1..n (entry k-1 gives c_k).

    The k=1 factor is 1 for every c_1 in (0,1], so sequences like c_k=k^-3
    that touch 1 at k=1 are accepted.
    """
    log_total = 0.0
    for k, c in _path_levels(n, mortalities):
        if c == 1.0:
            return 0.0  # everyone dies at once from k >= 2
        log_total += math.log(single_drop_prob(k, c))
    return math.exp(log_total)


def _pairs(n: int) -> float:
    """n(n-1)/2 as a float: the exponent of the path-probability bounds."""
    try:
        return n * (n - 1) / 2
    except OverflowError:
        raise AnalyticsError(f"n(n-1)/2 overflows a double at n={n}") from None


def path_prob_lower_bound_constant(n: int, c: float) -> float:
    """Lower bound (1-c)^(n(n-1)/2) on the single-drop path probability."""
    n = check_count(n, "n", 0, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    return math.exp(_pairs(n) * math.log1p(-c))


def path_prob_lower_bound_state(n: int, mortalities: Sequence[float]) -> float:
    """Lower bound prod_k (1-c_k)^(k-1) for state-dependent mortality.

    The k=1 factor has exponent 0 and always contributes 1, whatever c_1.
    """
    log_total = 0.0
    for k, c in _path_levels(n, mortalities):
        if c == 1.0:
            return 0.0
        log_total += (k - 1) * math.log1p(-c)
    return math.exp(log_total)


def path_prob_lower_bound_joint(n: int, alpha: float, beta: float) -> float:
    """Lower bound (1 - 1/n^(beta-alpha))^(n(n-1)/2) for the joint-power
    regime; approaches 1 when beta - alpha > 2."""
    n = check_count(n, "n", 1, AnalyticsError)
    alpha = check_positive(alpha, AnalyticsError, "the joint bound needs a finite alpha > 0")
    beta = check_positive(beta, AnalyticsError, "the joint bound needs a finite beta > 0")
    if beta < alpha:
        raise AnalyticsError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
    if n == 1:
        return 1.0
    if beta == alpha:
        return 0.0
    base = math.exp((alpha - beta) * math.log(n))  # n^(alpha-beta) in (0,1)
    return math.exp(_pairs(n) * math.log1p(-base))


def passage_pmf(k: int, c: float, j: int) -> float:
    """Defective pmf of the passage time from k to k-1:
    P(T_k = j) = ((1-c)^k)^(j-1) k (1-c)^(k-1) c."""
    k = check_count(k, "k", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    j = check_count(j, "j", 1, AnalyticsError)
    lnq = math.log1p(-c)
    return math.exp((j - 1) * k * lnq + math.log(k) + (k - 1) * lnq + math.log(c))


def passage_mgf_domain(k: int, c: float) -> float:
    """Supremum of the arguments where the passage MGF converges."""
    k = check_count(k, "k", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    return -k * math.log1p(-c)


def passage_mgf(k: int, c: float, s: float) -> float:
    """Defective MGF E(e^(s T_k); T_k finite) = k c (1-c)^(k-1) / (e^-s - (1-c)^k).

    Defined for s < -k ln(1-c) (the geometric series converges there); at
    s = 0 it returns the total finite mass, i.e. ``single_drop_prob``.
    """
    k = check_count(k, "k", 1, AnalyticsError)
    c = check_probability(c, "(0,1)", AnalyticsError)
    s = float(s)
    s_max = -k * math.log1p(-c)
    if not s < s_max:
        raise AnalyticsError(f"passage MGF diverges for s >= {s_max:.6g}, got s={s}")
    lnq = math.log1p(-c)
    # e^-s - (1-c)^k = e^(k ln q) * expm1(-s - k ln q), safe near the boundary
    den = math.exp(k * lnq) * math.expm1(-s - k * lnq)
    num = math.exp(math.log(k) + math.log(c) + (k - 1) * lnq)
    return num / den


def _scaling_limit(regime: MortalityRegime, k: int, n: int | None, lam: float | None) -> float:
    """The one dispatch over the scaling families: the scale a_n at start
    n, or without n the rate of the limiting exponential.  Initial-state
    scaling takes a_n = lam/c_n, so a_n c_n = lam exactly, and rate k*lam;
    the joint-power family takes a_n = n^beta and rate k^(alpha+1)."""
    k = check_count(k, "k", 1, AnalyticsError)
    n = None if n is None else check_count(n, "n", 1, AnalyticsError)
    try:
        if isinstance(regime, InitialPower):
            if lam is None or not lam > 0:
                raise AnalyticsError("initial-state scaling needs lam > 0")
            form = "limiting rate k*lam" if n is None else "scaling constant lam/c"
            value = k * float(lam) if n is None else lam / mortality(regime, k, n)
        elif isinstance(regime, JointPower):
            form = "limiting rate k^(alpha+1)" if n is None else "scaling constant n^beta"
            value = float(k) ** (regime.alpha + 1.0) if n is None else float(n) ** regime.beta
        else:
            raise AnalyticsError(f"no scaling limit implemented for {type(regime).__name__}")
    except OverflowError:
        value = math.inf
    if value == math.inf:
        where = f"k={k}" if n is None else f"k={k}, n={n}"
        raise AnalyticsError(f"{form} overflows a double at {where} under {regime}")
    return value


def limit_passage_rate(regime: MortalityRegime, k: int, lam: float | None = None) -> float:
    """Rate of the limiting exponential for scaled passage times from k:
    k*lam under initial-state scaling with a_n c_n -> lam, k^(alpha+1)
    for the joint-power family with a_n = n^beta."""
    return _scaling_limit(regime, k, None, lam)


def scaling_constant(regime: MortalityRegime, k: int, n: int, lam: float | None = None) -> float:
    """The deterministic scale a_n that renders passage times from k at
    start n order one."""
    return _scaling_limit(regime, k, n, lam)


def check_alpha(alpha: float) -> float:
    """The implosion exponent as a float: a finite real number > 0 (the
    series diverges for alpha <= 0), else ``AnalyticsError``."""
    return check_positive(alpha, AnalyticsError, "implosion needs a finite alpha > 0")


def implosion_expected_time(alpha: float, K: int) -> tuple[float, float]:
    """Partial sum of sum_k k^-(alpha+1) up to K, with an integral tail bound.

    The full series lies in [partial_sum, partial_sum + tail_bound] with
    tail_bound = K^-alpha / alpha.  The partial sum is a ``block_sum``.
    """
    alpha = check_alpha(alpha)
    K = check_count(K, "K", 1, AnalyticsError)
    partial = block_sum(lambda k: k ** (-(alpha + 1.0)), 1, K + 1)
    tail = float(K) ** (-alpha) / alpha
    return partial, tail


def implosion_cumulants(alpha: float, K: int) -> tuple[float, float]:
    """The variance and the fourth cumulant of T_K, a sum of independent
    Exponential(k^(alpha+1)) stages: sum_k k^-2(alpha+1) and
    6 sum_k k^-4(alpha+1), each a ``block_sum``.  For any finite alpha > 0:
    where an exponent overflows a double it is -inf, and only k = 1
    contributes."""
    alpha = check_alpha(alpha)
    K = check_count(K, "K", 1, AnalyticsError)
    power = 2.0 * alpha + 2.0
    variance = block_sum(lambda k: k ** -power, 1, K + 1)
    kappa4 = 6.0 * block_sum(lambda k: k ** (-2.0 * power), 1, K + 1)
    return variance, kappa4


@dataclass
class ReportRow:
    """One verified quantity: closed form vs optional oracle and Monte Carlo."""

    label: str
    closed_form: float
    oracle: float | None = None
    monte_carlo: tuple[float, float] | None = None  # (estimate, half_width)
    passed: bool = True
    note: str = ""

    @classmethod
    def compare(
        cls,
        label: str,
        closed_form: float,
        oracle: float | None = None,
        monte_carlo: tuple[float, float] | None = None,
        tol: float = 1e-12,
        note: str = "",
    ) -> "ReportRow":
        ok = True
        if oracle is not None:
            ok = ok and abs(closed_form - oracle) <= tol
        if monte_carlo is not None:
            estimate, half_width = monte_carlo
            ok = ok and abs(closed_form - estimate) <= half_width
        return cls(label, closed_form, oracle, monte_carlo, ok, note)

    @classmethod
    def wilson(
        cls,
        label: str,
        closed_form: float,
        successes: int,
        trials: int,
        level: float = 0.99,
        note: str = "",
        oracle: float | None = None,
        tol: float = 1e-12,
    ) -> "ReportRow":
        """Binary-event row: pass iff the closed form sits in the score
        interval and, given an oracle, matches it to ``tol``."""
        from .stats import wilson_interval

        low, high = wilson_interval(successes, trials, level)
        passed = low <= closed_form <= high and (oracle is None or abs(closed_form - oracle) <= tol)
        mc = (successes / trials, (high - low) / 2.0)
        return cls(label, closed_form, oracle, mc, passed, note or f"Wilson {level:g}")

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "closed_form": float(self.closed_form),
            "oracle": None if self.oracle is None else float(self.oracle),
            "monte_carlo": None
            if self.monte_carlo is None
            else {"estimate": float(self.monte_carlo[0]), "half_width": float(self.monte_carlo[1])},
            "pass": bool(self.passed),
            "note": self.note,
        }


@dataclass
class AnalyticReport:
    """Paired (closed form, oracle, Monte Carlo) rows plus run provenance."""

    rows: list[ReportRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "rows": [row.to_json_dict() for row in self.rows],
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        headers = ["label", "closed form", "oracle", "monte carlo", "pass"]
        table = []
        for row in self.rows:
            mc = ""
            if row.monte_carlo is not None:
                mc = f"{row.monte_carlo[0]:.6g} +/- {row.monte_carlo[1]:.2g}"
            table.append(
                [
                    row.label,
                    f"{row.closed_form:.12g}",
                    "" if row.oracle is None else f"{row.oracle:.12g}",
                    mc,
                    "ok" if row.passed else "FAIL",
                ]
            )
        widths = [max(len(h), *(len(r[i]) for r in table)) if table else len(h) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in table]
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {status} ({sum(r.passed for r in self.rows)}/{len(self.rows)} rows)")
        return "\n".join(lines) + "\n"
