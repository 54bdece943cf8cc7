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
from typing import Sequence

import numpy as np

from .regimes import InitialPower, JointPower, MortalityRegime

# expected_extinction_time stops once its remaining tail is below this
MEAN_TAIL_TOL = 1e-10


class AnalyticsError(ValueError):
    """Argument outside a formula's domain."""


def _check_prob_open(c: float, name: str = "c") -> float:
    c = float(c)
    if not 0.0 < c < 1.0:
        raise AnalyticsError(f"{name} must lie in (0,1), got {c}")
    return c


def _check_count(k: int, name: str, minimum: int = 1) -> int:
    if k != int(k) or k < minimum:
        raise AnalyticsError(f"{name} must be an integer >= {minimum}, got {k}")
    return int(k)


def extinction_cdf(n: int, c: float, t: int) -> float:
    """P(extinct by time t from n) = (1 - (1-c)^t)^n."""
    n = _check_count(n, "n")
    c = _check_prob_open(c)
    t = _check_count(t, "t", minimum=0)
    if t == 0:
        return 0.0
    survive_log = t * math.log1p(-c)  # log (1-c)^t
    return math.exp(n * math.log1p(-math.exp(survive_log)))


def typical_extinction_time(n: int, c: float) -> float:
    """The deterministic scale d_n = -ln n / ln(1-c) of the extinction time."""
    n = _check_count(n, "n", minimum=2)
    c = _check_prob_open(c)
    return -math.log(n) / math.log1p(-c)


def expected_extinction_time(n: int, c: float) -> float:
    """Exact E[extinction time from n] by summing the survival function.

    E = sum_{t>=0} (1 - (1-(1-c)^t)^n), truncated once the bound
    n (1-c)^t / c on the remaining tail drops below MEAN_TAIL_TOL.
    """
    n = _check_count(n, "n")
    c = _check_prob_open(c)
    lnq = math.log1p(-c)
    # tail after T: sum_t n q^t = n q^T / c
    t_stop = max(1, math.ceil((math.log(MEAN_TAIL_TOL * c) - math.log(n)) / lnq))
    total = 0.0
    block = 1 << 16
    for start in range(0, t_stop, block):
        t = np.arange(start, min(start + block, t_stop), dtype=np.float64)
        with np.errstate(divide="ignore"):
            survival = -np.expm1(n * np.log1p(-np.exp(t * lnq)))
        total += float(survival.sum())
    return total


def single_drop_prob(k: int, c: float) -> float:
    """Chance the first departure from k is a drop of exactly one:
    k (1-c)^(k-1) c / (1 - (1-c)^k)."""
    k = _check_count(k, "k")
    if k == 1:
        # the formula is c/c: certain for every c in (0,1], including the
        # c=1 corner the joint-power family reaches at k=n=1
        if not 0.0 < float(c) <= 1.0:
            raise AnalyticsError(f"c must lie in (0,1], got {c}")
        return 1.0
    c = _check_prob_open(c)
    lnq = math.log1p(-c)
    log_num = math.log(k) + (k - 1) * lnq + math.log(c)
    log_den = math.log(-math.expm1(k * lnq))
    return math.exp(log_num - log_den)


def single_drop_path_prob(n: int, mortalities: Sequence[float]) -> float:
    """Chance of reaching 0 from n only through drops of one: the product
    of ``single_drop_prob(k, c_k)`` for k = 1..n (entry k-1 gives c_k).

    The k=1 factor is 1 for every c_1 in (0,1], so sequences like c_k=k^-3
    that touch 1 at k=1 are accepted.
    """
    n = _check_count(n, "n", minimum=0)
    if n == 0:
        return 1.0
    if len(mortalities) < n:
        raise AnalyticsError(f"need {n} mortalities, got {len(mortalities)}")
    log_total = 0.0
    for k in range(1, n + 1):
        c = float(mortalities[k - 1])
        if k == 1:
            if not 0.0 < c <= 1.0:
                raise AnalyticsError(f"c_1 must lie in (0,1], got {c}")
            continue  # a lone individual can only drop by one
        if c == 1.0:
            return 0.0  # everyone dies at once from k >= 2
        log_total += math.log(single_drop_prob(k, c))
    return math.exp(log_total)


def path_prob_lower_bound_constant(n: int, c: float) -> float:
    """Lower bound (1-c)^(n(n-1)/2) on the single-drop path probability."""
    n = _check_count(n, "n", minimum=0)
    c = _check_prob_open(c)
    return math.exp((n * (n - 1) / 2) * math.log1p(-c))


def path_prob_lower_bound_state(n: int, mortalities: Sequence[float]) -> float:
    """Lower bound prod_k (1-c_k)^(k-1) for state-dependent mortality.

    The k=1 factor has exponent 0 and always contributes 1, whatever c_1.
    """
    n = _check_count(n, "n", minimum=0)
    if len(mortalities) < n:
        raise AnalyticsError(f"need {n} mortalities, got {len(mortalities)}")
    log_total = 0.0
    for k in range(1, n + 1):
        c = float(mortalities[k - 1])
        if not 0.0 < c <= 1.0:
            raise AnalyticsError(f"c_{k} must lie in (0,1], got {c}")
        if k == 1:
            continue
        if c == 1.0:
            return 0.0
        log_total += (k - 1) * math.log1p(-c)
    return math.exp(log_total)


def path_prob_lower_bound_joint(n: int, alpha: float, beta: float) -> float:
    """Lower bound (1 - 1/n^(beta-alpha))^(n(n-1)/2) for the joint-power
    regime; approaches 1 when beta - alpha > 2."""
    n = _check_count(n, "n")
    if alpha <= 0 or beta < alpha:
        raise AnalyticsError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
    if n == 1:
        return 1.0
    if beta == alpha:
        return 0.0
    base = math.exp((alpha - beta) * math.log(n))  # n^(alpha-beta) in (0,1)
    return math.exp((n * (n - 1) / 2) * math.log1p(-base))


def passage_pmf(k: int, c: float, j: int) -> float:
    """Defective pmf of the passage time from k to k-1:
    P(T_k = j) = ((1-c)^k)^(j-1) k (1-c)^(k-1) c."""
    k = _check_count(k, "k")
    c = _check_prob_open(c)
    j = _check_count(j, "j")
    lnq = math.log1p(-c)
    return math.exp((j - 1) * k * lnq + math.log(k) + (k - 1) * lnq + math.log(c))


def passage_mgf_domain(k: int, c: float) -> float:
    """Supremum of the arguments where the passage MGF converges."""
    k = _check_count(k, "k")
    c = _check_prob_open(c)
    return -k * math.log1p(-c)


def passage_mgf(k: int, c: float, s: float) -> float:
    """Defective MGF E(e^(s T_k); T_k finite) = k c (1-c)^(k-1) / (e^-s - (1-c)^k).

    Defined for s < -k ln(1-c) (the geometric series converges there); at
    s = 0 it returns the total finite mass, i.e. ``single_drop_prob``.
    """
    k = _check_count(k, "k")
    c = _check_prob_open(c)
    s = float(s)
    s_max = -k * math.log1p(-c)
    if not s < s_max:
        raise AnalyticsError(f"passage MGF diverges for s >= {s_max:.6g}, got s={s}")
    lnq = math.log1p(-c)
    # e^-s - (1-c)^k = e^(k ln q) * expm1(-s - k ln q), safe near the boundary
    den = math.exp(k * lnq) * math.expm1(-s - k * lnq)
    num = math.exp(math.log(k) + math.log(c) + (k - 1) * lnq)
    return num / den


def limit_passage_rate(regime: MortalityRegime, k: int, lam: float | None = None) -> float:
    """Rate of the limiting exponential for scaled passage times from k.

    Initial-state scaling with a_n c_n -> lam gives rate k*lam; the
    joint-power family with a_n = n^beta gives rate k^(alpha+1).
    """
    k = _check_count(k, "k")
    if isinstance(regime, InitialPower):
        if lam is None or lam <= 0:
            raise AnalyticsError("initial-state scaling needs lam > 0")
        return k * float(lam)
    if isinstance(regime, JointPower):
        return float(k) ** (regime.alpha + 1.0)
    raise AnalyticsError(f"no scaling limit implemented for {type(regime).__name__}")


def implosion_expected_time(alpha: float, K: int) -> tuple[float, float]:
    """Partial sum of sum_k k^-(alpha+1) up to K, with an integral tail bound.

    The full series lies in [partial_sum, partial_sum + tail_bound] with
    tail_bound = K^-alpha / alpha; it diverges for alpha <= 0.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise AnalyticsError(f"series diverges for alpha <= 0, got {alpha}")
    K = _check_count(K, "K")
    terms = np.arange(1, K + 1, dtype=np.float64) ** (-(alpha + 1.0))
    partial = float(terms.sum())
    tail = float(K) ** (-alpha) / alpha
    return partial, tail


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
    ) -> "ReportRow":
        """Binary-event row: pass iff the closed form sits in the score interval."""
        from .stats import wilson_interval

        low, high = wilson_interval(successes, trials, level)
        estimate = successes / trials
        passed = low <= closed_form <= high
        half = (high - low) / 2.0
        return cls(label, closed_form, None, (estimate, half), passed, note or f"Wilson {level:g}")

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
