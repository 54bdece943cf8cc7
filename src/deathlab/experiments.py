"""Experiment report builders behind the CLI commands.

Each builder runs an experiment against its closed forms and brute-force
oracles and returns an :class:`AnalyticReport` (plus any sample-level
data).  Statistical rows use 99.9% score intervals and 0.1%-level KS
thresholds so that reports stay green under seed changes; the pinned
acceptance tolerances (99% / 1%) live in the acceptance test suite.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import __version__ as _pkg_version
from . import kernels
from .analytics import (
    AnalyticReport,
    ReportRow,
    expected_extinction_time,
    extinction_cdf,
    implosion_expected_time,
    limit_passage_rate,
    passage_mgf,
    passage_mgf_domain,
    passage_pmf,
    path_prob_lower_bound_constant,
    path_prob_lower_bound_joint,
    path_prob_lower_bound_state,
    single_drop_path_prob,
    single_drop_prob,
    typical_extinction_time,
)
from .limits import implosion_batch, implosion_truncation_sweep, scaled_passage_batch
from .oracle import (
    MAX_STATE,
    MAX_TIME,
    exact_extinction_curve,
    exact_jump_law,
    exact_passage_law,
    exact_single_drop_path_prob,
    mgf_by_summation,
    mgf_series_cost,
    state_distribution_history,
)
from .process import drop_distribution, extinction_time_batch, first_passage_batch, single_drop_batch
from .regimes import (
    Constant,
    InitialPower,
    JointPower,
    MortalityRegime,
    StatePower,
    describe,
    mortality,
    mortality_vector,
    to_json,
)
from .rng import make_stream
from .samplers import sample_geometric_batch, sample_max_geometric_batch
from .stats import SampleSummary, ks_critical_value, ks_statistic, ks_two_sample, ks_two_sample_critical

MC_LEVEL = 0.9999
KS_LEVEL = 0.0005

# apery's constant, reference value for the alpha=2 implosion series
ZETA_3 = 1.2020569031595943


def config_hash(config: dict) -> str:
    """Hash of the experiment parameters (execution details excluded)."""
    canon = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def report_meta(command: str, config: dict, seed: int) -> dict:
    return {
        "command": command,
        "config": config,
        "config_hash": config_hash({"command": command, **config}),
        "seed": seed,
        "versions": {"deathlab": _pkg_version, "numpy": np.__version__},
        "backend": kernels.BACKEND,
    }


def exceedance_probability(n: int, c: float, eps: float) -> float:
    """Exact P(|tau_n/d_n - 1| > eps), straight from the extinction CDF."""
    d = typical_extinction_time(n, c)
    left_cut = math.ceil((1.0 - eps) * d) - 1  # largest t strictly below (1-eps) d
    right_cut = math.floor((1.0 + eps) * d)  # largest t not above (1+eps) d
    left = extinction_cdf(n, c, left_cut) if left_cut >= 0 else 0.0
    right = 1.0 - extinction_cdf(n, c, right_cut)
    return left + right


def extinction_cdf_callable(n: int, c: float):
    lnq = math.log1p(-c)

    def cdf(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.exp(n * np.log1p(-np.exp(np.asarray(t, dtype=np.float64) * lnq)))

    return cdf


def exponential_cdf_callable(rate: float):
    def cdf(x: np.ndarray) -> np.ndarray:
        return -np.expm1(-rate * np.asarray(x, dtype=np.float64))

    return cdf


def _ks_row(label: str, distance: float, critical: float, note: str = "") -> ReportRow:
    # ideal distance is 0; pass iff the statistic stays below its threshold
    return ReportRow.compare(
        label, 0.0, monte_carlo=(distance, critical), note=note or f"KS level {KS_LEVEL:g}"
    )


def build_extinct_report(
    n: int,
    regime: MortalityRegime,
    t_grid: list[int],
    samples: int,
    seed: int,
    workers: int = 1,
    tolerance: float = 1e-12,
    ratio_n: int | None = None,
    ratio_c: float = 0.1,
    ratio_samples: int = 10**4,
    ratio_eps: float = 0.1,
) -> tuple[AnalyticReport, list[tuple]]:
    """Extinction CDF: closed form vs oracle DP vs Monte Carlo, plus the
    tau/d ratio experiment done by max-of-geometrics inversion."""
    config = {
        "n": n,
        "regime": to_json(regime),
        "t_grid": [int(t) for t in t_grid],
        "samples": samples,
        "tolerance": tolerance,
        "ratio_n": ratio_n,
        "ratio_c": ratio_c,
        "ratio_samples": ratio_samples,
        "ratio_eps": ratio_eps,
    }
    if not isinstance(regime, (Constant, InitialPower)):
        raise ValueError(
            "closed-form extinction CDF needs state-independent mortality; "
            f"got {type(regime).__name__}"
        )
    c = mortality(regime, 1, n)
    report = AnalyticReport(meta=report_meta("extinct", config, seed))
    t_max = max(t_grid)
    oracle_curve = None
    if n <= MAX_STATE and t_max <= MAX_TIME:
        oracle_curve = exact_extinction_curve(n, regime, t_max)
    times = extinction_time_batch(n, regime, make_stream(seed, 0), samples, workers=workers)
    censored = int(np.count_nonzero(times < 0))
    csv_rows = []
    tag = describe(regime)
    for t in t_grid:
        closed = extinction_cdf(n, c, t)
        dp = None if oracle_curve is None else float(oracle_curve[t])
        hits = int(np.count_nonzero((times >= 0) & (times <= t)))
        row = ReportRow.wilson(
            f"P(extinct by t={t}) [n={n}, {tag}]", closed, hits, samples, MC_LEVEL
        )
        if dp is not None:
            row.oracle = dp
            row.passed = row.passed and abs(closed - dp) <= tolerance
        report.add(row)
        csv_rows.append((t, closed, dp, hits / samples))
    if censored:
        report.add(
            ReportRow(
                f"censored runs [n={n}, {tag}]", 0.0, None, (censored / samples, 0.0), False,
                "censoring observed; raise t_max",
            )
        )
    if ratio_n is not None:
        d = typical_extinction_time(ratio_n, ratio_c)
        ratio_draws = sample_max_geometric_batch(
            make_stream(seed, 1), ratio_n, ratio_c, ratio_samples
        )
        ratios = ratio_draws / d
        summary = SampleSummary.from_samples(ratios)
        exact_mean_ratio = expected_extinction_time(ratio_n, ratio_c) / d
        report.add(
            ReportRow.compare(
                f"mean tau/d_n [n={ratio_n:g}, c={ratio_c:g}]",
                exact_mean_ratio,
                monte_carlo=(summary.mean, 4 * summary.stderr),
                note="exact mean by survival-function summation",
            )
        )
        exact_frac = exceedance_probability(ratio_n, ratio_c, ratio_eps)
        exceed = int(np.count_nonzero(np.abs(ratios - 1.0) > ratio_eps))
        report.add(
            ReportRow.wilson(
                f"P(|tau/d_n - 1| > {ratio_eps:g}) [n={ratio_n:g}, c={ratio_c:g}]",
                exact_frac,
                exceed,
                ratio_samples,
                MC_LEVEL,
                note="exact value from the CDF",
            )
        )
    return report, csv_rows


def build_path_report(
    n: int,
    regime: MortalityRegime,
    samples: int,
    seed: int,
    workers: int = 1,
    tolerance: float = 1e-12,
    sweep: list[int] | None = None,
) -> tuple[AnalyticReport, list[tuple]]:
    """Single-drop extinction: per-level probabilities, the full-path
    product, the applicable lower bound, and the joint-regime bound sweep."""
    config = {
        "n": n,
        "regime": to_json(regime),
        "samples": samples,
        "tolerance": tolerance,
        "sweep": sweep,
    }
    if sweep and not isinstance(regime, JointPower):
        raise ValueError("bound sweep applies to the joint-power regime only")
    report = AnalyticReport(meta=report_meta("path", config, seed))
    tag = describe(regime)
    mortalities = mortality_vector(regime, n)
    for idx, k in enumerate(range(1, n + 1)):
        c_k = mortalities[k - 1]
        closed = single_drop_prob(k, c_k)
        orac = float(exact_jump_law(k, c_k)[0]) if k <= MAX_STATE else None
        _, codes = first_passage_batch(
            k, regime, make_stream(seed, idx), samples, t_max=None, n=n, workers=workers
        )
        finite = int(np.count_nonzero(codes == kernels.FINITE))
        row = ReportRow.wilson(f"P(single drop from k={k}) [{tag}]", closed, finite, samples, MC_LEVEL)
        if orac is not None:
            row.oracle = orac
            row.passed = row.passed and abs(closed - orac) <= tolerance
        report.add(row)
    closed_path = single_drop_path_prob(n, mortalities)
    flags = single_drop_batch(n, regime, make_stream(seed, n + 1), samples, workers=workers)
    row = ReportRow.wilson(
        f"P(all drops single, n={n}) [{tag}]",
        closed_path,
        int(np.count_nonzero(flags)),
        samples,
        MC_LEVEL,
    )
    if n <= MAX_STATE:
        orac_path = exact_single_drop_path_prob(n, regime)
        row.oracle = orac_path
        row.passed = row.passed and abs(closed_path - orac_path) <= tolerance
    report.add(row)
    bound = _applicable_bound(n, regime, mortalities)
    if bound is not None:
        label, value = bound
        report.add(
            ReportRow(
                label, closed_path, value, None, value <= closed_path + tolerance,
                "lower bound must not exceed the exact value",
            )
        )
    sweep_rows = []
    if sweep:
        values = [path_prob_lower_bound_joint(m, regime.alpha, regime.beta) for m in sweep]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        report.add(
            ReportRow(
                f"bound sweep n={sweep[0]}..{sweep[-1]} [{tag}]",
                values[-1],
                None,
                None,
                increasing,
                "monotone increase toward 1",
            )
        )
        sweep_rows = list(zip(sweep, values))
    return report, sweep_rows


def _applicable_bound(n, regime, mortalities):
    if isinstance(regime, Constant):
        return (
            f"(1-c)^(n(n-1)/2) lower bound [n={n}]",
            path_prob_lower_bound_constant(n, regime.c),
        )
    if isinstance(regime, InitialPower):
        return (
            f"(1-c_n)^(n(n-1)/2) lower bound [n={n}]",
            path_prob_lower_bound_constant(n, mortalities[0]),
        )
    if isinstance(regime, StatePower):
        return (
            f"prod (1-c_k)^(k-1) lower bound [n={n}]",
            path_prob_lower_bound_state(n, mortalities),
        )
    if isinstance(regime, JointPower):
        return (
            f"(1-n^(a-b))^(n(n-1)/2) lower bound [n={n}]",
            path_prob_lower_bound_joint(n, regime.alpha, regime.beta),
        )
    return None


def build_passage_report(
    k: int,
    regime: MortalityRegime,
    samples: int,
    seed: int,
    n: int | None = None,
    workers: int = 1,
    tolerance: float = 1e-12,
    j_max: int = 8,
    s_fractions: tuple[float, ...] = (0.5, 0.99),
    limit_n: int | None = None,
    limit_samples: int | None = None,
    lam: float | None = None,
) -> tuple[AnalyticReport, np.ndarray | None]:
    """First-passage law from k: pmf head, total mass, MGF identities, and
    (for the scaling families) the exponential-limit KS check."""
    n_ctx = k if n is None else n
    config = {
        "k": k,
        "regime": to_json(regime),
        "n": n_ctx,
        "samples": samples,
        "tolerance": tolerance,
        "j_max": j_max,
        "s_fractions": list(s_fractions),
        "limit_n": limit_n,
        "limit_samples": limit_samples,
        "lam": lam,
    }
    report = AnalyticReport(meta=report_meta("passage", config, seed))
    c = mortality(regime, k, n_ctx)
    tag = f"k={k}, c={c:g}"
    times, codes = first_passage_batch(
        k, regime, make_stream(seed, 0), samples, t_max=None, n=n_ctx, workers=workers
    )
    finite_mask = codes == kernels.FINITE
    pmf_oracle = exact_passage_law(k, c, j_max)[0] if k <= MAX_STATE else None
    for j in range(1, j_max + 1):
        closed = passage_pmf(k, c, j)
        hits = int(np.count_nonzero(finite_mask & (times == j)))
        row = ReportRow.wilson(f"P(T=j) at j={j} [{tag}]", closed, hits, samples, MC_LEVEL)
        if pmf_oracle is not None:
            row.oracle = float(pmf_oracle[j - 1])
            row.passed = row.passed and abs(closed - row.oracle) <= tolerance
        report.add(row)
    closed_mass = single_drop_prob(k, c)
    row = ReportRow.wilson(
        f"P(T finite) [{tag}]", closed_mass, int(np.count_nonzero(finite_mask)), samples, MC_LEVEL
    )
    if k <= MAX_STATE:
        law, law_tail = exact_passage_law(k, c, 400)
        cum = float(law.sum())
        row.oracle = cum + law_tail / 2.0
        row.passed = row.passed and cum - tolerance <= closed_mass <= cum + law_tail + tolerance
        row.note = "oracle = series bracket midpoint"
    report.add(row)
    for frac in s_fractions:
        s = frac * passage_mgf_domain(k, c)
        closed = passage_mgf(k, c, s)
        tol = tolerance if frac <= 0.9 else tolerance * 1e3  # slow series near the boundary
        if k <= MAX_STATE and mgf_series_cost(k, c, s, tol / 10.0) <= 3 * 10**7:
            series = mgf_by_summation(k, c, s, tol=tol / 10.0)
            report.add(
                ReportRow.compare(
                    f"MGF at {frac:g} of domain [{tag}]", closed, oracle=series, tol=tol
                )
            )
    scaled = None
    if limit_n is not None:
        m = limit_samples or samples
        batch = scaled_passage_batch(
            k, limit_n, regime, m, make_stream(seed, 1), lam=lam, workers=workers
        )
        rate = limit_passage_rate(regime, k, lam)
        finite_count = int(round(batch.finite_fraction * m))
        dist = ks_statistic(
            SampleSummary.from_samples(batch.scaled_times), exponential_cdf_callable(rate)
        )
        crit = ks_critical_value(batch.scaled_times.size, KS_LEVEL)
        report.add(
            _ks_row(
                f"scaled passage vs Exponential({rate:g}) [k={k}, n={limit_n}]", dist, crit
            )
        )
        c_limit = mortality(regime, k, limit_n)
        report.add(
            ReportRow.wilson(
                f"P(T finite) at scale n={limit_n} [k={k}]",
                single_drop_prob(k, c_limit),
                finite_count,
                m,
                MC_LEVEL,
            )
        )
        scaled = batch.scaled_times
    return report, scaled


def build_implode_outputs(
    alpha: float,
    K: int,
    runs: int,
    seed: int,
    sweep: list[int] | None = None,
    workers: int = 1,
) -> tuple[AnalyticReport, list, np.ndarray]:
    """Implosion totals vs the certified series, plus the truncation sweep."""
    config = {"alpha": alpha, "K": K, "runs": runs, "sweep": sweep}
    report = AnalyticReport(meta=report_meta("implode", config, seed))
    totals, _ = implosion_batch(alpha, K, runs, make_stream(seed, 0), workers=workers)
    partial, tail = implosion_expected_time(alpha, K)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(runs))
    report.add(
        ReportRow.compare(
            f"mean implosion time [alpha={alpha:g}, K={K}]",
            partial,
            monte_carlo=(mean, 4 * stderr),
            note="expected value = partial sum",
        )
    )
    var_expected, _ = implosion_expected_time(2 * alpha + 1, K)
    sample_var = float(totals.var(ddof=1))
    m4 = float(np.mean((totals - mean) ** 4))
    var_se = math.sqrt(max(m4 - sample_var**2 * (runs - 3) / (runs - 1), 0.0) / runs)
    report.add(
        ReportRow.compare(
            f"variance of implosion time [alpha={alpha:g}, K={K}]",
            var_expected,
            monte_carlo=(sample_var, 4 * var_se),
            note="variance = sum of rate^-2",
        )
    )
    report.add(
        ReportRow(
            f"series bracket [alpha={alpha:g}, K={K}]",
            partial,
            partial + tail,
            None,
            tail >= 0,
            "full series lies in [closed_form, oracle]",
        )
    )
    sweep_rows = []
    if sweep:
        rows = implosion_truncation_sweep(alpha, sweep, max(runs // 10, 1000), make_stream(seed, 1), workers)
        # expected means (the partial sums) increase with K by construction;
        # observed means must track them within noise, pairwise and pointwise
        ok = all(r.partial_sum > prev.partial_sum for prev, r in zip(rows, rows[1:]))
        for prev, r in zip(rows, rows[1:]):
            se_diff = math.hypot(prev.stderr, r.stderr)
            ok = ok and abs((r.mean - prev.mean) - (r.partial_sum - prev.partial_sum)) <= 4 * se_diff
        for r in rows:
            ok = ok and abs(r.mean - r.partial_sum) <= 4 * r.stderr
        report.add(
            ReportRow(
                f"truncation sweep K={sweep[0]}..{sweep[-1]} [alpha={alpha:g}]",
                rows[-1].partial_sum,
                None,
                (rows[-1].mean, 4 * rows[-1].stderr),
                ok,
                "mean gaps track the partial-sum gaps",
            )
        )
        sweep_rows = rows
    return report, sweep_rows, totals


def build_verify_report(
    seed: int = 0,
    workers: int = 1,
    tolerance: float = 1e-12,
    samples: int = 20000,
) -> AnalyticReport:
    """The full oracle-vs-closed-form identity suite plus Monte Carlo
    corroboration of every headline law."""
    config = {"samples": samples, "tolerance": tolerance}
    report = AnalyticReport(meta=report_meta("verify", config, seed))
    tol = tolerance

    # --- identities -------------------------------------------------------
    worst = (0.0, None, None, "")
    for c in (0.05, 0.3, 0.9):
        curve_t = 50
        for n in range(1, 16):
            dp = exact_extinction_curve(n, Constant(c), curve_t)
            for t in range(curve_t + 1):
                closed = extinction_cdf(n, c, t)
                diff = abs(closed - dp[t])
                if diff > worst[0]:
                    worst = (diff, closed, dp[t], f"n={n}, c={c}, t={t}")
    report.add(
        ReportRow.compare(
            f"extinction CDF vs DP (grid worst: {worst[3]})", worst[1], oracle=worst[2], tol=tol
        )
    )

    # constant mortality thins each individual independently, so the whole
    # DP state law must equal Binomial(n, (1-c)^t)
    worst = (0.0, None, None, "")
    for c in (0.1, 0.5):
        for n in (4, 11, 20):
            history = state_distribution_history(n, Constant(c), 40)
            for t in (1, 3, 10, 40):
                p_alive = (1.0 - c) ** t
                pmf = np.array(
                    [
                        math.comb(n, x) * p_alive**x * (1 - p_alive) ** (n - x)
                        for x in range(n + 1)
                    ]
                )
                idx = int(np.argmax(np.abs(history[t] - pmf)))
                diff = abs(history[t][idx] - pmf[idx])
                if diff > worst[0]:
                    worst = (diff, float(history[t][idx]), float(pmf[idx]), f"n={n}, c={c}, t={t}")
    report.add(
        ReportRow.compare(
            f"DP state law vs thinned binomial (grid worst: {worst[3]})",
            worst[1],
            oracle=worst[2],
            tol=tol,
        )
    )

    worst_rel, at = 0.0, ""
    for c in (0.05, 0.3, 0.5, 0.95):
        for t in range(0, 51):
            closed = extinction_cdf(1, c, t)
            geom = -math.expm1(t * math.log1p(-c))
            rel = abs(closed - geom) / max(geom, 1e-300)
            if rel > worst_rel and t > 0:
                worst_rel, at = rel, f"c={c}, t={t}"
    report.add(
        ReportRow(
            f"extinction CDF at n=1 vs geometric CDF (worst rel: {at})",
            worst_rel,
            0.0,
            None,
            worst_rel <= tol,
            "relative error",
        )
    )

    grid_k = (1, 2, 3, 5, 10, 20, 30)
    grid_c = (0.05, 0.1, 0.3, 0.5, 0.9)
    worst = (0.0, None, None, "")
    for k in grid_k:
        for c in grid_c:
            closed = single_drop_prob(k, c)
            orac = float(exact_jump_law(k, c)[0])
            diff = abs(closed - orac)
            if diff > worst[0]:
                worst = (diff, closed, orac, f"k={k}, c={c}")
    report.add(
        ReportRow.compare(
            f"single-drop prob vs oracle jump law (grid worst: {worst[3]})",
            worst[1],
            oracle=worst[2],
            tol=tol,
        )
    )

    worst = (0.0, None, None, "")
    for k in grid_k:
        for c in grid_c:
            closed = single_drop_prob(k, c)
            entry = float(drop_distribution(k, c)[k - 1])
            diff = abs(closed - entry)
            if diff > worst[0]:
                worst = (diff, closed, entry, f"k={k}, c={c}")
    report.add(
        ReportRow.compare(
            f"single-drop prob vs drop distribution entry (grid worst: {worst[3]})",
            worst[1],
            oracle=worst[2],
            tol=tol,
        )
    )

    worst = (0.0, None, None, "")
    for c in (0.05, 0.1, 0.3):
        for n in range(0, 11):
            mort = [c] * n
            closed = single_drop_path_prob(n, mort)
            orac = exact_single_drop_path_prob(n, Constant(c))
            diff = abs(closed - orac)
            if diff > worst[0]:
                worst = (diff, closed, orac, f"n={n}, c={c}")
    report.add(
        ReportRow.compare(
            f"single-drop path prob vs oracle (grid worst: {worst[3]})",
            worst[1],
            oracle=worst[2],
            tol=tol,
        )
    )

    ok, tight = True, (math.inf, None, None, "")
    for c in (0.05, 0.1, 0.3, 0.5):
        for n in range(1, 13):
            exact = single_drop_path_prob(n, [c] * n)
            bound = path_prob_lower_bound_constant(n, c)
            ok = ok and bound <= exact + tol
            if exact - bound < tight[0]:
                tight = (exact - bound, exact, bound, f"n={n}, c={c}")
    state = StatePower(1.0, 3.0)
    for n in range(1, 13):
        mort = mortality_vector(state, n)
        exact = single_drop_path_prob(n, mort)
        bound = path_prob_lower_bound_state(n, mort)
        ok = ok and bound <= exact + tol
        if exact - bound < tight[0]:
            tight = (exact - bound, exact, bound, f"state n={n}")
    joint = JointPower(1.0, 4.0)
    for n in range(2, 11):
        mort = mortality_vector(joint, n)
        exact = single_drop_path_prob(n, mort)
        bound = path_prob_lower_bound_joint(n, joint.alpha, joint.beta)
        ok = ok and bound <= exact + tol
        if exact - bound < tight[0]:
            tight = (exact - bound, exact, bound, f"joint n={n}")
    report.add(
        ReportRow(
            f"lower bounds <= exact path prob (tightest: {tight[3]})",
            tight[1],
            tight[2],
            None,
            ok,
            "three bound families over their grids",
        )
    )

    sweep_vals = [path_prob_lower_bound_joint(m, 1.0, 4.0) for m in (10, 100, 1000, 10000)]
    report.add(
        ReportRow(
            "joint bound sweep n=10..10^4 increases toward 1",
            sweep_vals[-1],
            None,
            None,
            all(b > a for a, b in zip(sweep_vals, sweep_vals[1:])) and sweep_vals[-1] > 0.995,
            f"values {['%.5f' % v for v in sweep_vals]}",
        )
    )

    ok, worst = True, (0.0, None, None, "")
    for k, c in ((3, 0.3), (5, 0.1), (10, 0.5)):
        law, tail = exact_passage_law(k, c, 400)
        cum = float(law.sum())
        target = single_drop_prob(k, c)
        ok = ok and (cum - tol <= target <= cum + tail + tol)
        gap = abs(target - (cum + tail / 2))
        if gap > worst[0]:
            worst = (gap, target, cum + tail / 2, f"k={k}, c={c}")
    report.add(
        ReportRow(
            f"passage pmf series brackets total mass (worst: {worst[3]})",
            worst[1],
            worst[2],
            None,
            ok,
            "oracle = bracket midpoint",
        )
    )

    worst = (0.0, None, None, "")
    for k in (1, 2, 3, 5, 10):
        for c in (0.1, 0.3, 0.5):
            closed = passage_mgf(k, c, 0.0)
            target = single_drop_prob(k, c)
            diff = abs(closed - target)
            if diff > worst[0]:
                worst = (diff, closed, target, f"k={k}, c={c}")
    report.add(
        ReportRow.compare(
            f"MGF at s=0 vs single-drop prob (grid worst: {worst[3]})",
            worst[1],
            oracle=worst[2],
            tol=tol,
        )
    )

    for frac, tol_factor in ((0.5, 1.0), (0.99, 1e3)):
        worst = (0.0, None, None, "")
        for k in (1, 2, 3, 5, 10):
            for c in (0.1, 0.3, 0.5):
                s = frac * passage_mgf_domain(k, c)
                closed = passage_mgf(k, c, s)
                series = mgf_by_summation(k, c, s, tol=tol * tol_factor / 10.0)
                diff = abs(closed - series)
                if diff > worst[0]:
                    worst = (diff, closed, series, f"k={k}, c={c}")
        report.add(
            ReportRow.compare(
                f"MGF vs series at {frac:g} of domain (grid worst: {worst[3]})",
                worst[1],
                oracle=worst[2],
                tol=tol * tol_factor,
                note="" if tol_factor == 1.0 else "relaxed x1000 near the boundary",
            )
        )

    report.add(
        ReportRow.compare(
            "typical extinction time at n=1024, c=0.5",
            typical_extinction_time(1024, 0.5),
            oracle=10.0,
            tol=tol,
        )
    )

    for alpha, reference, K in ((1.0, math.pi**2 / 6.0, 10**6), (2.0, ZETA_3, 10**4)):
        partial, tail = implosion_expected_time(alpha, K)
        report.add(
            ReportRow(
                f"implosion series brackets zeta({alpha + 1:g})",
                partial,
                reference,
                None,
                partial <= reference <= partial + tail + tol,
                f"tail bound {tail:.2e}",
            )
        )

    # --- Monte Carlo corroboration ---------------------------------------
    ext = extinction_time_batch(50, Constant(0.2), make_stream(seed, 10), samples, workers=workers)
    dist = ks_statistic(
        SampleSummary.from_samples(ext.astype(np.float64)),
        extinction_cdf_callable(50, 0.2),
        lattice=1.0,
    )
    report.add(_ks_row("extinction times vs closed CDF [n=50, c=0.2]", dist, ks_critical_value(samples, KS_LEVEL)))

    maxg = sample_max_geometric_batch(make_stream(seed, 11), 50, 0.2, samples)
    dist = ks_two_sample(ext.astype(np.float64), maxg.astype(np.float64))
    report.add(
        _ks_row(
            "extinction vs max-of-geometrics [n=50, c=0.2]",
            dist,
            ks_two_sample_critical(samples, samples, KS_LEVEL),
        )
    )

    ratio_n, ratio_c = 10**6, 0.1
    d = typical_extinction_time(ratio_n, ratio_c)
    ratios = sample_max_geometric_batch(make_stream(seed, 12), ratio_n, ratio_c, samples) / d
    ratio_summary = SampleSummary.from_samples(ratios)
    report.add(
        ReportRow.compare(
            "mean tau/d_n [n=10^6, c=0.1]",
            expected_extinction_time(ratio_n, ratio_c) / d,
            monte_carlo=(ratio_summary.mean, 4 * ratio_summary.stderr),
            note="exact mean by survival-function summation",
        )
    )
    exact_frac = exceedance_probability(ratio_n, ratio_c, 0.1)
    report.add(
        ReportRow.wilson(
            "P(|tau/d_n - 1| > 0.1) [n=10^6, c=0.1]",
            exact_frac,
            int(np.count_nonzero(np.abs(ratios - 1.0) > 0.1)),
            samples,
            MC_LEVEL,
            note="exact value from the CDF",
        )
    )

    for i, (k, c) in enumerate(((3, 0.3), (10, 0.1))):
        _, codes = first_passage_batch(k, Constant(c), make_stream(seed, 13 + i), samples, workers=workers)
        report.add(
            ReportRow.wilson(
                f"P(single drop from k={k}) MC [c={c}]",
                single_drop_prob(k, c),
                int(np.count_nonzero(codes == kernels.FINITE)),
                samples,
                MC_LEVEL,
            )
        )

    flags = single_drop_batch(5, Constant(0.1), make_stream(seed, 15), samples, workers=workers)
    report.add(
        ReportRow.wilson(
            "P(all drops single, n=5) MC [c=0.1]",
            single_drop_path_prob(5, [0.1] * 5),
            int(np.count_nonzero(flags)),
            samples,
            MC_LEVEL,
        )
    )

    times, codes = first_passage_batch(2, Constant(0.5), make_stream(seed, 16), samples, workers=workers)
    report.add(
        ReportRow.wilson(
            "P(T=1) from k=2 MC [c=0.5]",
            passage_pmf(2, 0.5, 1),
            int(np.count_nonzero((codes == kernels.FINITE) & (times == 1))),
            samples,
            MC_LEVEL,
        )
    )

    # stepped holding times obey the geometric law the O(1) sampler assumes
    hold, _ = first_passage_batch(
        3, Constant(0.3), make_stream(seed, 17), samples, t_max=10**6, workers=workers, stepped=True
    )
    p_depart = -math.expm1(3 * math.log1p(-0.3))
    geo = sample_geometric_batch(make_stream(seed, 18), p_depart, samples)
    dist = ks_two_sample(hold.astype(np.float64), geo.astype(np.float64))
    report.add(
        _ks_row(
            "stepped holding at k=3 vs geometric draws [c=0.3]",
            dist,
            ks_two_sample_critical(samples, samples, KS_LEVEL),
        )
    )

    batch = scaled_passage_batch(3, 10**4, InitialPower(1.0, 1.0), samples, make_stream(seed, 19), lam=1.0, workers=workers)
    dist = ks_statistic(SampleSummary.from_samples(batch.scaled_times), exponential_cdf_callable(3.0))
    report.add(
        _ks_row(
            "scaled passage vs Exponential(3) [k=3, lam=1, n=10^4]",
            dist,
            ks_critical_value(batch.scaled_times.size, KS_LEVEL),
        )
    )

    batch = scaled_passage_batch(2, 10**3, JointPower(1.0, 3.0), samples, make_stream(seed, 20), workers=workers)
    dist = ks_statistic(SampleSummary.from_samples(batch.scaled_times), exponential_cdf_callable(4.0))
    report.add(
        _ks_row(
            "scaled passage vs Exponential(4) [k=2, alpha=1, beta=3, n=10^3]",
            dist,
            ks_critical_value(batch.scaled_times.size, KS_LEVEL),
        )
    )
    c_limit = mortality(JointPower(1.0, 3.0), 2, 10**3)
    report.add(
        ReportRow.wilson(
            "P(T finite) at scale n=10^3 [k=2, alpha=1, beta=3]",
            single_drop_prob(2, c_limit),
            int(round(batch.finite_fraction * samples)),
            samples,
            MC_LEVEL,
        )
    )

    totals, _ = implosion_batch(1.0, 2000, samples, make_stream(seed, 21), workers=workers)
    partial, _ = implosion_expected_time(1.0, 2000)
    stderr = float(totals.std(ddof=1) / math.sqrt(samples))
    report.add(
        ReportRow.compare(
            "mean implosion time [alpha=1, K=2000]",
            partial,
            monte_carlo=(float(totals.mean()), 4 * stderr),
        )
    )

    return report
