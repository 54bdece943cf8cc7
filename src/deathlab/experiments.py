"""Experiment report builders behind the CLI commands.

Each builder runs an experiment against its closed forms and brute-force
oracles and returns an :class:`AnalyticReport` (plus any sample-level
data).  Statistical rows use 99.99% score intervals and 0.05%-level KS
thresholds.  Those levels hold per row, not per report, and near 0 and 1
a Wilson interval can miss the exact value after one chance miss, so a
report with many rows fails at some seeds; the pinned acceptance
tolerances (99% / 1%) live in the acceptance test suite.
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
from .limits import implosion_batch, implosion_truncation_sweep, scaled_passage_batch, scaling_constant
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
from .rng import RngStream, make_stream
from .samplers import sample_geometric_batch, sample_max_geometric_batch
from .stats import SampleSummary, ks_critical_value, ks_statistic, ks_two_sample, ks_two_sample_critical

MC_LEVEL = 0.9999
KS_LEVEL = 0.0005

# the ratio experiment counts runs with |tau/d_n - 1| above this
RATIO_EPS = 0.1

# (fraction of the MGF domain, tolerance factor) of each MGF-vs-series row;
# the series converges slowly near the boundary, so that row is relaxed
MGF_FRACTIONS = ((0.5, 1.0), (0.99, 1e3))

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


def _grid_row(label: str, points, tol: float, note: str = "") -> ReportRow:
    """Closed form vs oracle at the first grid point where they differ most;
    ``points`` yields ``(closed, oracle, where)``."""
    worst = (0.0, None, None, "")
    for closed, oracle, where in points:
        diff = abs(closed - oracle)
        if diff > worst[0]:
            worst = (diff, closed, oracle, where)
    return ReportRow.compare(
        f"{label} (grid worst: {worst[3]})", worst[1], oracle=worst[2], tol=tol, note=note
    )


def _with_oracle(row: ReportRow, oracle: float | None, tol: float) -> ReportRow:
    # a Monte Carlo row with an oracle also needs the closed form to match it
    if oracle is not None:
        row.oracle = oracle
        row.passed = row.passed and abs(row.closed_form - oracle) <= tol
    return row


def _exponential_ks_row(label: str, scaled_times: np.ndarray, rate: float) -> ReportRow:
    dist = ks_statistic(SampleSummary.from_samples(scaled_times), exponential_cdf_callable(rate))
    return _ks_row(label, dist, ks_critical_value(scaled_times.size, KS_LEVEL))


def _ratio_rows(
    report: AnalyticReport, n: int, c: float, samples: int, stream: RngStream, tag: str
) -> None:
    """The tau/d_n ratio experiment by max-of-geometrics inversion: the
    mean ratio and the fraction beyond RATIO_EPS, each against its exact
    value."""
    d = typical_extinction_time(n, c)
    ratios = sample_max_geometric_batch(stream, n, c, samples) / d
    summary = SampleSummary.from_samples(ratios)
    report.add(
        ReportRow.compare(
            f"mean tau/d_n [{tag}]",
            expected_extinction_time(n, c) / d,
            monte_carlo=(summary.mean, 4 * summary.stderr),
            note="exact mean by survival-function summation",
        )
    )
    report.add(
        ReportRow.wilson(
            f"P(|tau/d_n - 1| > {RATIO_EPS:g}) [{tag}]",
            exceedance_probability(n, c, RATIO_EPS),
            int(np.count_nonzero(np.abs(ratios - 1.0) > RATIO_EPS)),
            samples,
            MC_LEVEL,
            note="exact value from the CDF",
        )
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
        "ratio_eps": RATIO_EPS,
    }
    if not isinstance(regime, (Constant, InitialPower)):
        raise ValueError(
            "closed-form extinction CDF needs state-independent mortality; "
            f"got {type(regime).__name__}"
        )
    c = mortality(regime, 1, n)
    if ratio_n is not None:
        typical_extinction_time(ratio_n, ratio_c)  # rejects ratio_n and ratio_c before any draw
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
        row = ReportRow.wilson(f"P(extinct by t={t}) [n={n}, {tag}]", closed, hits, samples, MC_LEVEL)
        report.add(_with_oracle(row, dp, tolerance))
        csv_rows.append((t, closed, dp, hits / samples))
    if censored:
        report.add(
            ReportRow(
                f"censored runs [n={n}, {tag}]", 0.0, None, (censored / samples, 0.0), False,
                "censoring observed; raise t_max",
            )
        )
    if ratio_n is not None:
        _ratio_rows(
            report, ratio_n, ratio_c, ratio_samples, make_stream(seed, 1),
            f"n={ratio_n:g}, c={ratio_c:g}",
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
        _, codes = first_passage_batch(k, regime, make_stream(seed, idx), samples, n=n, workers=workers)
        finite = int(np.count_nonzero(codes == kernels.FINITE))
        row = ReportRow.wilson(f"P(single drop from k={k}) [{tag}]", closed, finite, samples, MC_LEVEL)
        report.add(_with_oracle(row, orac, tolerance))
    closed_path = single_drop_path_prob(n, mortalities)
    flags = single_drop_batch(n, regime, make_stream(seed, n + 1), samples, workers=workers)
    row = ReportRow.wilson(
        f"P(all drops single, n={n}) [{tag}]",
        closed_path,
        int(np.count_nonzero(flags)),
        samples,
        MC_LEVEL,
    )
    orac_path = exact_single_drop_path_prob(n, regime) if n <= MAX_STATE else None
    report.add(_with_oracle(row, orac_path, tolerance))
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
        "s_fractions": [frac for frac, _ in MGF_FRACTIONS],
        "limit_n": limit_n,
        "limit_samples": limit_samples,
        "lam": lam,
    }
    if limit_n is not None:
        # a limit check that cannot run fails here, before the first stream
        if k > limit_n:
            raise ValueError(f"limit check needs k <= limit_n, got k={k}, limit_n={limit_n}")
        rate = limit_passage_rate(regime, k, lam)
        scaling_constant(regime, k, limit_n, lam)  # raises where no a_n exists
    report = AnalyticReport(meta=report_meta("passage", config, seed))
    c = mortality(regime, k, n_ctx)
    tag = f"k={k}, c={c:g}"
    times, codes = first_passage_batch(k, regime, make_stream(seed, 0), samples, n=n_ctx, workers=workers)
    finite_mask = codes == kernels.FINITE
    pmf_oracle = exact_passage_law(k, c, j_max)[0] if k <= MAX_STATE else None
    for j in range(1, j_max + 1):
        closed = passage_pmf(k, c, j)
        hits = int(np.count_nonzero(finite_mask & (times == j)))
        orac = None if pmf_oracle is None else float(pmf_oracle[j - 1])
        row = ReportRow.wilson(f"P(T=j) at j={j} [{tag}]", closed, hits, samples, MC_LEVEL)
        report.add(_with_oracle(row, orac, tolerance))
    closed_mass = single_drop_prob(k, c)
    # T is finite iff the first departure removes exactly one individual
    mass_oracle = float(exact_jump_law(k, c)[0]) if k <= MAX_STATE else None
    row = ReportRow.wilson(
        f"P(T finite) [{tag}]",
        closed_mass,
        int(np.count_nonzero(finite_mask)),
        samples,
        MC_LEVEL,
        note="" if mass_oracle is not None else "no oracle",
    )
    report.add(_with_oracle(row, mass_oracle, tolerance))
    for frac, tol_factor in MGF_FRACTIONS:
        s = frac * passage_mgf_domain(k, c)
        closed = passage_mgf(k, c, s)
        tol = tolerance * tol_factor
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
        finite_count = int(round(batch.finite_fraction * m))
        label = f"scaled passage vs Exponential({rate:g}) [k={k}, n={limit_n}]"
        report.add(_exponential_ks_row(label, batch.scaled_times, rate))
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
    partial, tail = implosion_expected_time(alpha, K)  # rejects alpha before any stream is made
    totals = implosion_batch(alpha, K, runs, make_stream(seed, 0), workers=workers)
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
    def extinction_points():
        for c in (0.05, 0.3, 0.9):
            for n in range(1, 16):
                dp = exact_extinction_curve(n, Constant(c), 50)
                for t in range(51):
                    yield extinction_cdf(n, c, t), dp[t], f"n={n}, c={c}, t={t}"

    report.add(_grid_row("extinction CDF vs DP", extinction_points(), tol))

    def thinned_binomial_points():
        # constant mortality thins each individual independently, so the
        # whole DP state law must equal Binomial(n, (1-c)^t)
        for c in (0.1, 0.5):
            for n in (4, 11, 20):
                history = state_distribution_history(n, Constant(c), 40)
                for t in (1, 3, 10, 40):
                    p_alive = (1.0 - c) ** t
                    for x in range(n + 1):
                        pmf = math.comb(n, x) * p_alive**x * (1 - p_alive) ** (n - x)
                        yield float(history[t][x]), pmf, f"n={n}, c={c}, t={t}"

    report.add(_grid_row("DP state law vs thinned binomial", thinned_binomial_points(), tol))

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

    drop_grid = [(k, c) for k in (1, 2, 3, 5, 10, 20, 30) for c in (0.05, 0.1, 0.3, 0.5, 0.9)]
    jump_points = (
        (single_drop_prob(k, c), float(exact_jump_law(k, c)[0]), f"k={k}, c={c}")
        for k, c in drop_grid
    )
    report.add(_grid_row("single-drop prob vs oracle jump law", jump_points, tol))
    entry_points = (
        (single_drop_prob(k, c), float(drop_distribution(k, c)[k - 1]), f"k={k}, c={c}")
        for k, c in drop_grid
    )
    report.add(_grid_row("single-drop prob vs drop distribution entry", entry_points, tol))
    path_points = (
        (single_drop_path_prob(n, [c] * n), exact_single_drop_path_prob(n, Constant(c)), f"n={n}, c={c}")
        for c in (0.05, 0.1, 0.3)
        for n in range(0, 11)
    )
    report.add(_grid_row("single-drop path prob vs oracle", path_points, tol))

    def bound_points():
        # (exact path prob, lower bound, where) for the three bound families
        for c in (0.05, 0.1, 0.3, 0.5):
            for n in range(1, 13):
                exact = single_drop_path_prob(n, [c] * n)
                yield exact, path_prob_lower_bound_constant(n, c), f"n={n}, c={c}"
        state = StatePower(1.0, 3.0)
        for n in range(1, 13):
            mort = mortality_vector(state, n)
            yield single_drop_path_prob(n, mort), path_prob_lower_bound_state(n, mort), f"state n={n}"
        joint = JointPower(1.0, 4.0)
        for n in range(2, 11):
            exact = single_drop_path_prob(n, mortality_vector(joint, n))
            yield exact, path_prob_lower_bound_joint(n, joint.alpha, joint.beta), f"joint n={n}"

    ok, tight = True, (math.inf, None, None, "")
    for exact, bound, where in bound_points():
        ok = ok and bound <= exact + tol
        if exact - bound < tight[0]:
            tight = (exact - bound, exact, bound, where)
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

    mgf_grid = [(k, c) for k in (1, 2, 3, 5, 10) for c in (0.1, 0.3, 0.5)]
    mass_points = (
        (passage_mgf(k, c, 0.0), single_drop_prob(k, c), f"k={k}, c={c}") for k, c in mgf_grid
    )
    report.add(_grid_row("MGF at s=0 vs single-drop prob", mass_points, tol))

    def mgf_series_points(frac, series_tol):
        for k, c in mgf_grid:
            s = frac * passage_mgf_domain(k, c)
            yield passage_mgf(k, c, s), mgf_by_summation(k, c, s, tol=series_tol), f"k={k}, c={c}"

    for frac, tol_factor in MGF_FRACTIONS:
        report.add(
            _grid_row(
                f"MGF vs series at {frac:g} of domain",
                mgf_series_points(frac, tol * tol_factor / 10.0),
                tol * tol_factor,
                note="" if tol_factor == 1.0 else f"relaxed x{tol_factor:g} near the boundary",
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
    def wilson_row(label: str, closed: float, hits: int) -> None:
        report.add(ReportRow.wilson(label, closed, hits, samples, MC_LEVEL))

    two_sample_critical = ks_two_sample_critical(samples, samples, KS_LEVEL)
    ext = extinction_time_batch(50, Constant(0.2), make_stream(seed, 10), samples, workers=workers)
    dist = ks_statistic(
        SampleSummary.from_samples(ext.astype(np.float64)),
        extinction_cdf_callable(50, 0.2),
        lattice=1.0,
    )
    report.add(_ks_row("extinction times vs closed CDF [n=50, c=0.2]", dist, ks_critical_value(samples, KS_LEVEL)))

    maxg = sample_max_geometric_batch(make_stream(seed, 11), 50, 0.2, samples)
    dist = ks_two_sample(ext.astype(np.float64), maxg.astype(np.float64))
    report.add(_ks_row("extinction vs max-of-geometrics [n=50, c=0.2]", dist, two_sample_critical))

    _ratio_rows(report, 10**6, 0.1, samples, make_stream(seed, 12), "n=10^6, c=0.1")

    for i, (k, c) in enumerate(((3, 0.3), (10, 0.1))):
        _, codes = first_passage_batch(k, Constant(c), make_stream(seed, 13 + i), samples, workers=workers)
        wilson_row(
            f"P(single drop from k={k}) MC [c={c}]",
            single_drop_prob(k, c),
            int(np.count_nonzero(codes == kernels.FINITE)),
        )

    flags = single_drop_batch(5, Constant(0.1), make_stream(seed, 15), samples, workers=workers)
    wilson_row(
        "P(all drops single, n=5) MC [c=0.1]",
        single_drop_path_prob(5, [0.1] * 5),
        int(np.count_nonzero(flags)),
    )

    times, codes = first_passage_batch(2, Constant(0.5), make_stream(seed, 16), samples, workers=workers)
    wilson_row(
        "P(T=1) from k=2 MC [c=0.5]",
        passage_pmf(2, 0.5, 1),
        int(np.count_nonzero((codes == kernels.FINITE) & (times == 1))),
    )

    # stepped holding times obey the geometric law the O(1) sampler assumes
    hold, _ = first_passage_batch(
        3, Constant(0.3), make_stream(seed, 17), samples, workers=workers, stepped=True
    )
    p_depart = -math.expm1(3 * math.log1p(-0.3))
    geo = sample_geometric_batch(make_stream(seed, 18), p_depart, samples)
    dist = ks_two_sample(hold.astype(np.float64), geo.astype(np.float64))
    report.add(
        _ks_row("stepped holding at k=3 vs geometric draws [c=0.3]", dist, two_sample_critical)
    )

    batch = scaled_passage_batch(3, 10**4, InitialPower(1.0, 1.0), samples, make_stream(seed, 19), lam=1.0, workers=workers)
    label = "scaled passage vs Exponential(3) [k=3, lam=1, n=10^4]"
    report.add(_exponential_ks_row(label, batch.scaled_times, 3.0))

    batch = scaled_passage_batch(2, 10**3, JointPower(1.0, 3.0), samples, make_stream(seed, 20), workers=workers)
    label = "scaled passage vs Exponential(4) [k=2, alpha=1, beta=3, n=10^3]"
    report.add(_exponential_ks_row(label, batch.scaled_times, 4.0))
    wilson_row(
        "P(T finite) at scale n=10^3 [k=2, alpha=1, beta=3]",
        single_drop_prob(2, mortality(JointPower(1.0, 3.0), 2, 10**3)),
        int(round(batch.finite_fraction * samples)),
    )

    totals = implosion_batch(1.0, 2000, samples, make_stream(seed, 21), workers=workers)
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
