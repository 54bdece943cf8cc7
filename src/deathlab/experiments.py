"""Experiment report builders behind the CLI commands.

Each builder runs an experiment against its closed forms and brute-force
oracles and returns an :class:`AnalyticReport` (plus any sample-level
data).  Each kind of row has one helper, shared by ``verify`` and the
commands: ``_grid_row``, ``_ks_row``, ``_mean_row``, ``ReportRow.wilson``
(with the oracle where one exists), ``_finite_hits``,
``_scaled_passage_rows`` and ``_ratio_rows``.  Statistical rows use 99.99%
score intervals and 0.05%-level KS thresholds; a mean row passes within
4 sqrt(Var / count), Var the law's variance.  Those levels hold per row,
not per report, and near 0 and 1 a Wilson interval can miss the exact
value after one chance miss, so a report with many rows fails at some
seeds; the pinned acceptance tolerances (99% / 1%) live in the acceptance
test suite.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Callable

import numpy as np

from . import __version__ as _pkg_version
from . import kernels
from .analytics import (
    AnalyticReport,
    AnalyticsError,
    ReportRow,
    exceedance_probability,
    expected_extinction_time,
    extinction_cdf,
    extinction_time_variance,
    extinction_variance_terms,
    implosion_cumulants,
    implosion_expected_time,
    limit_passage_rate,
    passage_mgf,
    passage_mgf_domain,
    passage_pmf,
    path_prob_lower_bound_constant,
    path_prob_lower_bound_joint,
    path_prob_lower_bound_state,
    scaling_constant,
    single_drop_path_prob,
    single_drop_prob,
    typical_extinction_time,
)
from .limits import (
    check_sweep_levels,
    implosion_batch,
    implosion_truncation_sweep,
    scaled_passage_batch,
)
from .oracle import (
    MAX_SERIES_TERMS,
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
from .process import (
    check_departure,
    drop_distribution,
    extinction_time_batch,
    first_passage_batch,
    prepare_run,
    single_drop_batch,
)
from .regimes import (
    STATE_INDEPENDENT,
    Constant,
    InitialPower,
    JointPower,
    MortalityRegime,
    StatePower,
    check_count,
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

# fewest finite passages a limit check must expect: from 10 on, its KS row
# meets an empty sample with chance at most e^-10 = 4.5e-5, a tenth of the
# KS_LEVEL at which the row fails anyway
MIN_FINITE_PASSAGES = 10

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


def exponential_cdf_callable(rate: float):
    def cdf(x: np.ndarray) -> np.ndarray:
        return -np.expm1(-rate * np.asarray(x, dtype=np.float64))

    return cdf


def _ks_row(label: str, distance: float, critical: float, note: str = "") -> ReportRow:
    # ideal distance is 0; pass iff the statistic stays below its threshold
    return ReportRow.compare(
        label, 0.0, monte_carlo=(distance, critical), note=note or f"KS level {KS_LEVEL:g}"
    )


def _point(fmt: str, **axes) -> Callable[[int], str]:
    """The name of point i of a grid over the product of ``axes``, in
    loop order (the last varies fastest), formatted by ``fmt``."""
    shape = [len(axis) for axis in axes.values()]

    def where(i: int) -> str:
        at = np.unravel_index(i, shape)
        return fmt.format(**{name: axis[j] for (name, axis), j in zip(axes.items(), at)})

    return where


def _grid_row(label: str, closed, oracle, where, tol: float, note: str = "") -> ReportRow:
    """Closed form vs oracle at the first grid point where they differ most;
    ``closed`` and ``oracle`` hold one value per point, in the same order,
    and ``where(i)`` names point i."""
    closed = np.asarray(closed, dtype=np.float64).ravel()
    oracle = np.asarray(oracle, dtype=np.float64).ravel()
    i = int(np.argmax(np.abs(closed - oracle)))
    return ReportRow.compare(
        f"{label} (grid worst: {where(i)})", float(closed[i]), oracle=float(oracle[i]), tol=tol, note=note
    )


def _mean_row(label: str, expected: float, estimate: float, variance: float, count: int, note: str = "") -> ReportRow:
    """``estimate``, the mean of ``count`` draws from a law of mean
    ``expected`` and variance ``variance``, within four of the law's
    standard errors sqrt(variance / count) of ``expected``."""
    return ReportRow.compare(label, expected, monte_carlo=(estimate, 4 * math.sqrt(variance / count)), note=note)


def _finite_hits(
    k: int, regime: MortalityRegime, stream: RngStream, samples: int, n: int | None, workers: int
) -> int:
    """Fresh starts at k (in the context of n) whose first departure lands at k-1."""
    _, codes = first_passage_batch(k, regime, stream, samples, n=n, workers=workers)
    return int(np.count_nonzero(codes == kernels.FINITE))


def _scaled_passage_rows(
    report: AnalyticReport, k: int, n: int, regime: MortalityRegime, samples: int, stream: RngStream,
    rate: float, where: str, mass_label: str | None = None, lam: float | None = None, workers: int = 1,
) -> np.ndarray:
    """KS row of the scaled passage times from k at scale n against
    Exponential(rate), failed where no passage was finite, and, given
    ``mass_label``, the Wilson row of their finite mass; returns the
    scaled times.  The times lie on the lattice j / a_n, so the KS
    distance takes the lattice convention."""
    batch = scaled_passage_batch(k, n, regime, samples, stream, lam=lam, workers=workers)
    times = batch.scaled_times
    label = f"scaled passage vs Exponential({rate:g}) [{where}]"
    if times.size:
        dist = ks_statistic(
            SampleSummary.from_samples(times), exponential_cdf_callable(rate), lattice=1.0 / batch.a_n
        )
        report.add(_ks_row(label, dist, ks_critical_value(times.size, KS_LEVEL)))
    else:
        report.add(ReportRow(label, 0.0, None, None, False, "no finite passage in the sample to test"))
    if mass_label is not None:
        closed = single_drop_prob(k, mortality(regime, k, n))
        report.add(ReportRow.wilson(mass_label, closed, batch.finite_count, samples, MC_LEVEL))
    return times


def _ratio_rows(
    report: AnalyticReport, n: int, c: float, samples: int, stream: RngStream, tag: str
) -> None:
    """The tau/d_n ratio experiment by max-of-geometrics inversion: the
    mean ratio and the fraction beyond RATIO_EPS, each against its exact
    value."""
    d = typical_extinction_time(n, c)
    ratios = sample_max_geometric_batch(stream, n, c, samples) / d
    beyond = int(np.count_nonzero(np.abs(ratios - 1.0) > RATIO_EPS))
    expected, variance = expected_extinction_time(n, c) / d, extinction_time_variance(n, c) / (d * d)
    note = "exact mean and variance by survival-function summation"
    report.add(_mean_row(f"mean tau/d_n [{tag}]", expected, float(ratios.sum()) / samples, variance, samples, note))
    report.add(
        ReportRow.wilson(
            f"P(|tau/d_n - 1| > {RATIO_EPS:g}) [{tag}]",
            exceedance_probability(n, c, RATIO_EPS),
            beyond,
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
    if not isinstance(regime, STATE_INDEPENDENT):
        raise ValueError(
            "closed-form extinction CDF needs state-independent mortality; "
            f"got {type(regime).__name__}"
        )
    c = mortality(regime, 1, n)
    if ratio_n is not None:
        typical_extinction_time(ratio_n, ratio_c)  # rejects ratio_n and ratio_c before any draw
        terms = extinction_variance_terms(ratio_n, ratio_c)
        if terms > MAX_SERIES_TERMS:
            raise ValueError(
                f"the exact moments of tau sum {terms} terms at n={ratio_n}, c={ratio_c:g}; "
                f"the cap is {MAX_SERIES_TERMS}"
            )
    prepare_run(regime, n, None)  # the Monte Carlo runs' horizon and holds, before any stream
    report = AnalyticReport(meta=report_meta("extinct", config, seed))
    t_max = max(t_grid)
    oracle_curve = None
    if n <= MAX_STATE and t_max <= MAX_TIME:
        oracle_curve = exact_extinction_curve(n, regime, t_max)
    curve = extinction_cdf(n, c, np.array(t_grid))
    times = extinction_time_batch(n, regime, make_stream(seed, 0), samples, workers=workers)
    censored = int(np.count_nonzero(times < 0))
    csv_rows = []
    tag = describe(regime)
    for t, closed in zip(t_grid, curve.tolist()):
        dp = None if oracle_curve is None else float(oracle_curve[t])
        hits = int(np.count_nonzero((times >= 0) & (times <= t)))
        label = f"P(extinct by t={t}) [n={n}, {tag}]"
        report.add(ReportRow.wilson(label, closed, hits, samples, MC_LEVEL, oracle=dp, tol=tolerance))
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
    # every level's closed form and oracle, and the sweep's bounds, before
    # the first stream, so a value out of their range fails before
    # anything is drawn
    sweep = check_sweep_levels(sweep or ())
    sweep_rows = [(m, path_prob_lower_bound_joint(m, regime.alpha, regime.beta)) for m in sweep]
    # certain death (c_k = 1) at k >= 2 kills all k at once: never a single drop
    closed = [
        single_drop_prob(k, c_k) if k == 1 or c_k < 1.0 else 0.0 for k, c_k in enumerate(mortalities, 1)
    ]
    oracles = [float(exact_jump_law(k, c_k)[0]) for k, c_k in enumerate(mortalities[:MAX_STATE], 1)]
    for idx, k in enumerate(range(1, n + 1)):
        orac = oracles[idx] if k <= MAX_STATE else None
        hits = _finite_hits(k, regime, make_stream(seed, idx), samples, n, workers)
        label = f"P(single drop from k={k}) [{tag}]"
        report.add(ReportRow.wilson(label, closed[idx], hits, samples, MC_LEVEL, oracle=orac, tol=tolerance))
    closed_path = single_drop_path_prob(n, mortalities)
    flags = single_drop_batch(n, regime, make_stream(seed, n + 1), samples, workers=workers)
    orac_path = exact_single_drop_path_prob(n, regime) if n <= MAX_STATE else None
    report.add(
        ReportRow.wilson(
            f"P(all drops single, n={n}) [{tag}]", closed_path, int(np.count_nonzero(flags)), samples,
            MC_LEVEL, oracle=orac_path, tol=tolerance,
        )
    )
    bound = _applicable_bound(n, regime, mortalities)
    if bound is not None:
        label, value = bound
        report.add(
            ReportRow(
                label, closed_path, value, None, value <= closed_path + tolerance,
                "lower bound must not exceed the exact value",
            )
        )
    if sweep:
        # the bound rounds to 1.0 once n(n-1)/2 n^(alpha-beta) falls below 2^-53
        values = [value for _, value in sweep_rows]
        increasing = all(b > a or a == b == 1.0 for a, b in zip(values, values[1:]))
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
    return report, sweep_rows


def _applicable_bound(n, regime, mortalities):
    """The lower bound of the regime's family, or None: a Table has none, and
    the empty path (n = 0) has probability 1 and no bound to check."""
    if n == 0:
        return None
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
        c_limit = mortality(regime, k, limit_n)
        mass = single_drop_prob(k, c_limit)  # raises at c = 1, where no passage is finite
        check_departure(k, c_limit)
        expected = (limit_samples or samples) * mass
        if expected < MIN_FINITE_PASSAGES:
            raise ValueError(
                f"limit check expects {expected:.2g} finite passages from k={k} at n={limit_n}, "
                f"below {MIN_FINITE_PASSAGES}: raise limit_samples"
            )
    report = AnalyticReport(meta=report_meta("passage", config, seed))
    c = mortality(regime, k, n_ctx)
    tag = f"k={k}, c={c:g}"
    # the oracle and the closed forms before the stream, so a c out of
    # their range fails before anything is drawn
    pmf_oracle = exact_passage_law(k, c, j_max)[0] if k <= MAX_STATE else None
    pmf_closed = [passage_pmf(k, c, j) for j in range(1, j_max + 1)]
    check_departure(k, c)
    times, codes = first_passage_batch(k, regime, make_stream(seed, 0), samples, n=n_ctx, workers=workers)
    finite_mask = codes == kernels.FINITE
    for j, closed in enumerate(pmf_closed, 1):
        hits = int(np.count_nonzero(finite_mask & (times == j)))
        orac = None if pmf_oracle is None else float(pmf_oracle[j - 1])
        label = f"P(T=j) at j={j} [{tag}]"
        report.add(ReportRow.wilson(label, closed, hits, samples, MC_LEVEL, oracle=orac, tol=tolerance))
    closed_mass = single_drop_prob(k, c)
    # T is finite iff the first departure removes exactly one individual
    mass_oracle = float(exact_jump_law(k, c)[0]) if k <= MAX_STATE else None
    report.add(
        ReportRow.wilson(
            f"P(T finite) [{tag}]", closed_mass, int(np.count_nonzero(finite_mask)), samples, MC_LEVEL,
            note="" if mass_oracle is not None else "no oracle", oracle=mass_oracle, tol=tolerance,
        )
    )
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
        scaled = _scaled_passage_rows(
            report, k, limit_n, regime, limit_samples or samples, make_stream(seed, 1), rate,
            f"k={k}, n={limit_n}", f"P(T finite) at scale n={limit_n} [k={k}]", lam=lam, workers=workers,
        )
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
    # reject alpha, the runs and the sweep levels before any stream is made
    partial, tail = implosion_expected_time(alpha, K)
    variance, kappa4 = implosion_cumulants(alpha, K)
    runs = check_count(runs, "runs", 2, AnalyticsError)  # a sample variance needs two
    levels = check_sweep_levels(sweep or (), K)
    totals, (whole, means) = implosion_batch(alpha, K, runs, make_stream(seed, 0), workers=workers, levels=levels)
    label = f"mean implosion time [alpha={alpha:g}, K={K}]"
    report.add(_mean_row(label, partial, whole[1], variance, runs, "expected value = partial sum"))
    # the sample variance's own variance, from the law: kappa4/n + 2 var^2/(n-1)
    var_se = math.sqrt(kappa4 / runs + 2.0 * variance**2 / (runs - 1))
    report.add(
        ReportRow.compare(
            f"variance of implosion time [alpha={alpha:g}, K={K}]",
            variance,
            monte_carlo=(whole[2] / (runs - 1), 4 * var_se),
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
        rows = implosion_truncation_sweep(alpha, levels, means, runs)
        # each partial-sum gap lies in [0, prev.tail_bound] up to rounding
        # (float partial sums stall, and pairwise sums dip by an ulp); the
        # observed means must track them within noise, pointwise and in the
        # runs' paired gaps, whose closed form is known to the same rounding
        ok = all(abs(r.mean - r.partial_sum) <= 4 * r.stderr for r in rows)
        for prev, r in zip(rows, rows[1:]):
            gap = r.partial_sum - prev.partial_sum
            ok = ok and -1e-12 <= gap <= prev.tail_bound + 1e-12
            ok = ok and abs(r.gap_mean - gap) <= 4 * r.gap_stderr + 1e-12
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
    # one DP per mortality: from every start at once, on the largest start's
    # kernel, whose rows do not depend on n under constant mortality
    starts, times, mortalities = range(1, 16), np.arange(51), (0.05, 0.3, 0.9)
    closed = [extinction_cdf(n, c, times) for c in mortalities for n in starts]
    oracle = [
        state_distribution_history(starts[-1], Constant(c), times[-1], starts=starts)[:, :, 0].T
        for c in mortalities
    ]
    where = _point("n={n}, c={c}, t={t}", c=mortalities, n=starts, t=times)
    report.add(_grid_row("extinction CDF vs DP", closed, oracle, where, tol))

    # constant mortality thins each individual independently, so the whole
    # DP state law must equal Binomial(n, (1-c)^t)
    starts, times, mortalities = (4, 11, 20), (1, 3, 10, 40), (0.1, 0.5)
    laws, pmfs = [], []
    for c in mortalities:
        history = state_distribution_history(starts[-1], Constant(c), times[-1], starts=starts)
        for i, n in enumerate(starts):
            for t in times:
                p_alive = (1.0 - c) ** t
                laws.append(history[t, i, : n + 1])
                pmfs += [math.comb(n, x) * p_alive**x * (1 - p_alive) ** (n - x) for x in range(n + 1)]
    law_of = np.repeat(np.arange(len(laws)), [law.size for law in laws])  # each point's (c, n, t)
    where = _point("n={n}, c={c}, t={t}", c=mortalities, n=starts, t=times)
    report.add(
        _grid_row("DP state law vs thinned binomial", np.concatenate(laws), pmfs, lambda i: where(law_of[i]), tol)
    )

    # the n=1 CDF against the geometric CDF, by relative error
    mortalities, times = (0.05, 0.3, 0.5, 0.95), np.arange(1, 51)
    geom = np.array([-math.expm1(t * math.log1p(-c)) for c in mortalities for t in times.tolist()])
    cdf = np.concatenate([extinction_cdf(1, c, times) for c in mortalities])
    rel = np.abs(cdf - geom) / geom
    worst = int(np.argmax(rel))
    where = _point("c={c}, t={t}", c=mortalities, t=times)
    report.add(
        ReportRow(
            f"extinction CDF at n=1 vs geometric CDF (worst rel: {where(worst)})",
            float(rel[worst]),
            0.0,
            None,
            bool(rel[worst] <= tol),
            "relative error",
        )
    )

    ks, mortalities = (1, 2, 3, 5, 10, 20, 30), (0.05, 0.1, 0.3, 0.5, 0.9)
    drop_grid = [(k, c) for k in ks for c in mortalities]
    where = _point("k={k}, c={c}", k=ks, c=mortalities)
    closed = [single_drop_prob(k, c) for k, c in drop_grid]
    jumps = [exact_jump_law(k, c)[0] for k, c in drop_grid]
    report.add(_grid_row("single-drop prob vs oracle jump law", closed, jumps, where, tol))
    entries = [drop_distribution(k, c)[k - 1] for k, c in drop_grid]
    report.add(_grid_row("single-drop prob vs drop distribution entry", closed, entries, where, tol))
    mortalities, starts = (0.05, 0.1, 0.3), range(11)
    closed = [single_drop_path_prob(n, [c] * n) for c in mortalities for n in starts]
    oracle = [exact_single_drop_path_prob(n, Constant(c)) for c in mortalities for n in starts]
    where = _point("n={n}, c={c}", c=mortalities, n=starts)
    report.add(_grid_row("single-drop path prob vs oracle", closed, oracle, where, tol))

    # (exact path prob, lower bound, where) for the three bound families
    bounds = []
    for c in (0.05, 0.1, 0.3, 0.5):
        for n in range(1, 13):
            exact = single_drop_path_prob(n, [c] * n)
            bounds.append((exact, path_prob_lower_bound_constant(n, c), f"n={n}, c={c}"))
    state = StatePower(1.0, 3.0)
    for n in range(1, 13):
        mort = mortality_vector(state, n)
        bounds.append((single_drop_path_prob(n, mort), path_prob_lower_bound_state(n, mort), f"state n={n}"))
    joint = JointPower(1.0, 4.0)
    for n in range(2, 11):
        exact = single_drop_path_prob(n, mortality_vector(joint, n))
        bounds.append((exact, path_prob_lower_bound_joint(n, joint.alpha, joint.beta), f"joint n={n}"))
    exact, bound, labels = zip(*bounds)
    tightest = int(np.argmax(np.subtract(bound, exact)))
    report.add(
        ReportRow(
            f"lower bounds <= exact path prob (tightest: {labels[tightest]})",
            exact[tightest],
            bound[tightest],
            None,
            all(b <= e + tol for e, b in zip(exact, bound)),
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

    brackets = []  # (total mass, series sum, its tail bound, where)
    for k, c in ((3, 0.3), (5, 0.1), (10, 0.5)):
        law, tail = exact_passage_law(k, c, 400)
        brackets.append((single_drop_prob(k, c), float(law.sum()), tail, f"k={k}, c={c}"))
    mass, cum, tail, labels = map(np.array, zip(*brackets))
    ok = bool(np.all((cum - tol <= mass) & (mass <= cum + tail + tol)))
    worst = int(np.argmax(np.abs(mass - (cum + tail / 2))))
    report.add(
        ReportRow(
            f"passage pmf series brackets total mass (worst: {labels[worst]})",
            float(mass[worst]),
            float(cum[worst] + tail[worst] / 2),
            None,
            ok,
            "oracle = bracket midpoint",
        )
    )

    ks, mortalities = (1, 2, 3, 5, 10), (0.1, 0.3, 0.5)
    mgf_grid = [(k, c) for k in ks for c in mortalities]
    where = _point("k={k}, c={c}", k=ks, c=mortalities)
    closed = [passage_mgf(k, c, 0.0) for k, c in mgf_grid]
    masses = [single_drop_prob(k, c) for k, c in mgf_grid]
    report.add(_grid_row("MGF at s=0 vs single-drop prob", closed, masses, where, tol))
    for frac, tol_factor in MGF_FRACTIONS:
        s = [frac * passage_mgf_domain(k, c) for k, c in mgf_grid]
        closed = [passage_mgf(k, c, x) for (k, c), x in zip(mgf_grid, s)]
        series = [mgf_by_summation(k, c, x, tol=tol * tol_factor / 10.0) for (k, c), x in zip(mgf_grid, s)]
        report.add(
            _grid_row(
                f"MGF vs series at {frac:g} of domain",
                closed,
                series,
                where,
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

    # zeta(s), s = alpha + 1, from the partial sum to K = 1000 and the
    # Euler-Maclaurin bracket of its tail: sum_{k>K} k^-s lies between
    # K^(1-s)/(s-1) - K^-s/2 and that plus s K^(-s-1)/12
    K = 1000
    for alpha, reference in ((1.0, math.pi**2 / 6.0), (2.0, ZETA_3)):
        s = alpha + 1.0
        low = implosion_expected_time(alpha, K)[0] + K ** (1.0 - s) / alpha - K**-s / 2.0
        high = low + s * K ** (-s - 1.0) / 12.0
        report.add(
            ReportRow(
                f"implosion series brackets zeta({s:g})",
                reference,
                (low + high) / 2.0,
                None,
                low - tol <= reference <= high + tol,
                f"oracle = bracket midpoint, width {high - low:.2e} at K={K}",
            )
        )

    # --- Monte Carlo corroboration ---------------------------------------
    two_sample_critical = ks_two_sample_critical(samples, samples, KS_LEVEL)
    ext = extinction_time_batch(50, Constant(0.2), make_stream(seed, 10), samples, workers=workers)
    dist = ks_statistic(
        SampleSummary.from_samples(ext.astype(np.float64)),
        functools.partial(extinction_cdf, 50, 0.2),
        lattice=1.0,
    )
    report.add(_ks_row("extinction times vs closed CDF [n=50, c=0.2]", dist, ks_critical_value(samples, KS_LEVEL)))

    maxg = sample_max_geometric_batch(make_stream(seed, 11), 50, 0.2, samples)
    dist = ks_two_sample(ext.astype(np.float64), maxg.astype(np.float64))
    report.add(_ks_row("extinction vs max-of-geometrics [n=50, c=0.2]", dist, two_sample_critical))

    _ratio_rows(report, 10**6, 0.1, samples, make_stream(seed, 12), "n=10^6, c=0.1")

    for i, (k, c) in enumerate(((3, 0.3), (10, 0.1))):
        hits = _finite_hits(k, Constant(c), make_stream(seed, 13 + i), samples, None, workers)
        label = f"P(single drop from k={k}) MC [c={c}]"
        report.add(ReportRow.wilson(label, single_drop_prob(k, c), hits, samples, MC_LEVEL))

    flags = single_drop_batch(5, Constant(0.1), make_stream(seed, 15), samples, workers=workers)
    closed, hits = single_drop_path_prob(5, [0.1] * 5), int(np.count_nonzero(flags))
    report.add(ReportRow.wilson("P(all drops single, n=5) MC [c=0.1]", closed, hits, samples, MC_LEVEL))

    times, codes = first_passage_batch(2, Constant(0.5), make_stream(seed, 16), samples, workers=workers)
    closed, hits = passage_pmf(2, 0.5, 1), int(np.count_nonzero((codes == kernels.FINITE) & (times == 1)))
    report.add(ReportRow.wilson("P(T=1) from k=2 MC [c=0.5]", closed, hits, samples, MC_LEVEL))

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

    initial, joint = InitialPower(1.0, 1.0), JointPower(1.0, 3.0)
    _scaled_passage_rows(
        report, 3, 10**4, initial, samples, make_stream(seed, 19), limit_passage_rate(initial, 3, 1.0),
        "k=3, lam=1, n=10^4", lam=1.0, workers=workers,
    )
    _scaled_passage_rows(
        report, 2, 10**3, joint, samples, make_stream(seed, 20), limit_passage_rate(joint, 2),
        "k=2, alpha=1, beta=3, n=10^3", "P(T finite) at scale n=10^3 [k=2, alpha=1, beta=3]", workers=workers,
    )

    _, (whole, _) = implosion_batch(1.0, 2000, samples, make_stream(seed, 21), workers=workers)
    partial, _ = implosion_expected_time(1.0, 2000)
    variance, _ = implosion_cumulants(1.0, 2000)
    report.add(_mean_row("mean implosion time [alpha=1, K=2000]", partial, whole[1], variance, samples))

    return report
