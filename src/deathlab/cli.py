"""Command-line front end: run experiments from flags or JSON configs and
emit CSV/JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Every domain error of the package subclasses ``ValueError`` and exits 2.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import kernels
from .analytics import AnalyticReport, AnalyticsError
from .experiments import (
    build_extinct_report,
    build_implode_outputs,
    build_passage_report,
    build_path_report,
    build_verify_report,
    report_meta,
)
from .limits import check_sweep_levels
from .oracle import MAX_STATE, MAX_TIME, state_distribution_history
from .process import TrajectoryBatch, _check_n, simulate_trajectory
from .regimes import MortalityRegime, RegimeError, from_dict, from_json, parse_inline, to_json
from .rng import make_stream


# the parameters that take a real number, each a finite one
_FLOATS = ("tolerance", "ratio_c", "lam", "alpha")


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the largest float
        return False


def _params(config_path: str | None, defaults: dict, minimums: dict, **flags) -> dict:
    """The command's parameters: its defaults, overridden by the JSON config
    file (whose fields must be keys of ``defaults``), then by the flags the
    user gave.  Each key of ``minimums`` is an integer parameter and its
    lowest allowed value; a value outside that range is a usage error here,
    before any stream is made, whether it came from a flag or the file.
    ``None`` stays allowed where it is the default (auto or disabled).  A
    parameter of ``_FLOATS`` must be a finite number, and ``tolerance``
    one >= 0."""
    params = dict(defaults)
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise click.UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise click.UsageError("config must be a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise click.UsageError(f"unknown config field(s): {', '.join(unknown)}")
        params.update(data)
    params.update({key: value for key, value in flags.items() if value is not None})
    for key, low in minimums.items():
        value = params[key]
        if value is None and defaults[key] is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            flag = "--" + key.replace("_", "-")
            raise click.UsageError(f"{flag} must be an integer >= {low}, got {value!r}")
    for key in _FLOATS:
        value = params.get(key)
        if key not in defaults or (value is None and defaults[key] is None):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
            raise click.UsageError(f"--{key.replace('_', '-')} must be a finite number, got {value!r}")
    if "tolerance" in defaults and not params["tolerance"] >= 0:
        raise click.UsageError(f"--tolerance must be >= 0, got {params['tolerance']!r}")
    return params


def _resolve_regime(value) -> MortalityRegime:
    try:
        if isinstance(value, dict):
            return from_dict(value)
        if isinstance(value, str):
            text = value.strip()
            if text.startswith("{"):
                return from_json(text)
            return parse_inline(text)
    except RegimeError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"regime must be an inline spec or JSON object, got {value!r}")


def _parse_int_list(value, flag: str, minimum: int) -> list[int]:
    """A comma-separated flag, or a JSON list from the config file, of
    integers >= ``minimum``; anything else is a usage error naming ``flag``."""
    if isinstance(value, list):
        # JSON lists hold integers only: no bools, floats or strings
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise click.UsageError(f"{flag} must be a list of integers, got {value!r}")
        out = value
    else:
        try:
            out = [int(v) for v in str(value).split(",") if v.strip()]
        except ValueError:
            raise click.UsageError(f"{flag} must be a comma-separated list of integers, got {value!r}")
    if not out:
        raise click.UsageError(f"{flag} must not be empty")
    if min(out) < minimum:
        raise click.UsageError(f"{flag} entries must be >= {minimum}, got {value!r}")
    return out


def _parse_t_grid(value) -> list[int]:
    text = str(value)
    if isinstance(value, list) or ":" not in text:
        return _parse_int_list(value, "--t-grid", minimum=0)
    lo, _, hi = text.partition(":")
    try:
        grid = list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise click.UsageError(f"--t-grid must look like 0:60, got {value!r}")
    if not grid:
        raise click.UsageError(f"--t-grid {value} is empty: its end lies below its start")
    if grid[0] < 0:
        raise click.UsageError(f"--t-grid entries must be >= 0, got {value!r}")
    return grid


# the default --sweep of implode: the powers of ten up to --k-max
_POWERS_OF_TEN = object()


def _out_dir(out: str | None) -> Path | None:
    # called once the report or batch is built, so a rejected command
    # leaves no directory behind
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# trajectories.csv is joined in pieces of whole runs, about this many rows
# each unless one run is longer
_PIECE_ROWS = 1 << 15


def _write_trajectories(path: Path, batch: TrajectoryBatch) -> None:
    """trajectories.csv, byte for byte what ``_write_csv`` writes for the
    rows ``(run_id, t, state)`` of each run in turn, one per time step,
    with run ids 0, 1, ..., without a Python step per row.  A piece of
    whole runs is one table of strings, each formatted and followed by its
    delimiter (``"<run_id>,"``, ``"<t>,"``, and ``"<state>\\r\\n"`` for
    each distinct state), indexed by one int64 array of cells and joined."""
    ends = np.cumsum(batch.lengths)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("run_id,t,state\r\n")
        stop = 0
        while stop < ends.size:
            start = stop
            first = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, first + _PIECE_ROWS, side="right")))
            lengths = batch.lengths[start:stop]
            runs, steps, rows = stop - start, int(lengths.max()), int(ends[stop - 1]) - first
            values, at = np.unique(batch.states[first : first + rows], return_inverse=True)
            table = np.array(
                [f"{i}," for i in range(start, stop)]
                + [f"{t}," for t in range(steps)]
                + [f"{s}\r\n" for s in values.tolist()],
                dtype=object,
            )
            cells = np.empty((rows, 3), dtype=np.int64)
            cells[:, 0] = np.repeat(np.arange(runs), lengths)
            cells[:, 1] = np.arange(rows) - np.repeat(np.cumsum(lengths) - lengths - runs, lengths)
            cells[:, 2] = at + (runs + steps)
            fh.write("".join(table[cells.ravel()].tolist()))


def _emit_report(report: AnalyticReport, out: Path | None, name: str) -> None:
    click.echo(report.render_text())
    if out is not None:
        (out / name).write_text(report.to_json(), encoding="utf-8")
        click.echo(f"wrote {out / name}")


def _finish(report: AnalyticReport) -> None:
    if not report.passed:
        sys.exit(1)


@click.group()
def main() -> None:
    """Simulation and exact analytics for the binomial-thinning pure death
    process."""


@main.command()
@click.option("--n", type=int, default=None, help="Initial population (>= 1).")
@click.option("--regime", "regime_spec", default=None, help="Inline regime, e.g. constant:0.5.")
@click.option("--samples", type=int, default=None, help="Number of trajectories.")
@click.option("--t-max", type=int, default=None, help="Censoring horizon (default: auto).")
@click.option("--seed", type=int, default=None, help="Stream seed (default 0).")
@click.option("--out", default=None, help="Output directory.")
@click.option("--config", "config_path", default=None, help="JSON config file.")
def simulate(n, regime_spec, samples, t_max, seed, out, config_path):
    """Simulate trajectories; write trajectories.csv and summary.json."""
    params = _params(
        config_path,
        {"n": 5, "samples": 1, "t_max": None, "seed": 0, "out": "deathlab-out", "regime": "constant:0.5"},
        {"samples": 1, "t_max": 1, "seed": 0},  # n: the process layer names it a population
        n=n, regime=regime_spec, samples=samples, t_max=t_max, seed=seed, out=out,
    )
    regime = _resolve_regime(params["regime"])
    try:
        n = _check_n(params["n"])  # the process layer's check, before any stream is made
        root = make_stream(params["seed"], 0)
        batch = simulate_trajectory(n, regime, root, params["t_max"], runs=params["samples"])
        runs = [
            {
                "run_id": run_id,
                "extinction_time": None if time < 0 else time,
                "censored": time < 0,
                "steps_recorded": length - 1,
            }
            for run_id, (time, length) in enumerate(
                zip(batch.extinction_times.tolist(), batch.lengths.tolist())
            )
        ]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    summary = {
        "meta": report_meta(
            "simulate",
            {
                "n": n,
                "regime": to_json(regime),
                "samples": params["samples"],
                "t_max": params["t_max"],
            },
            params["seed"],
        ),
        "runs": runs,
    }
    out_path = _out_dir(params["out"])
    _write_trajectories(out_path / "trajectories.csv", batch)
    (out_path / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    click.echo(f"wrote {out_path / 'trajectories.csv'} and {out_path / 'summary.json'}")


@main.command()
@click.option("--n", type=int, default=None, help="Initial population (default 20).")
@click.option("--regime", "regime_spec", default=None, help="Constant or initial-power regime.")
@click.option("--t-grid", default=None, help="Time grid, e.g. 0:60 or 0,5,10.")
@click.option("--samples", type=int, default=None, help="Monte Carlo runs (default 100000).")
@click.option("--ratio-n", type=int, default=None, help="Scale for the tau/d_n experiment (0 disables).")
@click.option("--ratio-c", type=float, default=None, help="Mortality for the ratio experiment.")
@click.option("--ratio-samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--out", default=None, help="Output directory.")
@click.option("--config", "config_path", default=None, help="JSON config file.")
def extinct(n, regime_spec, t_grid, samples, ratio_n, ratio_c, ratio_samples, seed, workers, tolerance, out, config_path):
    """Extinction CDF: closed form vs oracle vs Monte Carlo, plus the
    tau/d_n ratio experiment."""
    params = _params(
        config_path,
        {"n": 20, "regime": "constant:0.3", "t_grid": "0:60", "samples": 10**5,
         "ratio_n": 10**6, "ratio_c": 0.1, "ratio_samples": 10**4, "seed": 0,
         "workers": 1, "tolerance": 1e-12, "out": None},
        {"n": 1, "samples": 1, "ratio_n": 0, "ratio_samples": 2, "seed": 0, "workers": 1},
        n=n, regime=regime_spec, t_grid=t_grid, samples=samples, ratio_n=ratio_n,
        ratio_c=ratio_c, ratio_samples=ratio_samples, seed=seed, workers=workers,
        tolerance=tolerance, out=out,
    )
    if params["ratio_n"]:  # 0 turns the ratio experiment off
        if params["ratio_n"] < 2:
            raise click.UsageError(f"--ratio-n must be 0 or an integer >= 2, got {params['ratio_n']!r}")
        if not 0 < params["ratio_c"] < 1:
            raise click.UsageError(f"--ratio-c must lie in (0,1), got {params['ratio_c']!r}")
    regime = _resolve_regime(params["regime"])
    grid = _parse_t_grid(params["t_grid"])
    try:
        report, csv_rows = build_extinct_report(
            params["n"], regime, grid, params["samples"], params["seed"],
            workers=params["workers"], tolerance=params["tolerance"],
            ratio_n=params["ratio_n"] or None, ratio_c=params["ratio_c"],
            ratio_samples=params["ratio_samples"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_path = _out_dir(params["out"])
    if out_path is not None:
        _write_csv(
            out_path / "extinct_cdf.csv",
            ["t", "closed_form", "oracle", "monte_carlo"],
            [(t, cf, "" if dp is None else dp, mc) for t, cf, dp, mc in csv_rows],
        )
        if params["n"] <= MAX_STATE and max(grid) <= MAX_TIME:
            history = state_distribution_history(params["n"], regime, max(grid))
            _write_csv(
                out_path / "state_distribution.csv",
                ["t", "state", "mass"],
                [
                    (t, x, float(history[t, x]))
                    for t in range(history.shape[0])
                    for x in range(history.shape[1])
                ],
            )
    _emit_report(report, out_path, "extinct_report.json")
    _finish(report)


@main.command()
@click.option("--n", type=int, default=None, help="Initial population (default 5).")
@click.option("--regime", "regime_spec", default=None, help="Any regime (default constant:0.1).")
@click.option("--samples", type=int, default=None, help="Monte Carlo runs (default 100000).")
@click.option("--sweep", default=None, help="Joint-regime bound sweep, e.g. 10,100,1000.")
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def path(n, regime_spec, samples, sweep, seed, workers, tolerance, out, config_path):
    """Single-drop extinction: per-level and whole-path probabilities with
    their lower bounds."""
    params = _params(
        config_path,
        {"n": 5, "regime": "constant:0.1", "samples": 10**5, "sweep": None,
         "seed": 0, "workers": 1, "tolerance": 1e-12, "out": None},
        {"n": 0, "samples": 1, "seed": 0, "workers": 1},
        n=n, regime=regime_spec, samples=samples, sweep=sweep, seed=seed,
        workers=workers, tolerance=tolerance, out=out,
    )
    regime = _resolve_regime(params["regime"])
    sweep_list = None if params["sweep"] is None else _parse_int_list(params["sweep"], "--sweep", minimum=1)
    try:
        report, sweep_rows = build_path_report(
            params["n"], regime, params["samples"], params["seed"],
            workers=params["workers"], tolerance=params["tolerance"], sweep=sweep_list,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_path = _out_dir(params["out"])
    if out_path is not None and sweep_rows:
        _write_csv(out_path / "path_bound_sweep.csv", ["n", "lower_bound"], sweep_rows)
    _emit_report(report, out_path, "path_report.json")
    _finish(report)


@main.command()
@click.option("--k", type=int, default=None, help="Watched state (default 3).")
@click.option("--regime", "regime_spec", default=None, help="Any regime (default constant:0.3).")
@click.option("--n", type=int, default=None, help="Initial-state context (default k).")
@click.option("--samples", type=int, default=None, help="Monte Carlo runs (default 100000).")
@click.option("--j-max", type=int, default=None, help="pmf rows to verify (default 8).")
@click.option("--limit-n", type=int, default=None, help="Scale for the exponential-limit check.")
@click.option("--limit-samples", type=int, default=None)
@click.option("--lam", type=float, default=None, help="Target of a_n c_n for initial-power scaling.")
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def passage(k, regime_spec, n, samples, j_max, limit_n, limit_samples, lam, seed, workers, tolerance, out, config_path):
    """First-passage law from k: pmf, MGF identities, scaled-limit KS."""
    params = _params(
        config_path,
        {"k": 3, "regime": "constant:0.3", "n": None, "samples": 10**5, "j_max": 8,
         "limit_n": None, "limit_samples": None, "lam": None, "seed": 0, "workers": 1,
         "tolerance": 1e-12, "out": None},
        {"k": 1, "n": 1, "samples": 1, "j_max": 1, "limit_n": 1, "limit_samples": 1, "seed": 0,
         "workers": 1},
        k=k, regime=regime_spec, n=n, samples=samples, j_max=j_max, limit_n=limit_n,
        limit_samples=limit_samples, lam=lam, seed=seed, workers=workers,
        tolerance=tolerance, out=out,
    )
    regime = _resolve_regime(params["regime"])
    try:
        report, scaled = build_passage_report(
            params["k"], regime, params["samples"], params["seed"], n=params["n"],
            workers=params["workers"], tolerance=params["tolerance"], j_max=params["j_max"],
            limit_n=params["limit_n"], limit_samples=params["limit_samples"], lam=params["lam"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_path = _out_dir(params["out"])
    if out_path is not None and scaled is not None:
        _write_csv(out_path / "scaled_passage_times.csv", ["scaled_time"], [(float(v),) for v in scaled])
    _emit_report(report, out_path, "passage_report.json")
    _finish(report)


@main.command()
@click.option("--alpha", type=float, default=None, help="Rate exponent (default 1.0).")
@click.option("--k-max", "k_max", type=int, default=None, help="Truncation level K (default 10000).")
@click.option("--runs", type=int, default=None, help="Monte Carlo runs (default 100000).")
@click.option(
    "--sweep",
    default=None,
    help="Truncation sweep levels, strictly increasing and each <= --k-max, read off the main runs "
    "(default: the powers of ten up to --k-max).",
)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def implode(alpha, k_max, runs, sweep, seed, workers, out, config_path):
    """Implosion of the limiting chain: totals vs the certified series."""
    params = _params(
        config_path,
        {"alpha": 1.0, "k_max": 10**4, "runs": 10**5, "sweep": _POWERS_OF_TEN,
         "seed": 0, "workers": 1, "out": None},
        {"k_max": 1, "runs": 2, "seed": 0, "workers": 1},
        alpha=alpha, k_max=k_max, runs=runs, sweep=sweep, seed=seed, workers=workers, out=out,
    )
    k_max, sweep_list = params["k_max"], params["sweep"]
    if sweep_list is _POWERS_OF_TEN:
        sweep_list = [10**i for i in range(1, len(str(k_max)))]  # 10, 100, ... <= k_max
    elif sweep_list in (None, ""):
        sweep_list = None
    else:
        try:
            sweep_list = check_sweep_levels(_parse_int_list(sweep_list, "--sweep", minimum=1), k_max)
        except AnalyticsError as exc:
            raise click.UsageError(f"--sweep: {exc}")
    try:
        report, sweep_rows, totals = build_implode_outputs(
            params["alpha"], k_max, params["runs"], params["seed"],
            sweep=sweep_list, workers=params["workers"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_path = _out_dir(params["out"])
    if out_path is not None:
        if sweep_rows:
            _write_csv(
                out_path / "implode_sweep.csv",
                ["K", "runs", "mean", "stderr", "partial_sum", "tail_bound"],
                [(r.K, r.runs, r.mean, r.stderr, r.partial_sum, r.tail_bound) for r in sweep_rows],
            )
        counts, edges = np.histogram(totals, bins=50)
        _write_csv(
            out_path / "implode_hist.csv",
            ["bin_left", "bin_right", "count"],
            [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(counts.size)],
        )
    _emit_report(report, out_path, "implode_report.json")
    _finish(report)


@main.command()
@click.option("--seed", type=int, default=None, help="Stream seed (default 0).")
@click.option("--workers", type=int, default=None, help="Worker threads (default 1).")
@click.option("--tolerance", type=float, default=None, help="Identity tolerance (default 1e-12).")
@click.option("--samples", type=int, default=None, help="Monte Carlo batch size (default 20000).")
@click.option("--out", default=None, help="Path of the JSON report to write.")
@click.option("--config", "config_path", default=None)
def verify(seed, workers, tolerance, samples, out, config_path):
    """Run the full oracle-vs-closed-form identity suite; exit 0 iff all
    rows pass."""
    params = _params(
        config_path,
        {"seed": 0, "workers": 1, "tolerance": 1e-12, "samples": 20000, "out": None},
        {"seed": 0, "workers": 1, "samples": 2},
        seed=seed, workers=workers, tolerance=tolerance, samples=samples, out=out,
    )
    try:
        kernels.warmup()
        report = build_verify_report(
            params["seed"], workers=params["workers"], tolerance=params["tolerance"],
            samples=params["samples"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(report.render_text())
    if params["out"] is not None:
        out_file = Path(params["out"])
        out_file.parent.mkdir(parents=True, exist_ok=True)
        out_file.write_text(report.to_json(), encoding="utf-8")
        click.echo(f"wrote {out_file}")
    _finish(report)


if __name__ == "__main__":
    main()
