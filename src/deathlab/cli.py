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
from click.core import ParameterSource
import numpy as np

from .analytics import AnalyticsError
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
from .process import ProcessError, TrajectoryBatch, prepare_run, simulate_trajectory
from .regimes import MortalityRegime, RegimeError, check_count, from_dict, from_json, parse_inline, to_json
from .rng import make_stream
from .samplers import MAX_EXACT_COUNT


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the largest float
        return False


def _params(config_path: str | None, flags: dict, minimums: dict) -> dict:
    """The command's parameters: the values click parsed, each option's
    default where its flag is absent, with the fields of the JSON config
    file (each one of the command's parameters) filling every parameter
    not typed on the command line.  A filled parameter's source becomes
    ``DEFAULT_MAP``, so only an absent one still reads ``DEFAULT``.  Each
    key of ``minimums`` is an integer parameter and its lowest allowed
    value; a value outside that range is a usage error here, before any
    stream is made, whether it came from a flag or the file.  ``None``
    stays allowed where it is the option's default (auto or disabled).  A
    ``FLOAT`` parameter must be a finite number, and ``tolerance`` one
    >= 0."""
    ctx = click.get_current_context()
    params = dict(flags)
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise click.UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise click.UsageError("config must be a JSON object")
        unknown = sorted(set(data) - set(flags))
        if unknown:
            raise click.UsageError(f"unknown config field(s): {', '.join(unknown)}")
        for key, value in data.items():
            if ctx.get_parameter_source(key) is not ParameterSource.COMMANDLINE:
                params[key] = value
                ctx.set_parameter_source(key, ParameterSource.DEFAULT_MAP)
    for option in ctx.command.params:
        key, value = option.name, params.get(option.name)
        if value is None and option.default is None:
            continue
        flag, low = "--" + key.replace("_", "-"), minimums.get(key)
        if low is not None and (isinstance(value, bool) or not isinstance(value, int) or value < low):
            raise click.UsageError(f"{flag} must be an integer >= {low}, got {value!r}")
        if option.type is click.FLOAT and (
            isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value)
        ):
            raise click.UsageError(f"{flag} must be a finite number, got {value!r}")
    if "tolerance" in params and not params["tolerance"] >= 0:
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


def _parse_sweep(value, k_max: int | None = None) -> list[int]:
    """A ``--sweep`` list as ``limits.check_sweep_levels`` accepts it:
    strictly increasing and, given ``k_max``, at most ``k_max``."""
    try:
        return check_sweep_levels(_parse_int_list(value, "--sweep", minimum=1), k_max)
    except AnalyticsError as exc:
        raise click.UsageError(f"--sweep: {exc}")


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


def _check_out(out: str | Path | None, names) -> Path | None:
    """The ``--out`` directory, refused with exit 2 before any stream where
    the files ``names`` could not be written in it: a file stands at the
    directory's place or above it, or a directory at a file's place.  It is
    made only once the run is done, so a rejected command leaves none."""
    if out is None:
        return None
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise click.UsageError(f"--out: {existing} is not a directory")
    for name in names:
        if (path / name).is_dir():
            raise click.UsageError(f"--out: {path / name} is a directory, not a file")
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# trajectories.csv is written in pieces of whole runs, about this many
# rows each unless one run is longer
_PIECE_ROWS = 1 << 15


def _cells(values: np.ndarray, tail: bytes) -> np.ndarray:
    """One fixed-width byte string per value (an integer >= 0): its decimal
    digits right-aligned behind NULs, then ``tail``."""
    width = len(str(int(values.max(initial=0))))
    cells = np.empty((values.size, width + len(tail)), dtype=np.uint8)
    cells[:, width:] = np.frombuffer(tail, dtype=np.uint8)
    rest = values
    for j in range(width - 1, -1, -1):
        high = rest // 10
        digit = rest - high * 10 + ord("0")
        cells[:, j] = digit if j == width - 1 else digit * (rest > 0)  # NUL left of the leading digit
        rest = high
    return cells.view(f"S{cells.shape[1]}").ravel()


def _write_trajectories(path: Path, batch: TrajectoryBatch) -> None:
    """trajectories.csv, byte for byte what ``_write_csv`` writes for the
    rows ``(run_id, t, state)`` of each run in turn, one per time step,
    with run ids 0, 1, ..., without a Python step per row.  A piece of
    whole runs is one record per row of three NUL-padded cells,
    ``"<run_id>,"``, ``"<t>,"`` and ``"<state>\\r\\n"``, taken from tables
    of the batch's run ids and steps and of the states the piece holds;
    its bytes are written with the NULs dropped."""
    ends = np.cumsum(batch.lengths)
    run_ids = _cells(np.arange(ends.size), b",")
    steps = _cells(np.arange(batch.lengths.max(initial=0)), b",")
    with path.open("wb") as fh:
        fh.write(b"run_id,t,state\r\n")
        stop = 0
        while stop < ends.size:
            start = stop
            first = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, first + _PIECE_ROWS, side="right")))
            lengths = batch.lengths[start:stop]
            states = batch.states[first : ends[stop - 1]]
            rows = states.size
            holds = np.flatnonzero(np.r_[True, states[1:] != states[:-1]])  # where the state changes
            values = _cells(states[holds], b"\r\n")
            table = np.empty(rows, [("run", run_ids.dtype), ("t", steps.dtype), ("state", values.dtype)])
            table["run"] = np.repeat(run_ids[start:stop], lengths)
            table["t"] = steps[np.arange(rows) - np.repeat(ends[start:stop] - lengths - first, lengths)]
            table["state"] = np.repeat(values, np.diff(holds, append=rows))
            fh.write(table.tobytes().translate(None, b"\0"))


# one run's entry in summary.json, laid out as json.dumps(..., indent=2) lays it out
_SUMMARY_RUN = (
    '    {\n      "censored": %s,\n      "extinction_time": %s,\n'
    '      "run_id": %d,\n      "steps_recorded": %d\n    }'
)


def _summary_json(meta: dict, batch: TrajectoryBatch) -> str:
    """summary.json for a batch of one run or more: the text
    ``json.dumps({"meta": meta, "runs": runs}, sort_keys=True, indent=2)``
    and a newline, where run i's entry records its extinction time (null
    when censored), whether it was censored, and its steps.  ``json``
    indents through its pure-Python encoder, so only ``meta`` goes through
    it; the runs are filled into a template."""
    head = json.dumps({"meta": meta}, sort_keys=True, indent=2)[: -len("\n}")]
    runs = ",\n".join([
        _SUMMARY_RUN % ("true" if time < 0 else "false", "null" if time < 0 else time, run_id, length - 1)
        for run_id, (time, length) in enumerate(zip(batch.extinction_times.tolist(), batch.lengths.tolist()))
    ])
    return f'{head},\n  "runs": [\n{runs}\n  ]\n}}\n'


def _run(build, out: str | Path | None, names, tables) -> None:
    """The tail of a report command.  ``build()`` returns the report and
    the outputs that ``tables`` turns into ``(file, header, rows)`` side
    tables; a ``ValueError`` from it exits 2 before anything is written,
    and so does an ``out`` that ``_check_out`` refuses for any of
    ``names``, before ``build()``.  ``names`` are the report's JSON file,
    then every side table ``tables`` may write.  With ``out``, the side
    tables and then the report's JSON are written there.  The report is
    printed, and a failed row exits 1."""
    report_name = names[0]
    out_path = _check_out(out, names)
    try:
        report, *outputs = build()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        for name, header, rows in tables(*outputs):
            _write_csv(out_path / name, header, rows)
    click.echo(report.render_text())
    if out_path is not None:
        (out_path / report_name).write_text(report.to_json(), encoding="utf-8")
        click.echo(f"wrote {out_path / report_name}")
    if not report.passed:
        sys.exit(1)


@click.group()
def main() -> None:
    """Simulation and exact analytics for the binomial-thinning pure death
    process."""


@main.command()
@click.option("--n", type=int, default=5, help="Initial population (>= 1).")
@click.option("--regime", default="constant:0.5", help="Inline regime, e.g. constant:0.5.")
@click.option("--samples", type=int, default=1, help="Number of trajectories.")
@click.option("--t-max", type=int, default=None, help="Censoring horizon (default: auto).")
@click.option("--seed", type=int, default=0, help="Stream seed (default 0).")
@click.option("--out", default="deathlab-out", help="Output directory.")
@click.option("--config", "config_path", default=None, help="JSON config file.")
def simulate(config_path, **flags):
    """Simulate trajectories; write trajectories.csv and summary.json."""
    # no minimum for n: the process layer checks it and names it a population
    params = _params(config_path, flags, {"samples": 1, "t_max": 1, "seed": 0})
    regime = _resolve_regime(params["regime"])
    out_path = _check_out(params["out"], ["trajectories.csv", "summary.json"])
    try:
        # the process layer's checks, before any stream is made
        n = check_count(params["n"], "population", 1, ProcessError, MAX_EXACT_COUNT)
        run = prepare_run(regime, n, params["t_max"], record=True)
        batch = simulate_trajectory(
            n, regime, make_stream(params["seed"], 0), runs=params["samples"], prepared=run
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    config = {"n": n, "regime": to_json(regime), "samples": params["samples"], "t_max": params["t_max"]}
    out_path.mkdir(parents=True, exist_ok=True)
    _write_trajectories(out_path / "trajectories.csv", batch)
    (out_path / "summary.json").write_text(
        _summary_json(report_meta("simulate", config, params["seed"]), batch), encoding="utf-8"
    )
    click.echo(f"wrote {out_path / 'trajectories.csv'} and {out_path / 'summary.json'}")


@main.command()
@click.option("--n", type=int, default=20, help="Initial population (default 20).")
@click.option("--regime", default="constant:0.3", help="Constant or initial-power regime.")
@click.option("--t-grid", default="0:60", help="Time grid, e.g. 0:60 or 0,5,10.")
@click.option("--samples", type=int, default=10**5, help="Monte Carlo runs (default 100000).")
@click.option("--ratio-n", type=int, default=10**6, help="Scale for the tau/d_n experiment (0 disables).")
@click.option("--ratio-c", type=float, default=0.1, help="Mortality for the ratio experiment.")
@click.option("--ratio-samples", type=int, default=10**4)
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=1)
@click.option("--tolerance", type=float, default=1e-12)
@click.option("--out", default=None, help="Output directory.")
@click.option("--config", "config_path", default=None, help="JSON config file.")
def extinct(config_path, **flags):
    """Extinction CDF: closed form vs oracle vs Monte Carlo, plus the
    tau/d_n ratio experiment."""
    params = _params(
        config_path, flags, {"n": 1, "samples": 1, "ratio_n": 0, "ratio_samples": 2, "seed": 0, "workers": 1}
    )
    if params["ratio_n"]:  # 0 turns the ratio experiment off
        if params["ratio_n"] < 2:
            raise click.UsageError(f"--ratio-n must be 0 or an integer >= 2, got {params['ratio_n']!r}")
        if not 0 < params["ratio_c"] < 1:
            raise click.UsageError(f"--ratio-c must lie in (0,1), got {params['ratio_c']!r}")
    regime = _resolve_regime(params["regime"])
    grid = _parse_t_grid(params["t_grid"])

    def tables(csv_rows):
        yield (
            "extinct_cdf.csv",
            ["t", "closed_form", "oracle", "monte_carlo"],
            [(t, cf, "" if dp is None else dp, mc) for t, cf, dp, mc in csv_rows],
        )
        if params["n"] <= MAX_STATE and max(grid) <= MAX_TIME:
            history = state_distribution_history(params["n"], regime, max(grid))
            yield "state_distribution.csv", ["t", "state", "mass"], [
                (t, x, float(history[t, x])) for t in range(history.shape[0]) for x in range(history.shape[1])
            ]

    _run(
        lambda: build_extinct_report(
            params["n"], regime, grid, params["samples"], params["seed"],
            workers=params["workers"], tolerance=params["tolerance"],
            ratio_n=params["ratio_n"] or None, ratio_c=params["ratio_c"],
            ratio_samples=params["ratio_samples"],
        ),
        params["out"], ("extinct_report.json", "extinct_cdf.csv", "state_distribution.csv"), tables,
    )


@main.command()
@click.option("--n", type=int, default=5, help="Initial population (default 5).")
@click.option("--regime", default="constant:0.1", help="Any regime (default constant:0.1).")
@click.option("--samples", type=int, default=10**5, help="Monte Carlo runs (default 100000).")
@click.option("--sweep", default=None, help="Joint-regime bound sweep, e.g. 10,100,1000.")
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=1)
@click.option("--tolerance", type=float, default=1e-12)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def path(config_path, **flags):
    """Single-drop extinction: per-level and whole-path probabilities with
    their lower bounds."""
    params = _params(config_path, flags, {"n": 0, "samples": 1, "seed": 0, "workers": 1})
    regime = _resolve_regime(params["regime"])
    sweep = None if params["sweep"] is None else _parse_sweep(params["sweep"])
    _run(
        lambda: build_path_report(
            params["n"], regime, params["samples"], params["seed"],
            workers=params["workers"], tolerance=params["tolerance"], sweep=sweep,
        ),
        params["out"], ("path_report.json", "path_bound_sweep.csv"),
        lambda sweep_rows: [("path_bound_sweep.csv", ["n", "lower_bound"], sweep_rows)] if sweep_rows else [],
    )


@main.command()
@click.option("--k", type=int, default=3, help="Watched state (default 3).")
@click.option("--regime", default="constant:0.3", help="Any regime (default constant:0.3).")
@click.option("--n", type=int, default=None, help="Initial-state context (default k).")
@click.option("--samples", type=int, default=10**5, help="Monte Carlo runs (default 100000).")
@click.option("--j-max", type=int, default=8, help="pmf rows to verify (default 8).")
@click.option("--limit-n", type=int, default=None, help="Scale for the exponential-limit check.")
@click.option("--limit-samples", type=int, default=None)
@click.option("--lam", type=float, default=None, help="Target of a_n c_n for initial-power scaling.")
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=1)
@click.option("--tolerance", type=float, default=1e-12)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def passage(config_path, **flags):
    """First-passage law from k: pmf, MGF identities, scaled-limit KS."""
    params = _params(
        config_path, flags,
        {"k": 1, "n": 1, "samples": 1, "j_max": 1, "limit_n": 1, "limit_samples": 1, "seed": 0, "workers": 1},
    )
    regime = _resolve_regime(params["regime"])
    _run(
        lambda: build_passage_report(
            params["k"], regime, params["samples"], params["seed"], n=params["n"],
            workers=params["workers"], tolerance=params["tolerance"], j_max=params["j_max"],
            limit_n=params["limit_n"], limit_samples=params["limit_samples"], lam=params["lam"],
        ),
        params["out"], ("passage_report.json", "scaled_passage_times.csv"),
        lambda scaled: [] if scaled is None else [
            ("scaled_passage_times.csv", ["scaled_time"], [(float(v),) for v in scaled])
        ],
    )


@main.command()
@click.option("--alpha", type=float, default=1.0, help="Rate exponent (default 1.0).")
@click.option("--k-max", type=int, default=10**4, help="Truncation level K (default 10000).")
@click.option("--runs", type=int, default=10**5, help="Monte Carlo runs (default 100000).")
@click.option(
    "--sweep",
    default=None,
    help="Truncation sweep levels, strictly increasing and each <= --k-max, read off the main runs "
    "(default: the powers of ten up to --k-max).",
)
@click.option("--seed", type=int, default=0)
@click.option("--workers", type=int, default=1)
@click.option("--out", default=None)
@click.option("--config", "config_path", default=None)
def implode(config_path, **flags):
    """Implosion of the limiting chain: totals vs the certified series."""
    params = _params(config_path, flags, {"k_max": 1, "runs": 2, "seed": 0, "workers": 1})
    k_max, sweep = params["k_max"], params["sweep"]
    if click.get_current_context().get_parameter_source("sweep") is ParameterSource.DEFAULT:
        sweep = [10**i for i in range(1, len(str(k_max)))]  # absent everywhere: 10, 100, ... <= k_max
    elif sweep in (None, ""):
        sweep = None
    else:
        sweep = _parse_sweep(sweep, k_max)

    def tables(sweep_rows, totals):
        if sweep_rows:
            yield (
                "implode_sweep.csv",
                ["K", "runs", "mean", "stderr", "partial_sum", "tail_bound"],
                [(r.K, r.runs, r.mean, r.stderr, r.partial_sum, r.tail_bound) for r in sweep_rows],
            )
        counts, edges = np.histogram(totals, bins=50)
        rows = [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(counts.size)]
        yield "implode_hist.csv", ["bin_left", "bin_right", "count"], rows

    _run(
        lambda: build_implode_outputs(
            params["alpha"], k_max, params["runs"], params["seed"], sweep=sweep, workers=params["workers"]
        ),
        params["out"], ("implode_report.json", "implode_sweep.csv", "implode_hist.csv"), tables,
    )


@main.command()
@click.option("--seed", type=int, default=0, help="Stream seed (default 0).")
@click.option("--workers", type=int, default=1, help="Worker threads (default 1).")
@click.option("--tolerance", type=float, default=1e-12, help="Identity tolerance (default 1e-12).")
@click.option("--samples", type=int, default=20000, help="Monte Carlo batch size (default 20000).")
@click.option("--out", default=None, help="Path of the JSON report to write.")
@click.option("--config", "config_path", default=None)
def verify(config_path, **flags):
    """Run the full oracle-vs-closed-form identity suite; exit 0 iff all
    rows pass."""
    params = _params(config_path, flags, {"seed": 0, "workers": 1, "samples": 2})
    out = None if params["out"] is None else Path(params["out"])  # the report's own file
    _run(
        lambda: (
            build_verify_report(
                params["seed"], workers=params["workers"], tolerance=params["tolerance"],
                samples=params["samples"],
            ),
        ),
        out and out.parent, (out and out.name,), lambda: [],
    )


if __name__ == "__main__":
    main()
