#!/usr/bin/env python3
"""deathlab benchmark: time to a verified report, per workload.

Runs one workload's CLI invocations through ``deathlab.cli.main`` in this
process, checks every output against closed forms recomputed here, and
prints each metric by name and unit.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record goes to ``perfbench/_runs/``.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, one pass at ``--workers 1`` and ``--workers 2``, and peak
memory.  ``--trace 1`` reports per-layer metrics from traced passes at
``--workers 1``, interleaved with untraced ones to give the overhead.
Every time is measured between two speed probes and scaled to the
reference speed of :mod:`calibrate`; the unscaled medians are printed too.

Usage: python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # at most two threads: the --workers 2 pool

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import click
import numpy as np
import workloads
from calibrate import normalise, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_PROBES = 7  # fresh interpreters per --trace 0 run; setup_s is their median
TRACE_PROBES = 3
MIN_ROUNDS = 3  # timed rounds per run, however short --seconds is
PROBE_TIMEOUT_S = 60

def probe_setup() -> dict:
    """Import and warm-up times of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), str(SRC)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and checks what they write."""

    def __init__(self, workload: str, seed: int, main, out: Path) -> None:
        self.workload = workload
        self.out = out  # this run's own directory for the CLI outputs
        self.ops = workloads.ops(workload, seed)
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # invocations that exited non-zero or reported pass=false
        self.problems: list[str] = []  # checks that disagree with an invocation that passed
        self.first_bytes: dict[str, dict[str, bytes]] = {}

    def note(self, problem: str, into: list[str] | None = None) -> None:
        into = self.problems if into is None else into
        if problem not in into:
            into.append(problem)

    def invoke(self, argv: list[str], call) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                call(argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except Exception:  # a crash is one failed operation; keep its traceback
                traceback.print_exc()
                code = 1
        return code, err.getvalue()

    def run_pass(self, workers: int, call=None) -> tuple[float, float]:
        """One pass of the workload's invocations.  Returns the seconds spent
        inside them, raw and scaled to reference speed by a speed probe
        before and after each invocation.  Checks run afterwards, outside
        the timed region."""
        call = call or self.main
        raw = scaled = 0.0
        dirs: dict[str, Path] = {}
        outcomes: dict[str, tuple[int, str]] = {}
        probe = speed_probe()
        for op in self.ops:
            out = self.out / f"{op.name}-w{workers}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = list(op.argv)
            if op.parallel:
                argv += ["--workers", str(workers)]
            argv += ["--out", str(out / op.out_file if op.out_file else out)]
            start = perf_counter()
            outcomes[op.name] = self.invoke(argv, call)
            seconds = perf_counter() - start
            after = speed_probe()
            raw += seconds
            scaled += normalise(seconds, probe, after)
            probe = after
            dirs[op.name] = out
        passed = {}
        for op in self.ops:
            self.attempted += 1
            code, err = outcomes[op.name]
            report = dirs[op.name] / op.report
            if code != 0 or not report.is_file():
                self.failed += 1
                self.note(f"{op.name}: exit {code}: {err.strip()[-300:]}", self.failures)
                continue
            if json.loads(report.read_text(encoding="utf-8")).get("pass") is False:
                self.failed += 1
                self.note(f"{op.name}: report has pass=false", self.failures)
                continue
            passed[op.name] = dirs[op.name]
            for problem in op.check(dirs[op.name]):
                self.note(problem)
            written = {p.name: p.read_bytes() for p in sorted(dirs[op.name].iterdir())}
            first = self.first_bytes.setdefault(op.name, written)
            if written != first:
                self.note(f"{op.name}: output at --workers {workers} differs from the first pass")
        for problem in workloads.cross_check(self.workload, passed):
            self.note(problem)
        return raw, scaled


def median(values) -> float:
    return float(statistics.median(values))


class SetupProbes:
    """Fresh-interpreter set-up times, one probe per round so that they
    sample the whole run rather than its first seconds."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.probes: list[tuple[dict, float]] = []

    def take(self, finish: bool = False) -> None:
        while len(self.probes) < self.count:
            before = speed_probe()
            probe = probe_setup()
            self.probes.append((probe, normalise(1.0, before, speed_probe())))
            if not finish:
                break

    def scaled(self, key: str) -> list[float]:
        return [p[key] * factor for p, factor in self.probes]

    def record(self) -> list[dict]:
        return [dict(p, factor=factor) for p, factor in self.probes]


def measure_end_to_end(runner: Runner, deadline: float, record: dict) -> dict:
    setup = SetupProbes(SETUP_PROBES)
    runner.run_pass(1)  # warm-up round: checked, not timed
    runner.run_pass(2)
    raw = {1: [], 2: []}
    scaled = {1: [], 2: []}
    while True:
        start = perf_counter()
        order = (1, 2) if len(raw[1]) % 2 == 0 else (2, 1)
        for workers in order:
            seconds, normalised = runner.run_pass(workers)
            raw[workers].append(seconds)
            scaled[workers].append(normalised)
        setup.take()
        round_s = perf_counter() - start
        if len(raw[1]) >= MIN_ROUNDS and perf_counter() + round_s > deadline:
            break
    setup.take(finish=True)
    record["setup_probes"] = setup.record()
    record["pass_s"] = {"workers_1": raw[1], "workers_2": raw[2]}
    record["scaled_pass_s"] = {"workers_1": scaled[1], "workers_2": scaled[2]}
    record["raw_medians"] = {"report_s": median(raw[1]), "report_w2_s": median(raw[2])}
    totals = [i + w for i, w in zip(setup.scaled("import_s"), setup.scaled("warmup_s"))]
    return {
        "setup_s": (median(totals), "s"),
        "report_s": (median(scaled[1]), "s"),
        "report_w2_s": (median(scaled[2]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _scaled(metrics: dict, factor: float) -> dict:
    # times scale with the factor, rates inversely, counts not at all
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ns", "us"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = (value, unit)
    return out


def measure_layers(runner: Runner, deadline: float, record: dict) -> dict:
    from spans import Tracer

    import deathlab.cli

    setup = SetupProbes(TRACE_PROBES)
    runner.run_pass(1)  # warm-up pass
    plain, traced, samples = [], [], []
    while True:
        start = perf_counter()
        plain.append(runner.run_pass(1)[1])
        tracer = Tracer()
        with tracer:
            wall, normalised = runner.run_pass(1, call=tracer.span("cli", deathlab.cli.main))
        traced.append(normalised)
        samples.append(_scaled(tracer.metrics(wall), normalised / wall))
        setup.take()
        round_s = perf_counter() - start
        if len(traced) >= MIN_ROUNDS and perf_counter() + round_s > deadline:
            break
    setup.take(finish=True)
    record["setup_probes"] = setup.record()
    record["pass_s"] = {"untraced": plain, "traced": traced}
    record["traced_passes"] = samples
    metrics = {name: (median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["cli.import_s"] = (median(setup.scaled("import_s")), "s")
    metrics["kernels.warmup_s"] = (median(setup.scaled("warmup_s")), "s")
    metrics["trace.overhead_pct"] = (100.0 * (median(traced) / median(plain) - 1.0), "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not (SRC / "deathlab" / "__init__.py").is_file():
        print(f"error: no deathlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import deathlab.cli  # also writes the bytecode the set-up probes then reuse
    import deathlab.kernels

    out = RUNS / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, deathlab.cli.main, out)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "backend": deathlab.kernels.BACKEND,
              "python": platform.python_version(), "numpy": np.__version__,
              "machine": f"{platform.machine()}, {os.cpu_count()} cpus"}
    deadline = start + args.seconds
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics = measure(runner, deadline, record)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {args.workload}, seed {args.seed}, backend {record['backend']}, "
          f"{record['machine']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for name, value in record.get("raw_medians", {}).items():
        print(f"  {name + ' (unscaled)':<52} {value:>16.6g} s")
    print(f"  operations attempted {runner.attempted}, failed {runner.failed}")
    for line in runner.failures + runner.problems:
        print(f"  {line}", file=sys.stderr)
    record.update(result, failures=runner.failures, problems=runner.problems)
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
