"""The benchmark's workloads: the CLI invocations of one pass, made from
the seed, and the checks on what each invocation writes.

A check returns a list of problems; an empty list means the output agrees
with the closed forms recomputed in :mod:`reference`.  Closed forms must
match to ``TOL``, and each Monte Carlo estimate must lie within the
report's own half-width of the recomputed value.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

import reference as ref

TOL = 1e-12

NAMES = ("verify", "low-mortality", "implode")

VERIFY_SAMPLES = 2000

LOW_N = 10
LOW_C = "0.02"
LOW_TABLE = json.dumps(
    {"type": "table", "values": [[k, LOW_N, float(LOW_C)] for k in range(1, LOW_N + 1)]}
)
LOW_PATH_SAMPLES = 1000
LOW_SIM_RUNS = 200
SIM_Z = 5.0  # mean extinction time must lie within 5 standard errors

IMPLODE_ALPHA = 1.0
IMPLODE_K = 1000
IMPLODE_RUNS = 65536  # four chunks of 16384, so --workers 2 has work to share
IMPLODE_SWEEP = (10, 100, 1000)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` plus ``--workers`` when ``parallel``,
    plus ``--out`` naming the op's directory (or ``out_file`` inside it)."""

    name: str
    argv: tuple[str, ...]
    parallel: bool
    report: str  # file in the op's directory holding the JSON report
    check: Callable[[Path], list[str]]
    out_file: str | None = None


def ops(workload: str, seed: int) -> list[Op]:
    """The invocations of one pass of ``workload``; equal seeds give equal ops."""
    s = str(seed)
    if workload == "verify":
        return [
            Op("verify", ("verify", "--seed", s, "--samples", str(VERIFY_SAMPLES)), True,
               "verify.json", check_verify, out_file="verify.json"),
        ]
    if workload == "low-mortality":
        path = ("path", "--n", str(LOW_N), "--samples", str(LOW_PATH_SAMPLES), "--seed", s)
        sim = ("simulate", "--n", str(LOW_N), "--samples", str(LOW_SIM_RUNS), "--seed", s)
        return [
            Op("path-constant", path + ("--regime", f"constant:{LOW_C}"), True,
               "path_report.json", lambda d: check_path(d, table=False)),
            Op("path-table", path + ("--regime", LOW_TABLE), True,
               "path_report.json", lambda d: check_path(d, table=True)),
            Op("simulate-constant", sim + ("--regime", f"constant:{LOW_C}"), False,
               "summary.json", check_simulate),
            Op("simulate-table", sim + ("--regime", LOW_TABLE), False,
               "summary.json", check_simulate),
        ]
    if workload == "implode":
        return [
            Op("implode",
               ("implode", "--alpha", f"{IMPLODE_ALPHA:g}", "--k-max", str(IMPLODE_K),
                "--runs", str(IMPLODE_RUNS), "--sweep", ",".join(map(str, IMPLODE_SWEEP)),
                "--seed", s),
               True, "implode_report.json", check_implode),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def cross_check(workload: str, dirs: dict[str, Path]) -> list[str]:
    """Checks that span several invocations of one pass."""
    if workload != "low-mortality" or not {"path-constant", "path-table"} <= set(dirs):
        return []
    # equal laws: the constant and the equal Table regime state the same closed forms
    forms = []
    for name in ("path-constant", "path-table"):
        rows = _rows(dirs[name] / "path_report.json")
        forms.append({r["label"].split(" [")[0]: r["closed_form"] for r in rows})
    const, table = forms
    shared = set(const) & set(table)
    problems = []
    if len(shared) < LOW_N + 1:
        problems.append(f"constant and Table path reports share only {len(shared)} rows")
    for label in sorted(shared):
        if abs(const[label] - table[label]) > TOL:
            problems.append(f"equal laws differ at {label!r}: {const[label]} vs {table[label]}")
    return problems


# --- row checks --------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


def _check_rows(rows: list[dict], forms: list[tuple[str, Callable]], where: str) -> list[str]:
    """Match each row label against ``forms``; a form gives the recomputed
    (closed form, oracle or None).  Every form must match some row."""
    problems = []
    seen = set()
    for row in rows:
        for pattern, expected in forms:
            m = re.fullmatch(pattern, row["label"])
            if m is None:
                continue
            seen.add(pattern)
            closed, oracle = expected(*m.groups())
            label = f"{where}: {row['label']}"
            if abs(row["closed_form"] - closed) > TOL:
                problems.append(f"{label}: closed form {row['closed_form']!r}, recomputed {closed!r}")
            if oracle is not None and abs(row["oracle"] - oracle) > TOL:
                problems.append(f"{label}: oracle {row['oracle']!r}, recomputed {oracle!r}")
            mc = row["monte_carlo"]
            if mc is not None and abs(mc["estimate"] - closed) > mc["half_width"]:
                problems.append(
                    f"{label}: estimate {mc['estimate']!r} is more than {mc['half_width']!r} "
                    f"from {closed!r}"
                )
            break
    for pattern, _ in forms:
        if pattern not in seen:
            problems.append(f"{where}: no row matches {pattern!r}")
    return problems


NUM = r"([0-9.e+-]+)"


@lru_cache(maxsize=None)
def _p_single(k: str, c: str) -> float:
    return ref.single_drop_prob(int(k), Fraction(c))


@lru_cache(maxsize=None)
def _p_path(n: str, c: str) -> float:
    return ref.single_drop_path_prob([Fraction(c)] * int(n))


@lru_cache(maxsize=None)
def _tightest(where: str) -> tuple[float, float]:
    """Exact path probability and lower bound at the grid point named in
    verify's bound row: constant c, c_k = k^-3, or c_k = k / n^4."""
    m = re.fullmatch(r"(state|joint) n=(\d+)", where)
    if m is None:
        n, c = re.fullmatch(rf"n=(\d+), c={NUM}", where).groups()
        return _p_path(n, c), ref.path_lower_bound_constant(int(n), Fraction(c))
    family, n = m.group(1), int(m.group(2))
    if family == "state":
        cs = [Fraction(1, k**3) for k in range(1, n + 1)]
        return ref.single_drop_path_prob(cs), ref.path_lower_bound_state(cs)
    base = 1 - Fraction(1, n**3)  # 1 - n^(alpha-beta) at alpha=1, beta=4
    cs = [Fraction(k, n**4) for k in range(1, n + 1)]
    return ref.single_drop_path_prob(cs), float(base ** (n * (n - 1) // 2))


@lru_cache(maxsize=None)
def _implosion(alpha: str, K: str) -> tuple[float, float]:
    return ref.implosion_mean(float(alpha), int(K)), ref.implosion_variance(float(alpha), int(K))


def _scale_c(k: str, exp: str, alpha: str, beta: str) -> Fraction:
    # c = k^alpha / n^beta with n = 10^exp and integer exponents
    return Fraction(int(k)) ** int(float(alpha)) / Fraction(10 ** int(exp)) ** int(float(beta))


VERIFY_FORMS = [
    (rf"extinction CDF vs DP \(grid worst: n=(\d+), c={NUM}, t=(\d+)\)",
     lambda n, c, t: (ref.extinction_cdf(int(n), Fraction(c), int(t)), None)),
    (rf"single-drop prob vs oracle jump law \(grid worst: k=(\d+), c={NUM}\)",
     lambda k, c: (_p_single(k, c), None)),
    (rf"single-drop prob vs drop distribution entry \(grid worst: k=(\d+), c={NUM}\)",
     lambda k, c: (_p_single(k, c), None)),
    (rf"single-drop path prob vs oracle \(grid worst: n=(\d+), c={NUM}\)",
     lambda n, c: (_p_path(n, c), None)),
    (r"lower bounds <= exact path prob \(tightest: (.+)\)", _tightest),
    (rf"MGF at s=0 vs single-drop prob \(grid worst: k=(\d+), c={NUM}\)",
     lambda k, c: (_p_single(k, c), None)),
    (rf"P\(single drop from k=(\d+)\) MC \[c={NUM}\]", lambda k, c: (_p_single(k, c), None)),
    (rf"P\(all drops single, n=(\d+)\) MC \[c={NUM}\]", lambda n, c: (_p_path(n, c), None)),
    (rf"P\(T=(\d+)\) from k=(\d+) MC \[c={NUM}\]",
     lambda j, k, c: (ref.passage_pmf(int(k), Fraction(c), int(j)), None)),
    (rf"P\(T finite\) at scale n=10\^(\d+) \[k=(\d+), alpha={NUM}, beta={NUM}\]",
     lambda e, k, a, b: (ref.single_drop_prob(int(k), _scale_c(k, e, a, b)), None)),
    (rf"mean implosion time \[alpha={NUM}, K=(\d+)\]", lambda a, K: (_implosion(a, K)[0], None)),
    (rf"P\(\|tau/d_n - 1\| > {NUM}\) \[n=10\^(\d+), c={NUM}\]",
     lambda eps, e, c: (ref.exceedance(10 ** int(e), float(c), float(eps)), None)),
]


def check_verify(out: Path) -> list[str]:
    return _check_rows(_rows(out / "verify.json"), VERIFY_FORMS, "verify")


PATH_FORMS = [
    (r"P\(single drop from k=(\d+)\) \[.*\]", lambda k: (_p_single(k, LOW_C), None)),
    (r"P\(all drops single, n=(\d+)\) \[.*\]", lambda n: (_p_path(n, LOW_C), None)),
]
PATH_BOUND_FORM = (
    r"\(1-c\)\^\(n\(n-1\)/2\) lower bound \[n=(\d+)\]",
    lambda n: (_p_path(n, LOW_C), ref.path_lower_bound_constant(int(n), Fraction(LOW_C))),
)


def check_path(out: Path, table: bool) -> list[str]:
    rows = _rows(out / "path_report.json")
    where = "path-table" if table else "path-constant"
    forms = PATH_FORMS if table else PATH_FORMS + [PATH_BOUND_FORM]
    problems = _check_rows(rows, forms, where)
    levels = sum(1 for r in rows if r["label"].startswith("P(single drop from k="))
    if levels != LOW_N:
        problems.append(f"{where}: {levels} per-level rows, expected {LOW_N}")
    return problems


@lru_cache(maxsize=None)
def _extinction_moments() -> tuple[float, float]:
    return ref.extinction_moments(LOW_N, float(LOW_C))


def check_simulate(out: Path) -> list[str]:
    """Every trajectory starts at n, never rises and is absorbed at 0 where
    the summary says; the mean extinction time fits the exact law."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    paths: dict[int, list[int]] = {}
    with (out / "trajectories.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["run_id", "t", "state"]:
            return ["simulate: unexpected trajectories.csv header"]
        for run_id, t, state in reader:
            steps = paths.setdefault(int(run_id), [])
            if int(t) != len(steps):
                return [f"simulate: run {run_id} skips to t={t}"]
            steps.append(int(state))
    runs = summary["runs"]
    problems = []
    if len(runs) != LOW_SIM_RUNS or sorted(paths) != list(range(LOW_SIM_RUNS)):
        problems.append(f"simulate: {len(runs)} runs in summary, {len(paths)} in the CSV")
    for run in runs:
        states = paths.get(run["run_id"], [])
        tau = run["extinction_time"]
        if run["censored"] or tau is None:
            problems.append(f"simulate: run {run['run_id']} censored")
            continue
        if (
            len(states) != tau + 1
            or states[0] != LOW_N
            or states[-1] != 0
            or 0 in states[:-1]
            or any(b > a for a, b in zip(states, states[1:]))
            or run["steps_recorded"] != tau
        ):
            problems.append(f"simulate: run {run['run_id']} is not a path from {LOW_N} to 0 at {tau}")
    if problems:
        return problems
    mean, var = _extinction_moments()
    observed = sum(r["extinction_time"] for r in runs) / len(runs)
    half = SIM_Z * math.sqrt(var / len(runs))
    if abs(observed - mean) > half:
        problems.append(f"simulate: mean extinction time {observed} is more than {half} from {mean}")
    return problems


IMPLODE_FORMS = [
    (rf"mean implosion time \[alpha={NUM}, K=(\d+)\]", lambda a, K: (_implosion(a, K)[0], None)),
    (rf"variance of implosion time \[alpha={NUM}, K=(\d+)\]",
     lambda a, K: (_implosion(a, K)[1], None)),
    (rf"series bracket \[alpha={NUM}, K=(\d+)\]",
     lambda a, K: (_implosion(a, K)[0], _implosion(a, K)[0] + int(K) ** -float(a) / float(a))),
    (rf"truncation sweep K=(\d+)\.\.(\d+) \[alpha={NUM}\]",
     lambda _lo, hi, a: (_implosion(a, hi)[0], None)),
]


def check_implode(out: Path) -> list[str]:
    problems = _check_rows(_rows(out / "implode_report.json"), IMPLODE_FORMS, "implode")
    alpha = f"{IMPLODE_ALPHA:g}"
    with (out / "implode_sweep.csv").open(newline="", encoding="utf-8") as fh:
        sweep = list(csv.DictReader(fh))
    if [int(r["K"]) for r in sweep] != list(IMPLODE_SWEEP):
        problems.append("implode: sweep levels differ from the requested ones")
    for r in sweep:
        K = r["K"]
        partial = _implosion(alpha, K)[0]
        if abs(float(r["partial_sum"]) - partial) > TOL:
            problems.append(f"implode: sweep partial sum at K={K} {r['partial_sum']}, recomputed {partial!r}")
        if abs(float(r["tail_bound"]) - int(K) ** -IMPLODE_ALPHA / IMPLODE_ALPHA) > TOL:
            problems.append(f"implode: sweep tail bound at K={K} is {r['tail_bound']}")
        if abs(float(r["mean"]) - partial) > 4 * float(r["stderr"]):
            problems.append(f"implode: sweep mean at K={K} is more than 4 stderr from {partial!r}")
    with (out / "implode_hist.csv").open(newline="", encoding="utf-8") as fh:
        counted = sum(int(r["count"]) for r in csv.DictReader(fh))
    if counted != IMPLODE_RUNS:
        problems.append(f"implode: histogram holds {counted} runs, expected {IMPLODE_RUNS}")
    return problems
