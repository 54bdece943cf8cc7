import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import deathlab
from deathlab import cli, experiments, kernels, limits
from deathlab.cli import main
from deathlab.process import simulate_trajectory
from deathlab.regimes import Constant, Table, prepare
from deathlab.rng import make_stream


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_simulate_is_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = invoke(
            runner,
            ["simulate", "--n", "5", "--regime", "constant:0.5", "--samples", "3",
             "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
    assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert len(summary["runs"]) == 3
    assert summary["meta"]["seed"] == 1
    assert "config_hash" in summary["meta"]


# (n, regime, runs, t_max) of a simulate command's trajectories
TRAJECTORY_SETS = {
    "censored_at_1": (5, Constant(0.1), 3, 1),
    "censored_at_2": (5, Constant(0.5), 40, 2),  # some runs extinct by t = 2, some not
    "extinct_at_1": (4, Table({(k, 4): 1.0 for k in range(1, 5)}), 3, None),
    "run_ids_past_100": (3, Constant(0.5), 120, None),
    "eight_digit_states": (10**7, Constant(0.9), 12, None),
    "single_run": (10, Constant(0.02), 1, None),
}


@pytest.mark.parametrize("case", TRAJECTORY_SETS)
@pytest.mark.parametrize("piece_rows", [1, 7, cli._PIECE_ROWS])
def test_trajectories_csv_is_what_csv_writer_writes(case, piece_rows, tmp_path, monkeypatch):
    n, regime, runs, t_max = TRAJECTORY_SETS[case]
    root = make_stream(11, 0)
    batch = simulate_trajectory(n, regime, root, t_max, runs=runs)
    # the reference: csv.writer over the (run_id, t, state) rows of each run
    # drawn alone, by trajectory_fill on its own substream
    cs, buf = prepare(regime, n), np.empty(batch.t_max + 1, dtype=np.int64)
    with (tmp_path / "reference.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "t", "state"])
        for run_id in range(runs):
            time = int(kernels.trajectory_fill(root.substream(run_id).generator, buf, cs, n, batch.t_max))
            states = buf[: time + 1] if time >= 0 else buf
            writer.writerows((run_id, t, s) for t, s in enumerate(states.tolist()))
    monkeypatch.setattr(cli, "_PIECE_ROWS", piece_rows)
    cli._write_trajectories(tmp_path / "bulk.csv", batch)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_simulate_rejects_bad_regime(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--regime", "constant:1.5", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "constant" in result.output


def test_simulate_rejects_zero_population(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--n", "0", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "population" in result.output


def test_config_file_roundtrip(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"n": 4, "regime": {"type": "constant", "c": 0.5}, "samples": 2, "seed": 3,
             "out": str(tmp_path / "run")}
        )
    )
    result = invoke(runner, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["runs"]) == 2
    # explicit flags override the config
    result = invoke(runner, ["simulate", "--config", str(cfg), "--samples", "5"])
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["runs"]) == 5


def test_config_rejects_unknown_field(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "mystery_knob": 1}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "mystery_knob" in result.output


def test_config_rejects_regime_with_unknown_field(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regime": {"type": "constant", "c": 0.3, "bogus": 1}}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "bogus" in result.output


@pytest.fixture()
def no_streams(monkeypatch):
    # a stream is made before the first draw; none may be made here
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was made")

    monkeypatch.setattr(cli, "make_stream", refuse)
    monkeypatch.setattr(experiments, "make_stream", refuse)


@pytest.mark.parametrize(
    "args, says",
    [
        (["implode", "--k-max", "10", "--runs", "0"], "--runs"),
        (["simulate", "--n", "10", "--samples", "-1"], "--samples"),
        (["verify", "--samples", "1"], "--samples"),
        (["verify", "--workers", "0"], "--workers"),
        (["path", "--n", "3", "--workers", "0"], "--workers"),
        (["extinct", "--t-grid", "5:0"], "--t-grid"),
        (["extinct", "--t-grid=-1,5"], "--t-grid"),
        (["extinct", "--t-grid=-1:5"], "--t-grid"),
        (["path", "--n", "3", "--regime", "joint_power:1,4", "--sweep", "0,10"], "--sweep"),
        (["implode", "--k-max", "10", "--runs", "100", "--sweep", "0,10"], "--sweep"),
        (["passage", "--k", "3", "--limit-n", "100"], "no scaling limit"),
        (["passage", "--k", "3", "--regime", "initial_power:1,1", "--limit-n", "100"], "lam > 0"),
        (["passage", "--k", "5", "--regime", "initial_power:1,1", "--lam", "1", "--limit-n", "3"],
         "k <= limit_n"),
        (["extinct", "--ratio-n", "1"], "--ratio-n must be 0 or an integer >= 2, got 1"),
        (["extinct", "--ratio-c", "1.5"], "--ratio-c must lie in (0,1), got 1.5"),
    ],
    ids=["implode_runs_0", "simulate_samples_negative", "verify_samples_1", "verify_workers_0",
         "path_workers_0", "extinct_empty_t_grid", "extinct_negative_t_grid",
         "extinct_negative_t_range", "path_sweep_0", "implode_sweep_0",
         "passage_limit_without_scaling", "passage_limit_without_lam", "passage_limit_below_k",
         "extinct_ratio_n_1", "extinct_ratio_c_above_1"],
)
def test_out_of_range_parameter_exits_2_before_any_stream(runner, no_streams, args, says):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert says in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--n", "0"],
        ["extinct", "--ratio-c", "1.5"],
        ["extinct", "--regime", "state_power:0.5,1"],
        ["path", "--sweep", "10,100"],
        ["passage", "--k", "3", "--limit-n", "100"],
        ["implode", "--alpha", "-1"],
        ["verify", "--samples", "1"],
    ],
    ids=["simulate", "extinct_ratio_c", "extinct_regime", "path", "passage", "implode", "verify"],
)
def test_rejected_command_makes_no_out_directory(runner, no_streams, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(main, args + ["--out", str(out / "verify.json" if args[0] == "verify" else out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()


# regime JSON of the wrong type, each at a run from n = 2, and what the error names
MALFORMED_REGIMES = {
    "table_p_string": ({"type": "table", "values": [[1, 2, "abc"], [2, 2, 0.5]]}, "[1, 2, 'abc']"),
    "table_p_null": ({"type": "table", "values": [[1, 2, None], [2, 2, 0.5]]}, "[1, 2, None]"),
    "table_p_list": ({"type": "table", "values": [[1, 2, [0.5]], [2, 2, 0.5]]}, "[1, 2, [0.5]]"),
    "table_p_numeric_string": ({"type": "table", "values": [[1, 2, "0.5"], [2, 2, 0.5]]}, "[1, 2, '0.5']"),
    "table_state_bool": ({"type": "table", "values": [[True, 2, 0.5], [2, 2, 0.5]]}, "[True, 2, 0.5]"),
    "table_repeated_state": (
        {"type": "table", "values": [[1, 2, 0.5], [1, 2, 0.25], [2, 2, 0.5]]}, "[1, 2, 0.25] repeats"
    ),
    "family_field_bool": ({"type": "initial_power", "a": True, "gamma": 1}, "'a'"),
}


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("case", sorted(MALFORMED_REGIMES))
def test_malformed_regime_json_exits_2_before_any_stream(runner, no_streams, tmp_path, case, via_config):
    regime, says = MALFORMED_REGIMES[case]
    args = ["path", "--n", "2", "--samples", "100"]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime": regime}))
        args += ["--config", str(cfg)]
    else:
        args += ["--regime", json.dumps(regime)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert says in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, config, flag",
    [
        ("extinct", {"t_grid": ["a", 3]}, "--t-grid"),
        ("extinct", {"t_grid": [1.5, 3]}, "--t-grid"),
        ("extinct", {"t_grid": [True, 3]}, "--t-grid"),
        ("implode", {"sweep": [10.7, 100]}, "--sweep"),
    ],
    ids=["t_grid_string", "t_grid_float", "t_grid_bool", "sweep_float"],
)
def test_config_list_entries_fail_like_the_flag(runner, no_streams, tmp_path, command, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{flag} must be a list of integers" in result.output
    assert "Traceback" not in result.output


def test_config_value_out_of_range_fails_like_the_flag(runner, no_streams, tmp_path):
    cfg = tmp_path / "cfg.json"
    for bad in (0, 2.5, "9"):
        cfg.write_text(json.dumps({"k_max": 10, "runs": bad}))
        result = runner.invoke(main, ["implode", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"--runs must be an integer >= 2, got {bad!r}" in result.output


def test_extinct_small_run(runner, tmp_path):
    result = invoke(
        runner,
        ["extinct", "--n", "5", "--regime", "constant:0.3", "--t-grid", "0:25",
         "--samples", "4000", "--ratio-n", "1000", "--ratio-samples", "2000",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "extinct_cdf.csv").read_text().splitlines()
    assert lines[0] == "t,closed_form,oracle,monte_carlo"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert float(first[3]) == 0.0
    assert (tmp_path / "state_distribution.csv").exists()
    report = json.loads((tmp_path / "extinct_report.json").read_text())
    assert report["pass"] is True


def test_extinct_rejects_state_dependent_regime(runner):
    result = runner.invoke(
        main, ["extinct", "--regime", "joint_power:1,4", "--samples", "100"]
    )
    assert result.exit_code == 2


def test_path_all_columns_one_at_n1(runner, tmp_path):
    result = invoke(
        runner,
        ["path", "--n", "1", "--regime", "constant:0.3", "--samples", "2000",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0
    report = json.loads((tmp_path / "path_report.json").read_text())
    assert report["pass"] is True
    prob_rows = [row for row in report["rows"] if row["label"].startswith("P(")]
    assert prob_rows, "expected probability rows"
    for row in prob_rows:
        assert row["closed_form"] == 1.0
        if row["oracle"] is not None:
            assert row["oracle"] == 1.0
        if row["monte_carlo"] is not None:
            assert row["monte_carlo"]["estimate"] == 1.0


def test_path_joint_regime_at_n1_corner(runner):
    # c_{1,1} = 1 for the whole joint-power family; still a valid run
    result = invoke(runner, ["path", "--n", "1", "--regime", "joint_power:1,4", "--samples", "1000"])
    assert result.exit_code == 0, result.output


def test_path_joint_sweep_outputs(runner, tmp_path):
    result = invoke(
        runner,
        ["path", "--n", "4", "--regime", "joint_power:1,4", "--samples", "3000",
         "--sweep", "10,100,1000", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    sweep = (tmp_path / "path_bound_sweep.csv").read_text().splitlines()
    assert sweep[0] == "n,lower_bound"
    values = [float(line.split(",")[1]) for line in sweep[1:]]
    assert values == sorted(values)


def test_path_sweep_requires_joint_regime(runner):
    result = runner.invoke(
        main, ["path", "--n", "3", "--regime", "constant:0.3", "--sweep", "10,100", "--samples", "100"]
    )
    assert result.exit_code == 2


def test_passage_report(runner, tmp_path):
    result = invoke(
        runner,
        ["passage", "--k", "2", "--regime", "constant:0.5", "--samples", "5000",
         "--j-max", "4", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "passage_report.json").read_text())
    assert report["pass"] is True
    labels = [row["label"] for row in report["rows"]]
    assert any("MGF" in label for label in labels)


def test_passage_with_scaling_limit(runner, tmp_path):
    result = invoke(
        runner,
        ["passage", "--k", "2", "--regime", "joint_power:1,3", "--n", "100",
         "--samples", "2000", "--limit-n", "100", "--limit-samples", "4000",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "scaled_passage_times.csv").exists()


def test_implode_outputs(runner, tmp_path):
    result = invoke(
        runner,
        ["implode", "--alpha", "1", "--k-max", "300", "--runs", "4000",
         "--sweep", "10,50", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    hist = (tmp_path / "implode_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert sum(int(line.split(",")[2]) for line in hist[1:]) == 4000
    sweep = (tmp_path / "implode_sweep.csv").read_text().splitlines()
    assert sweep[0] == "K,runs,mean,stderr,partial_sum,tail_bound"


def test_verify_passes_and_is_deterministic(runner, tmp_path):
    args = ["verify", "--samples", "4000", "--out"]
    r1 = invoke(runner, args + [str(tmp_path / "v1.json")])
    r2 = invoke(runner, args + [str(tmp_path / "v2.json")])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert (tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes()


def test_verify_worker_invariance(runner, tmp_path):
    for workers, name in ((1, "w1.json"), (4, "w4.json")):
        result = invoke(
            runner,
            ["verify", "--samples", "4000", "--workers", str(workers),
             "--out", str(tmp_path / name)],
        )
        assert result.exit_code == 0
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w4.json").read_bytes()


def test_verify_fails_at_impossible_tolerance(runner):
    result = runner.invoke(main, ["verify", "--samples", "4000", "--tolerance", "1e-30"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_seed_change_still_passes(runner):
    result = invoke(runner, ["verify", "--samples", "4000", "--seed", "777"])
    assert result.exit_code == 0, result.output


def test_cli_import_does_not_load_scipy():
    # scipy is a test dependency only: the CLI and the warmed kernels must run without it
    src = str(Path(deathlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, deathlab.cli\n"
        "from deathlab import kernels\n"
        "kernels.warmup()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


class _Drew(Exception):
    """Raised in place of the first draw."""


def _refuse_to_draw(*args, **kwargs):
    raise _Drew()


_ints = st.integers(min_value=-3, max_value=40)
_values = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    _ints,
    st.floats(min_value=-5, max_value=50, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.one_of(_ints, st.floats(min_value=-5, max_value=50), st.booleans(), st.text(max_size=2)),
             max_size=3),
)
_COMMANDS = {
    "extinct": (None, ["n", "samples", "t_grid", "ratio_n", "ratio_c", "ratio_samples", "tolerance"]),
    "path": ("joint_power:1,4", ["n", "samples", "sweep", "tolerance"]),
    "passage": (None, ["k", "n", "samples", "j_max", "limit_n", "limit_samples", "lam", "tolerance"]),
    "implode": (None, ["alpha", "k_max", "runs", "sweep"]),
    "simulate": ("joint_power:1,4", ["n", "samples", "t_max"]),
    "verify": (None, ["samples", "tolerance"]),
}
_cases = st.one_of(
    [
        st.tuples(
            st.just(command),
            st.fixed_dictionaries({}, optional={name: _values for name in names}),
            st.booleans(),
        )
        for command, (_, names) in _COMMANDS.items()
    ]
)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats_in_domain(values, via_config) -> bool:
    """Whether the float flags among ``values``, as the command sees them,
    are ones the mathematics takes: each finite, a tolerance >= 0, and a
    ratio mortality in (0, 1) unless the ratio experiment is off
    (ratio_n = 0)."""

    def seen(key, parse, default):
        if key not in values or via_config:
            return values.get(key, default)
        try:
            return parse(_flag_text(values[key]))  # as click parses the flag
        except ValueError:
            return None

    tolerance = seen("tolerance", float, 0.0)
    ratio_c = seen("ratio_c", float, 0.5)
    floats = [tolerance, ratio_c, seen("alpha", float, 1.0), seen("lam", float, 1.0)]
    return (
        all(_number(v) and math.isfinite(v) for v in floats)
        and tolerance >= 0
        and (0 < ratio_c < 1 or seen("ratio_n", int, None) == 0)
    )


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


@settings(max_examples=40, deadline=None)
@example(case=("extinct", {"t_grid": ["a", 3]}, True))
@example(case=("extinct", {"t_grid": [1.5, 3]}, True))
@example(case=("extinct", {"t_grid": [True, 3]}, True))
@example(case=("implode", {"sweep": [10.7, 100]}, True))
@example(case=("extinct", {"tolerance": -1}, False))
@example(case=("extinct", {"ratio_c": 1.5}, False))
@example(case=("extinct", {"ratio_c": 1.5, "ratio_n": 0}, True))
@example(case=("extinct", {"ratio_c": 1.5}, True))
@example(case=("extinct", {"ratio_n": 1}, False))
@example(case=("extinct", {"ratio_n": 1}, True))
@example(case=("simulate", {"n": [1, 2]}, True))
@example(case=("verify", {"samples": 2, "tolerance": math.inf}, False))
@example(case=("passage", {"k": 3, "regime": "initial_power:1,1", "lam": math.nan, "limit_n": 100, "samples": 10}, False))
@example(case=("implode", {"alpha": math.nan}, False))
@example(case=("implode", {"alpha": math.inf}, True))
@example(case=("extinct", {"ratio_c": math.nan, "ratio_n": 0}, True))
@given(case=_cases)
def test_generated_arguments_reach_a_draw_or_exit_2(tmp_path_factory, case):
    command, values, via_config = case
    regime, _ = _COMMANDS[command]
    if regime:
        values = {**values, "regime": regime}
    if command == "simulate":
        values = {**values, "out": str(tmp_path_factory.mktemp("out"))}
    if via_config:
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = [command, "--config", str(cfg)]
    else:
        args = [command] + [f"--{k.replace('_', '-')}={_flag_text(v)}" for k, v in values.items()]
    with pytest.MonkeyPatch.context() as mp:
        for name in dir(kernels):
            if name.endswith("_batch") or name in ("binomial_draw", "trajectory_fill"):
                mp.setattr(kernels, name, _refuse_to_draw)
        mp.setattr(limits, "implosion_batch", _refuse_to_draw)
        mp.setattr(experiments, "implosion_batch", _refuse_to_draw)
        result = CliRunner().invoke(main, args)
    event(f"{command}: {'drew' if isinstance(result.exception, _Drew) else result.exit_code}")
    if isinstance(result.exception, _Drew):
        assert _floats_in_domain(values, via_config), args
        return
    if result.exit_code == 0:
        # the one run that needs no draw: no level to pass from n = 0
        assert command == "path" and "n=0)" in result.output, args
        return
    assert result.exit_code == 2, (args, result.output, result.exception)
    assert isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output
