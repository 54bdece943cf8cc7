import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import deathlab
from deathlab import cli, experiments, kernels, limits, process
from deathlab.cli import main
from deathlab.process import simulate_trajectory
from deathlab.regimes import Constant, Table
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
    "many_short_runs": (50, Constant(0.9), 2000, None),
    "one_long_run": (1000, Constant(0.001), 1, None),  # about 7,500 steps on average
    # every run censored at n: each boundary joins equal states
    "equal_states_across_runs": (30, Constant(1e-6), 5, 3),
}


@pytest.mark.parametrize("case", TRAJECTORY_SETS)
@pytest.mark.parametrize("piece_rows", [1, 7, cli._PIECE_ROWS])
def test_trajectories_csv_is_what_csv_writer_writes(case, piece_rows, tmp_path, monkeypatch):
    n, regime, runs, t_max = TRAJECTORY_SETS[case]
    root = make_stream(11, 0)
    batch = simulate_trajectory(n, regime, root, t_max, runs=runs)
    # the reference: csv.writer over the (run_id, t, state) rows of each
    # run's path, cut from the batch by its lengths
    paths = np.split(batch.states, np.cumsum(batch.lengths)[:-1])
    with (tmp_path / "reference.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "t", "state"])
        for run_id, states in enumerate(paths):
            writer.writerows((run_id, t, s) for t, s in enumerate(states.tolist()))
    monkeypatch.setattr(cli, "_PIECE_ROWS", piece_rows)
    cli._write_trajectories(tmp_path / "bulk.csv", batch)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_equal_states_meet_across_a_run_boundary():
    n, regime, runs, t_max = TRAJECTORY_SETS["equal_states_across_runs"]
    batch = simulate_trajectory(n, regime, make_stream(11, 0), t_max, runs=runs)
    starts = np.cumsum(batch.lengths)[:-1]
    assert np.all(batch.states[starts - 1] == n) and np.all(batch.states[starts] == n)


@pytest.mark.parametrize("case", TRAJECTORY_SETS)
def test_summary_json_is_what_json_dumps_writes(case):
    n, regime, runs, t_max = TRAJECTORY_SETS[case]
    batch = simulate_trajectory(n, regime, make_stream(11, 0), t_max, runs=runs)
    meta = experiments.report_meta("simulate", {"n": n, "regime": "r", "samples": runs, "t_max": t_max}, 11)
    summary = {
        "meta": meta,
        "runs": [
            {
                "run_id": run_id,
                "extinction_time": None if time < 0 else time,
                "censored": time < 0,
                "steps_recorded": length - 1,
            }
            for run_id, (time, length) in enumerate(zip(batch.extinction_times.tolist(), batch.lengths.tolist()))
        ],
    }
    assert cli._summary_json(meta, batch) == json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_trajectories_csv_is_written_in_memory_of_one_piece(tmp_path):
    # about 10^6 rows; the earlier writer, a table of Python strings per
    # piece, peaked at 2.72 MB on this batch
    batch = simulate_trajectory(10, Constant(0.02), make_stream(11, 0), runs=6500)
    assert batch.states.size > 900_000
    tracemalloc.start()
    try:
        cli._write_trajectories(tmp_path / "trajectories.csv", batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_720_000, peak


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


def test_simulate_prepares_the_mortality_array_once(runner, tmp_path, monkeypatch):
    calls = []
    prepare = process.prepare
    monkeypatch.setattr(process, "prepare", lambda *args: calls.append(args) or prepare(*args))
    result = invoke(runner, ["simulate", "--n", "50", "--regime", "state_power:0.5,0.5", "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert len(calls) == 1


def test_simulate_reports_a_refused_regime_before_a_refused_seed(runner, tmp_path):
    args = ["simulate", "--n", "5", "--seed", str(2**64), "--out", str(tmp_path / "out")]
    result = runner.invoke(main, args + ["--regime", "constant:5e-324"])
    assert result.exit_code == 2 and "lies below 8e-18" in result.output
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and "seed must be an integer" in result.output
    assert not (tmp_path / "out").exists()


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


def test_simulate_records_the_population_as_an_integer(runner, tmp_path):
    # a config's 5.0 and the flag's 5 are one population: same draws, same meta
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5.0}))
    for args, out in ((["--config", str(cfg)], "a"), (["--n", "5"], "b")):
        assert invoke(runner, ["simulate", *args, "--out", str(tmp_path / out)]).exit_code == 0
    for name in ("summary.json", "trajectories.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert type(json.loads((tmp_path / "a" / "summary.json").read_text())["meta"]["config"]["n"]) is int


@pytest.mark.parametrize(
    "flags, drawn",
    [(["--samples", "100000"], 100000), ([], 50)],
    ids=["typed_flag_at_its_default_beats_the_config", "config_fills_an_absent_flag"],
)
def test_config_fills_only_the_flags_not_typed(runner, tmp_path, monkeypatch, flags, drawn):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50}))
    seen = []

    def build(n, regime, samples, seed, **kwargs):
        seen.append(samples)
        raise _Drew()

    monkeypatch.setattr(cli, "build_path_report", build)
    result = runner.invoke(main, ["path", "--config", str(cfg), *flags])
    assert isinstance(result.exception, _Drew), result.output
    assert seen == [drawn]


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


# a Table regime from n = 6 with certain death at state 3
CERTAIN_AT_3 = {"type": "table", "values": [[k, 6, 1.0 if k == 3 else 0.2] for k in range(1, 7)]}


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
        (["path", "--n", "3", "--regime", "joint_power:1,4", "--samples", "1000", "--sweep", "100,10"],
         "--sweep: sweep levels must be strictly increasing"),
        (["path", "--n", "3", "--regime", "joint_power:1,4", "--samples", "1000", "--sweep", "10,10"],
         "--sweep: sweep levels must be strictly increasing"),
        (["path", "--n", "3", "--regime", "joint_power:1,4", "--samples", "1000", "--sweep", "10,1" + "0" * 160],
         "n(n-1)/2 overflows a double"),
        (["implode", "--k-max", "10", "--runs", "100", "--sweep", "0,10"], "--sweep"),
        (["implode", "--k-max", "1000", "--runs", "100", "--sweep", "100,10"], "--sweep"),
        (["implode", "--k-max", "1000", "--runs", "100", "--sweep", "10,10"], "--sweep"),
        (["implode", "--k-max", "30", "--runs", "100", "--sweep", "10,100"], "--sweep"),
        (["passage", "--k", "3", "--limit-n", "100"], "no scaling limit"),
        (["passage", "--k", "3", "--regime", "initial_power:1,1", "--limit-n", "100"], "lam > 0"),
        # certain death at the limit level: no passage is finite there
        (["passage", "--k", "2", "--n", "10", "--regime", "joint_power:1,1", "--limit-n", "2", "--samples", "2000"],
         "c must lie in (0,1), got 1.0"),
        (["passage", "--k", "5", "--regime", "initial_power:1,1", "--lam", "1", "--limit-n", "3"],
         "k <= limit_n"),
        # 10 runs at a finite-passage chance of 0.0032: too few to test
        (["passage", "--k", "5", "--n", "10", "--regime", "joint_power:1,1", "--limit-n", "6",
          "--limit-samples", "10"], "expects 0.032 finite passages"),
        (["extinct", "--ratio-n", "1"], "--ratio-n must be 0 or an integer >= 2, got 1"),
        (["extinct", "--ratio-c", "1.5"], "--ratio-c must lie in (0,1), got 1.5"),
        # certain death where a closed form or oracle needs c < 1
        (["passage", "--k", "1", "--n", "1", "--regime", "joint_power:1,1"],
         "passage law needs c in (0,1), got 1.0"),
        (["passage", "--k", "40", "--n", "40", "--regime", "joint_power:1,1"], "c must lie in (0,1), got 1.0"),
        # scaling limits beyond the largest double
        (["passage", "--k", "2", "--regime", "joint_power:1,100", "--limit-n", "10000000"],
         "n^beta overflows a double"),
        (["passage", "--k", "10", "--regime", "joint_power:400,400", "--limit-n", "10"],
         "k^(alpha+1) overflows a double"),
        (["passage", "--k", "3", "--regime", "initial_power:0.1,1", "--lam", "1e300",
          "--limit-n", "1000000000"],
         "lam/c overflows a double"),
        (["passage", "--k", "3", "--regime", "initial_power:1,1", "--lam", "1e308", "--limit-n", "10"],
         "k*lam overflows a double"),
        # holds that would reach the kernels' cap, and a horizon past int64
        (["simulate", "--regime", "constant:5e-324", "--n", "5"], "lies below 8e-18"),
        # an automatic horizon of 2.2e10 steps, too long to record
        (["simulate", "--regime", "constant:1e-9", "--n", "5"], "recording 22332703739 steps"),
        (["extinct", "--regime", "constant:5e-324", "--ratio-n", "0", "--n", "5", "--t-grid", "0:5"],
         "lies below 8e-18"),
        (["passage", "--k", "2", "--regime", "joint_power:1,6", "--limit-n", "100000", "--samples", "2000"],
         "lies below 8e-18"),
        # an exact mean of tau that would sum 5.8e10 terms
        (["extinct", "--ratio-c", "1e-9", "--ratio-samples", "100", "--samples", "100", "--n", "5",
          "--t-grid", "0:3"], "the cap is 100000000"),
    ],
    ids=["implode_runs_0", "simulate_samples_negative", "verify_samples_1", "verify_workers_0",
         "path_workers_0", "extinct_empty_t_grid", "extinct_negative_t_grid",
         "extinct_negative_t_range", "path_sweep_0", "path_sweep_falling", "path_sweep_repeated",
         "path_sweep_bound_overflow", "implode_sweep_0",
         "implode_sweep_falling", "implode_sweep_repeated", "implode_sweep_above_k_max",
         "passage_limit_without_scaling", "passage_limit_without_lam", "passage_limit_certain_death",
         "passage_limit_below_k", "passage_limit_too_few_finite",
         "extinct_ratio_n_1", "extinct_ratio_c_above_1", "passage_certain_death_oracle",
         "passage_certain_death_closed_form",
         "passage_scaling_constant_overflow", "passage_limit_rate_overflow",
         "passage_initial_power_scaling_overflow", "passage_initial_power_rate_overflow",
         "simulate_capped_holds", "simulate_recording_too_long", "extinct_capped_holds",
         "passage_limit_capped_holds",
         "extinct_ratio_mean_too_long"],
)
def test_out_of_range_parameter_exits_2_before_any_stream(runner, no_streams, args, says):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert says in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "n, regime, level",
    [(6, json.dumps(CERTAIN_AT_3), 3), (2, "joint_power:1,1", 2)],
    ids=["table_certain_death_at_3", "joint_power_certain_death_at_top"],
)
def test_path_accepts_certain_death_above_one(runner, tmp_path, n, regime, level):
    # c_k = 1 at k >= 2 kills all k at once: the level's single drop and the
    # all-single path have probability 0, in the closed form, the oracle and
    # the draws alike
    result = invoke(runner, ["path", "--n", str(n), "--regime", regime, "--samples", "500",
                             "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rows = {r["label"].split(" [")[0]: r for r in json.loads((tmp_path / "path_report.json").read_text())["rows"]}
    for label in (f"P(single drop from k={level})", f"P(all drops single, n={n})"):
        row = rows[label]
        assert row["closed_form"] == row["oracle"] == row["monte_carlo"]["estimate"] == 0.0
        assert row["pass"]


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


@pytest.mark.parametrize(
    "args, out, says",
    [
        (["verify", "--samples", "2000"], "", ". is a directory, not a file"),
        (["verify"], "dir", "dir is a directory, not a file"),
        (["path", "--n", "3", "--samples", "100"], "file", "file is not a directory"),
        (["simulate", "--n", "3"], "file", "file is not a directory"),
        (["extinct"], os.path.join("file", "sub"), "file is not a directory"),
        # a directory at the place of a side table
        (["extinct", "--samples", "2000", "--ratio-n", "0"], "tables",
         os.path.join("tables", "extinct_cdf.csv") + " is a directory, not a file"),
        (["path", "--n", "3", "--samples", "100"], "tables",
         os.path.join("tables", "path_bound_sweep.csv") + " is a directory, not a file"),
        (["passage"], "tables", os.path.join("tables", "scaled_passage_times.csv") + " is a directory, not a file"),
        (["implode", "--k-max", "100", "--runs", "100"], "tables",
         os.path.join("tables", "implode_hist.csv") + " is a directory, not a file"),
    ],
    ids=["verify_empty", "verify_directory", "path_file", "simulate_file", "extinct_below_file",
         "extinct_table_directory", "path_table_directory", "passage_table_directory",
         "implode_table_directory"],
)
def test_unwritable_out_exits_2_before_any_stream(runner, no_streams, tmp_path, monkeypatch, args, out, says):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    tables = ["extinct_cdf.csv", "implode_hist.csv", "path_bound_sweep.csv", "scaled_passage_times.csv"]
    for name in tables:
        (tmp_path / "tables" / name).mkdir(parents=True)
    result = runner.invoke(main, args + ["--out", out])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"--out: {says}" in result.output
    assert "Traceback" not in result.output
    assert sorted(os.listdir(tmp_path)) == ["dir", "file", "tables"] and not os.listdir(tmp_path / "dir")
    assert sorted(os.listdir(tmp_path / "tables")) == tables
    assert not any(os.listdir(tmp_path / "tables" / name) for name in tables)


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


def test_config_sweep_out_of_order_or_above_k_max_fails_like_the_flag(runner, no_streams, tmp_path):
    cfg = tmp_path / "cfg.json"
    for config, says in (
        ({"k_max": 1000, "sweep": [100, 10]}, "--sweep: sweep levels must be strictly increasing"),
        ({"k_max": 30, "sweep": [10, 100]}, "--sweep: sweep levels must lie in [1, K=30]"),
    ):
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["implode", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert says in result.output


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
    for regime in ("joint_power:1,4", "joint_power:1,1"):
        result = invoke(runner, ["path", "--n", "1", "--regime", regime, "--samples", "1000"])
        assert result.exit_code == 0, (regime, result.output)


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
    # the sweep is read off the main runs
    assert [line.split(",")[:2] for line in sweep[1:]] == [["10", "4000"], ["50", "4000"]]


def test_implode_default_sweep_is_the_powers_of_ten_up_to_k_max(runner, tmp_path):
    result = invoke(runner, ["implode", "--k-max", "999", "--runs", "200", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    sweep = (tmp_path / "implode_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in sweep[1:]] == ["10", "100"]
    result = invoke(runner, ["implode", "--k-max", "9", "--runs", "200"])
    assert result.exit_code == 0, result.output
    assert "truncation sweep" not in result.output


@pytest.mark.parametrize(
    "alpha, k_max, sweep",
    [("20", "30", "10,20"), ("5", "20000", "10000,20000")],
    ids=["stalled_partial_sums", "dipping_partial_sums"],
)
def test_implode_sweep_passes_when_partial_sums_stop_rising(runner, alpha, k_max, sweep):
    # in floats the partial sums stall once terms fall below half an ulp,
    # and pairwise rounding makes them dip by one ulp: neither is a failure
    result = invoke(runner, ["implode", "--alpha", alpha, "--k-max", k_max, "--runs", "1000", "--sweep", sweep])
    assert result.exit_code == 0, result.output


@pytest.mark.filterwarnings("error")
def test_implode_with_overflowing_stage_rates_is_silent(runner):
    # 30^2001 overflows: an infinite rate is a stage of zero duration
    result = invoke(runner, ["implode", "--alpha", "2000", "--k-max", "30", "--runs", "1000"])
    assert result.exit_code == 0, result.output


@pytest.mark.filterwarnings("error")
def test_implode_accepts_the_largest_alpha(runner, tmp_path):
    # 2 alpha + 2 overflows a double: only k = 1 adds to the variance (1)
    # and to the fourth cumulant (6), and the half-width is 4 sqrt(6/4 + 2/3)
    args = ["implode", "--alpha", "1e308", "--k-max", "10", "--runs", "4", "--out", str(tmp_path)]
    result = invoke(runner, args)
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "implode_report.json").read_text())["rows"]
    variance = next(r for r in rows if r["label"].startswith("variance"))
    assert variance["closed_form"] == 1.0
    assert variance["monte_carlo"]["half_width"] == pytest.approx(4 * math.sqrt(6 / 4 + 2 / 3), rel=1e-15)


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


@pytest.mark.parametrize(
    "args",
    [
        ["path", "--n", "5", "--samples", "20000"],
        ["passage", "--k", "2", "--regime", "joint_power:1,3", "--n", "1000", "--limit-n", "1000",
         "--samples", "20000"],
        ["implode", "--k-max", "100", "--runs", "40000"],
        ["extinct", "--samples", "20000", "--ratio-samples", "100", "--t-grid", "0:30"],
    ],
    ids=["path", "passage_limit", "implode", "extinct"],
)
def test_report_files_do_not_depend_on_workers(runner, tmp_path, args):
    # each batch spans more than one chunk of 16384, so two workers share it
    files = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        result = invoke(runner, args + ["--workers", str(workers), "--out", str(out)])
        assert result.exit_code == 0, result.output
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert files[0] == files[1]


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
