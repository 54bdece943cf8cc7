"""Every benchmark workload's outputs pass the benchmark's own checks.

``perfbench/workloads.py`` names the CLI invocations of each workload and
checks what they write against closed forms recomputed independently.
A change that re-draws a report could pass this package's tests and still
fail those checks; this test runs each workload's invocations at a few
seeds through ``deathlab.cli.main``, at one worker, and asks the checks.
It imports perfbench read-only, as ``test_bench_names.py`` does.
"""

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from deathlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        yield workloads
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["verify", "low-mortality", "implode"])
def test_every_op_passes_the_benchmark_checks(workloads, tmp_path, name, seed):
    runner = CliRunner()
    dirs = {}
    for op in workloads.ops(name, seed):
        out = tmp_path / op.name
        out.mkdir()
        argv = list(op.argv) + (["--workers", "1"] if op.parallel else [])
        argv += ["--out", str(out / op.out_file if op.out_file else out)]
        result = runner.invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == 0, (op.name, result.output[-2000:])
        # simulate's summary holds no verdict
        assert json.loads((out / op.report).read_text(encoding="utf-8")).get("pass") is not False, op.name
        assert op.check(out) == [], op.name
        dirs[op.name] = out
    assert workloads.cross_check(name, dirs) == []
