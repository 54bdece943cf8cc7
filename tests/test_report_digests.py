"""Byte-level regression table of every report command.

Six commands run in-process at small sizes and seed 0, at ``--workers``
1 and again at 2 where the command takes the flag.  The test compares
the sha256 of each report's ``rows`` (``meta`` names the numpy version and
the kernel backend, so it is left out), of ``simulate``'s ``runs``, and of
every side table, with the table below, taken from the code before the
input rules were stated once.  A change that re-draws on purpose updates
the table in the same commit and says so in CHANGES.md; print the new
table with ``python tests/test_report_digests.py`` (``src`` on the path).
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from deathlab.cli import main

COMMANDS = {
    "extinct": ["--n", "10", "--samples", "2000", "--t-grid", "0:20", "--ratio-n", "1000",
                "--ratio-samples", "500"],
    "path": ["--n", "5", "--regime", "joint_power:1,4", "--samples", "2000", "--sweep", "10,100,1000"],
    "passage": ["--k", "3", "--regime", "initial_power:1,1", "--lam", "1", "--samples", "2000",
                "--limit-n", "100", "--limit-samples", "2000"],
    "implode": ["--k-max", "100", "--runs", "2000"],
    "simulate": ["--n", "10", "--regime", "constant:0.3", "--samples", "20"],
    "verify": ["--samples", "2000"],
}

EXPECTED = {
    "extinct/extinct_cdf.csv": "c3c9af268c446f1b1d704fdbedac0bbdf80b2221481d2ff33dfa617ce5974943",
    "extinct/extinct_report.json": "7c36dd5b5bc73b1b3250095f1cb3cdecbc5e2815a1c4670874451566875445d3",
    "extinct/state_distribution.csv": "87fd2b806b8b82551386135433a9dde721a8a0d91a5a9bd69519b192182891a0",
    "extinct:exit": "0",
    "implode/implode_hist.csv": "16564113c269eb0e4c39cad7ef57113d055456fe8b5d2de8963804a0295722a1",
    "implode/implode_report.json": "b2c227feac324fd43bdc95b2b7f259136063bc47cbd1e6a0326d2c486a782b5b",
    "implode/implode_sweep.csv": "f271e39742b9e8db6b4a065e9c0340d0bed8969cf3ba71237c162bceed2cd8ff",
    "implode:exit": "0",
    "passage/passage_report.json": "0670151129f5090fe62dc417293aeb2513ff15f8c14b391217a489601ffd9404",
    "passage/scaled_passage_times.csv": "b86591f8697b2ef4e357dc5f2e7fb93de8e3a54d4acbd325bc3852bf62a40180",
    "passage:exit": "0",
    "path/path_bound_sweep.csv": "16c52aa336af33db3a5c2f490951e59b640d01e13587eb45a1d469c7dc702592",
    "path/path_report.json": "232f8a93c16b4e513a81f5678243449288025d0937c7b3337d89bdca02e94083",
    "path:exit": "0",
    "simulate/summary.json": "ce9541ffe5f1d08be6f7914444a32fbb758e64887c4a28d4be72a0a1f1e98647",
    "simulate/trajectories.csv": "489268c6fa74ec084ba450e2c37cf4fa9a5d0ed1bfa0d04a290ceb44b292991e",
    "simulate:exit": "0",
    "verify/verify.json": "f5eb9af29503054348f148acd387705e1cf3e7e00fe234399c2be479c19c10dc",
    "verify:exit": "0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path, workers: int = 1) -> dict[str, str]:
    """``command:exit`` -> exit code, and ``command/file`` -> the sha256 of
    its rows (a report), its runs (``summary.json``) or its bytes; each
    command that takes ``--workers`` runs with ``workers``."""
    out = {}
    for command, args in COMMANDS.items():
        where = root / command
        target = ["--out", str(where / "verify.json")] if command == "verify" else ["--out", str(where)]
        if any(param.name == "workers" for param in main.commands[command].params):
            target += ["--workers", str(workers)]
        result = CliRunner().invoke(main, [command, *args, "--seed", "0", *target])
        assert result.exit_code in (0, 1), result.output
        out[f"{command}:exit"] = str(result.exit_code)
        for path in sorted(where.iterdir()):
            if path.suffix == ".json":
                data = json.loads(path.read_text(encoding="utf-8"))
                body = data["runs"] if path.name == "summary.json" else data["rows"]
                out[f"{command}/{path.name}"] = _sha(json.dumps(body, sort_keys=True).encode())
            else:
                out[f"{command}/{path.name}"] = _sha(path.read_bytes())
    return out


def test_every_report_keeps_its_bytes(tmp_path):
    assert digests(tmp_path) == EXPECTED


def test_two_workers_write_the_same_bytes(tmp_path):
    assert digests(tmp_path, workers=2) == EXPECTED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=4, sort_keys=True)
        print()
