"""The benchmark under perfbench/ still imports, runs and accepts this package.

perfbench drives the CLI and checks every output; these tests run its
self-check and one replay pass, so that a change breaking the benchmark's
imports or checks fails here before a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

from ghzcert.cli import dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_replay_workload_outputs_pass_their_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    load = workloads.replay_workload(1, tmp_path)
    assert len(load.calls) == 3
    prev = None
    for call in load.calls:
        argv = [
            repr(json.loads(prev["stdout"])[a[len("{prev:"):-1]]) if a.startswith("{prev:") else a
            for a in call.argv
        ]
        code = dispatch(argv)
        record = {"argv": argv, "code": code, "stdout": capsys.readouterr().out, "error": None}
        assert call.check(record) == [], argv
        prev = record
