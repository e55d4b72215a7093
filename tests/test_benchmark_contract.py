"""The benchmark under perfbench/ still imports, runs and accepts this package.

perfbench drives the CLI and checks every output; these tests run its
self-check, one pass each of the bound and replay workloads and both
protocol calls, so that a change breaking the benchmark's imports or checks
fails here before a benchmark run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import ghzcert.cli
from ghzcert.certification import operator_context
from ghzcert.cli import dispatch
from ghzcert.replay import MODES
from ghzcert.simulate import IIDNoisy, run_protocol
from reference import events_from_transcript, events_to_jsonl

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


def test_bound_workload_outputs_pass_their_checks(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    load = workloads.bound_workload(1, 2)
    assert len(load.calls) == 2
    for call in load.calls:
        code = dispatch(call.argv)
        record = {"argv": call.argv, "code": code, "stdout": capsys.readouterr().out,
                  "error": None}
        assert call.check(record) == [], call.argv


def _protocol_call_problems(source, tmp_path, capsys, monkeypatch):
    """Run the protocol workload's simulate call on ``source``; its check's problems."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    (call,) = [c for c in workloads.protocol_workload(1, tmp_path).calls if source in c.argv]
    argv = [a.replace("{pass}", "test") for a in call.argv]
    code = dispatch(argv)
    record = {"argv": argv, "code": code, "stdout": capsys.readouterr().out, "error": None}
    return call.work, call.check(record)


def test_block_protocol_call_passes_its_check(tmp_path, capsys, monkeypatch):
    """The 5e4-round block-source simulate call; its check re-reads the transcript."""
    assert _protocol_call_problems("block", tmp_path, capsys, monkeypatch) == (50_000, [])


def test_iid_protocol_call_passes_its_check(tmp_path, capsys, monkeypatch):
    """The 1e5-round IID simulate call; its check re-reads the transcript."""
    assert _protocol_call_problems("iid", tmp_path, capsys, monkeypatch) == (100_000, [])


def test_perfbench_hooks_resolve(monkeypatch):
    """Every function perfbench's tracer wraps exists, so no span goes missing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install("hooks")
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_pipelines_call_every_hook(tmp_path, capsys, monkeypatch):
    """Each function perfbench's tracer wraps is called by one of the CLI paths
    the benchmark runs, so no per-layer metric is computed from an empty span.

    ``bell.won`` is the exception: it hooks ``NonlocalGame.won``, which no
    pipeline calls (scoring goes through ``won_terms``), so the metric derived
    from it reads 0.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    _, game, bound = operator_context("mermin")
    transcript, _ = run_protocol(IIDNoisy(alpha=0.05), game, bound=bound, n_rounds=500, seed=3)
    events = tmp_path / "events.jsonl"
    events.write_text(events_to_jsonl(events_from_transcript(transcript)))
    calls = [
        ["bound", "--operator", "mermin", "--grid-step", repr(math.pi / 12)],
        ["simulate", "--n", "2000", "--out", str(tmp_path / "transcript.jsonl")],
        *(["replay", "--input", str(events), "--mode", mode] for mode in MODES),
        ["sweep", "--figure", "fig4", "--pass-rate", "0.97"],
    ]
    tracer = spans.Tracer()
    tracer.install("pipelines")
    try:
        codes = [ghzcert.cli.dispatch(argv) for argv in calls]  # the traced dispatch
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(calls)
    called = {tracer.names[i] for i in tracer.name_id}
    assert {name for _, _, name, _ in spans.HOOKS} - called == {"bell.won"}


def test_traced_bound_counts_its_printed_points(capsys, monkeypatch):
    """The certificate hook reads each batch's weight pairs: the distinct points
    it counts in a traced mermin π/12 ``bound`` equal the ``points`` it prints."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install("bound")
    try:
        code = ghzcert.cli.dispatch(
            ["bound", "--operator", "mermin", "--grid-step", repr(math.pi / 12)])
    finally:
        tracer.uninstall()
    printed = json.loads(capsys.readouterr().out)["points"]
    assert code == 0 and printed == 50
    assert tracer.summary()["distinct_grid_points"] == printed
