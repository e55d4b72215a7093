"""CLI surface: flags, exit codes, output formats, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzcert
from ghzcert.cli import build_parser, dispatch


def run_cli(argv, capsys):
    code = dispatch(argv)
    return code, capsys.readouterr().out


def test_certify_emits_report_fields_in_order(capsys):
    code, out = run_cli(
        ["certify", "--n", "4643", "--delta", "0.01", "--pass-rate", "0.973",
         "--operator", "mermin"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "certified_extractability", "eta", "epsilon1", "epsilon2",
        "achieved_delta", "feasible",
    ]
    assert doc["feasible"] is True


def test_certify_infeasible_exit_code(capsys):
    code, out = run_cli(
        ["certify", "--n", "10", "--delta", "0.01", "--pass-rate", "0.973"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_usage_error_unknown_operator():
    with pytest.raises(SystemExit) as exc:
        dispatch(["certify", "--n", "10", "--delta", "0.01", "--pass-rate", "0.9",
                  "--operator", "chsh"])
    assert exc.value.code == 2


def test_usage_error_missing_flag():
    with pytest.raises(SystemExit) as exc:
        dispatch(["certify", "--delta", "0.01", "--pass-rate", "0.9"])
    assert exc.value.code == 2


def test_usage_error_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--grid-step", "0.3"],  # does not divide pi/2
        ["sweep", "--figure", "fig4"],  # fig4 needs --pass-rate
    ],
)
def test_invalid_value_is_usage_error_with_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out.count("\n") == 1
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize(
    "argv", [["bound"], ["certify"], ["simulate"], ["sweep"], ["replay"]]
)
def test_every_subcommand_has_help(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--help"])
    assert exc.value.code == 0


def test_byte_identical_output(capsys):
    argv = ["certify", "--n", "4643", "--delta", "0.01", "--pass-rate", "0.973"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second

    argv = ["simulate", "--source", "iid", "--alpha", "0.05", "--n", "500",
            "--operator", "mermin", "--seed", "17"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_sweep_csv_format(capsys):
    code, out = run_cli(["sweep", "--figure", "left", "--operator", "mermin"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "x,value,operator"
    assert lines[1] == "0,1.0,mermin"
    assert "," in lines[2] and "." in lines[2]  # decimal point, not comma
    assert not out.count("\r")


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run_cli(
        ["sweep", "--figure", "middle", "--operator", "mermin", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("x,value,operator\n")
    assert text.endswith("\n")


def test_bound_smoke_grid_record(capsys):
    code, out = run_cli(
        ["bound", "--operator", "mermin", "--grid-step", repr(math.pi / 8),
         "--s-tol", "1e-2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["operator", "s", "mu", "c", "grid_step", "worst_point",
                         "min_eig", "refined"]
    assert doc["mu"] == pytest.approx(1 - 8 * doc["s"], abs=1e-12)
    assert len(doc["worst_point"]) == 4
    assert doc["refined"] is False


def test_bound_accepts_functional_file(tmp_path, capsys):
    from ghzcert.bell import functional_to_json, mermin_functional

    path = tmp_path / "operator.json"
    path.write_text(functional_to_json(mermin_functional()))
    code, out = run_cli(
        ["bound", "--operator-file", str(path), "--grid-step", repr(math.pi / 8),
         "--s-tol", "1e-2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["operator"] == "mermin"


def test_bound_threads_do_not_change_output(capsys):
    argv = ["bound", "--operator", "mermin", "--grid-step", repr(math.pi / 8),
            "--s-tol", "1e-2"]
    _, one = run_cli(argv + ["--threads", "1"], capsys)
    _, two = run_cli(argv + ["--threads", "2"], capsys)
    assert one == two


def test_simulate_writes_transcript(tmp_path, capsys):
    out_path = tmp_path / "transcript.jsonl"
    code, out = run_cli(
        ["simulate", "--source", "iid", "--alpha", "0.0", "--n", "200",
         "--seed", "3", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["pass_rate"] == 1.0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 200
    assert sum(json.loads(l)["held_out"] for l in lines) == 1


def test_simulate_block_source(capsys):
    code, out = run_cli(
        ["simulate", "--source", "block", "--alpha-good", "0.05", "--alpha-bad", "1.0",
         "--block-length", "50", "--n", "2000", "--seed", "5"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["source"] == "block"
    assert code in (0, 1)  # certification may or may not survive the bad blocks


def test_replay_cli_round_trip(tmp_path, capsys):
    _, out = run_cli(
        ["simulate", "--source", "iid", "--alpha", "0.054", "--n", "500",
         "--seed", "21", "--out", str(tmp_path / "t.jsonl")],
        capsys,
    )
    from ghzcert.replay import events_to_jsonl, events_from_transcript
    from ghzcert.simulate import RoundRecord, Transcript

    lines = (tmp_path / "t.jsonl").read_text().strip().split("\n")
    rounds = []
    for doc in map(json.loads, lines):
        rounds.append(RoundRecord(
            doc["round_index"],
            None if doc["input"] is None else tuple(doc["input"]),
            None if doc["outcomes"] is None else tuple(doc["outcomes"]),
            doc["won"], doc["held_out"],
        ))
    wins = sum(1 for r in rounds if r.won)
    transcript = Transcript(tuple(rounds), 500, wins, wins / 499, 21)
    (tmp_path / "events.jsonl").write_text(
        events_to_jsonl(events_from_transcript(transcript))
    )
    code, out = run_cli(
        ["replay", "--input", str(tmp_path / "events.jsonl"), "--mode", "strict",
         "--operator", "mermin", "--seed", "2"],
        capsys,
    )
    doc = json.loads(out)
    assert doc["n"] == 499
    assert code in (0, 1)


def test_console_entry_point_subprocess():
    # the child imports the ghzcert under test, also when only pytest's
    # pythonpath setting put it on sys.path
    package_root = str(Path(ghzcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ghzcert.cli", "certify", "--n", "4643",
         "--delta", "0.01", "--pass-rate", "0.973", "--operator", "mermin"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["certified_extractability"] == pytest.approx(
        0.896, abs=2e-3
    )


def test_replay_single_event_is_strict_json(tmp_path, capsys):
    """One event leaves no verification rounds: the pass rate is null, not NaN."""
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": [1, 1, 1, 1]}
    ) + "\n")
    code, out = run_cli(["replay", "--input", str(path)], capsys)

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    doc = json.loads(out, parse_constant=reject)
    assert doc["pass_rate"] is None
    assert code == 1
