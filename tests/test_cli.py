"""CLI surface: flags, exit codes, output formats, reproducibility."""

import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghzcert
from ghzcert.bell import get_functional, mermin_functional, to_game
from ghzcert.cli import build_parser, dispatch
from ghzcert.simulate import IIDNoisy, run_protocol
from reference import events_from_transcript, events_to_jsonl, functional_to_json


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


BAD_OPERATOR_FILES = {
    "no_terms": '{"name": "custom", "parties": 4}',
    "number_settings": '{"name": "x", "parties": 4, "terms": [{"coefficient": 1, "settings": 5}]}',
    "term_not_object": '{"name": "x", "parties": 4, "terms": [5]}',
    "terms_not_list": '{"name": "x", "parties": 4, "terms": 5}',
    "bad_ideal_settings": '{"name": "x", "parties": 4, "terms": '
                          '[{"coefficient": 1, "settings": [0, 0, 0, 0]}], "ideal_settings": 5}',
}


def _mermin_with(path, value) -> str:
    """Mermin's JSON with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(functional_to_json(mermin_functional()))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


BAD_OPERATOR_FILES["three_settings"] = _mermin_with(["terms", 0, "settings"], [0, 0, 0])
BAD_OPERATOR_FILES["five_settings"] = _mermin_with(["terms", 0, "settings"], [0, 0, 0, 0, 0])
# wrong JSON types that a lax reader would take for numbers: true as 1, "8" as 8, 4.9 as 4
BAD_OPERATOR_FILES["bool_settings"] = _mermin_with(
    ["terms", 0, "settings"], [True, False, False, False])
BAD_OPERATOR_FILES["string_beta_q"] = _mermin_with(["beta_q"], "8")
BAD_OPERATOR_FILES["bool_beta_c"] = _mermin_with(["beta_c"], True)
BAD_OPERATOR_FILES["float_parties"] = _mermin_with(["parties"], 4.9)
BAD_OPERATOR_FILES["number_name"] = _mermin_with(["name"], 5)
BAD_OPERATOR_FILES["string_coefficient"] = _mermin_with(["terms", 0, "coefficient"], "1")
BAD_OPERATOR_FILES["bool_coefficient"] = _mermin_with(["terms", 0, "coefficient"], True)
BAD_OPERATOR_FILES["string_matrix_entry"] = _mermin_with(["ideal_settings", 0, 0, 0, 1], ["1", 0])
BAD_OPERATOR_FILES["bool_matrix_entry"] = _mermin_with(["ideal_settings", 0, 0, 0, 1], [True, 0])
BAD_OPERATOR_FILES["huge_coefficient"] = _mermin_with(["terms", 0, "coefficient"], 10**400)
# json.loads reads Infinity; with beta_alg infinite too, only the eigensolver would object
BAD_OPERATOR_FILES["infinite_coefficient"] = _mermin_with(["beta_alg"], math.inf).replace(
    '"coefficient": 1.0', '"coefficient": Infinity', 1)
_MATRIX = json.loads(functional_to_json(mermin_functional()))["ideal_settings"][0][0]
IDEAL_SETTINGS_FILES = {
    "one_matrix_pair": _mermin_with(["ideal_settings", 0], [_MATRIX]),
    "three_matrix_pair": _mermin_with(["ideal_settings", 0], [_MATRIX] * 3),
    "short_matrix_entry": _mermin_with(["ideal_settings", 0, 0, 0, 1], [0]),
    "long_matrix_entry": _mermin_with(["ideal_settings", 0, 0, 0, 1], [0, 0, 0]),
}
BAD_OPERATOR_FILES.update(IDEAL_SETTINGS_FILES)
# X⊗Z is dichotomic, but a setting acts on one qubit
BAD_OPERATOR_FILES["four_by_four_setting"] = _mermin_with(
    ["ideal_settings", 0, 0],
    [[[float(v), 0.0] for v in row] for row in np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]])])
#: argv tokens whose usage error must name the field or flag at fault
ERROR_NAMES = {"--eta": "eta", "--grid-step": "grid step", "{not_utf8}": "line 2: not valid UTF-8",
               "{four_by_four_setting}": "2×2",
               **{f"{{{name}}}": "ideal_settings" for name in IDEAL_SETTINGS_FILES}}


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--grid-step", "0.3"],  # does not divide pi/2
        ["sweep", "--figure", "fig4"],  # fig4 needs --pass-rate
        ["certify", "--n", "0", "--delta", "0.01", "--pass-rate", "0.9"],
        ["replay", "--input", "{missing}"],
        ["bound", "--operator-file", "{missing}"],
        ["bound", "--operator-file", "{no_terms}"],  # a JSON object without "terms"
        ["bound", "--operator-file", "{number_settings}"],
        ["bound", "--operator-file", "{term_not_object}"],
        ["bound", "--operator-file", "{terms_not_list}"],
        ["bound", "--operator-file", "{bad_ideal_settings}"],
        ["bound", "--operator-file", "{three_settings}"],
        ["bound", "--operator-file", "{five_settings}"],
        ["bound", "--operator-file", "{bool_settings}"],
        ["bound", "--operator-file", "{string_beta_q}"],
        ["bound", "--operator-file", "{bool_beta_c}"],
        ["bound", "--operator-file", "{float_parties}"],
        ["bound", "--operator-file", "{number_name}"],
        ["bound", "--operator-file", "{string_coefficient}"],
        ["bound", "--operator-file", "{bool_coefficient}"],
        ["bound", "--operator-file", "{string_matrix_entry}"],
        ["bound", "--operator-file", "{bool_matrix_entry}"],
        ["bound", "--operator-file", "{huge_coefficient}"],
        ["bound", "--operator-file", "{infinite_coefficient}"],
        ["replay", "--input", "{empty}", "--delta", "5"],  # too few rounds to certify
        ["bound", "--slack", "nan"],  # would make the verification vacuous
        ["bound", "--slack", "inf"],
        ["bound", "--slack", "-1"],
        ["bound", "--threads", "0"],
        ["bound", "--threads", "-3"],
        ["bound", "--operator-file", "{one_matrix_pair}"],
        ["bound", "--operator-file", "{three_matrix_pair}"],
        ["bound", "--operator-file", "{short_matrix_entry}"],
        ["bound", "--operator-file", "{long_matrix_entry}"],
        ["bound", "--operator-file", "{nested}"],  # 100,000 [: json.loads recurses too deep
        ["replay", "--input", "{nested}"],
        ["sweep", "--figure", "middle", "--eta", "-1"],  # read as extractability 2
        ["sweep", "--figure", "middle", "--eta", "1.5"],
        ["sweep", "--figure", "middle", "--eta", "5"],
        ["sweep", "--figure", "middle", "--eta", "inf"],
        ["sweep", "--figure", "middle", "--eta", "nan"],
        ["bound", "--grid-step", "nan"],
        ["bound", "--grid-step", "inf"],
        ["certify", "--n", "1" + "0" * 400, "--delta", "0.01", "--pass-rate", "0.97"],  # not a float
        ["bound", "--grid-step", "1e-320"],  # π/2 over it overflows to inf
        ["simulate", "--source", "block", "--block-length", str(2**63), "--n", "10"],
        ["simulate", "--n", str(2**62)],  # 4 EiB of rounds
        ["replay", "--input", "{not_utf8}"],  # a 0xff byte on line 2
        ["sweep", "--figure", "left", "--delta", "nan"],  # left reads no delta, but checks it
        ["sweep", "--figure", "middle", "--delta", "2"],
        ["sweep", "--figure", "middle", "--delta", "0"],
        ["bound", "--operator-file", "{four_by_four_setting}"],
    ],
)
def test_invalid_value_is_usage_error_with_json(argv, tmp_path, capsys):
    paths = {"missing": tmp_path / "missing.json", "empty": tmp_path / "empty.jsonl",
             "not_utf8": tmp_path / "not_utf8.jsonl"}
    paths["empty"].write_text("")
    paths["nested"] = tmp_path / "nested.json"
    paths["nested"].write_text("[" * 100_000 + "\n")
    paths["not_utf8"].write_bytes(b'{"window_id": 0, "input": [0, 0, 0, 0], "t_ps": 0, '
                                  b'"outcomes": [1, 1, 1, 1]}\n{"window_id": \xff}\n')
    for name, text in BAD_OPERATOR_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    names = [ERROR_NAMES[a] for a in argv if a in ERROR_NAMES]
    argv = [a.format(**paths) for a in argv]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out.count("\n") == 1
    assert set(json.loads(out)) == {"error"}
    assert all(name in json.loads(out)["error"] for name in names)


#: zero, signs, non-finite, subnormal, the int64 and uint64 edges and beyond, text, empty
FUZZ_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-320", str(2**62), str(2**63),
               str(2**64), str(10**30), "text", "")

#: (valid argv, the flags whose values are replaced). bound stays on the π/4
#: grid: every fuzz value is an invalid step, and a valid fine one runs for hours
FUZZ_BASES = (
    (["bound", "--grid-step", repr(math.pi / 4), "--slack", "1e-9", "--threads", "1",
      "--s-tol", "1e-4"], ("--grid-step", "--slack", "--threads", "--s-tol")),
    (["certify", "--n", "4643", "--delta", "0.01", "--pass-rate", "0.973", "--mu-meas", "0.5"],
     ("--n", "--delta", "--pass-rate", "--mu-meas")),
    (["simulate", "--n", "50", "--nc", "1", "--alpha", "0.05", "--delta", "0.01", "--seed", "3"],
     ("--n", "--nc", "--alpha", "--delta", "--seed")),
    (["simulate", "--source", "drifting", "--n", "50", "--alpha-end", "0.2"], ("--alpha-end",)),
    (["simulate", "--source", "block", "--n", "50", "--alpha-good", "0.05", "--alpha-bad", "1",
      "--block-length", "7", "--bad-fraction", "0.3"],
     ("--alpha-good", "--alpha-bad", "--block-length", "--bad-fraction")),
    (["sweep", "--figure", "right", "--alpha", "0.05", "--delta", "0.01"], ("--alpha", "--delta")),
    (["sweep", "--figure", "middle", "--eta", "0.25"], ("--eta",)),
    (["sweep", "--figure", "fig4", "--pass-rate", "0.97"], ("--pass-rate",)),
    (["replay", "--input", "{events}", "--delta", "0.01", "--seed", "5"],
     ("--input", "--delta", "--seed")),
)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_argv_fuzz_keeps_exit_and_output_contract(tmp_path, capsys, monkeypatch):
    """Every flag value of FUZZ_VALUES in every flag of FUZZ_BASES, one flag at a
    time: exit 0, 1 or 2 and no exception; strict JSON (CSV for sweep), or one
    {"error"} line on exit 2; the parser's own rejections print nothing to stdout."""
    monkeypatch.chdir(tmp_path)  # the fuzz values name no existing --input file
    transcript, _ = run_protocol(IIDNoisy(0.05), to_game(mermin_functional()), n_rounds=60,
                                 seed=3)
    events = tmp_path / "events.jsonl"
    events.write_text(events_to_jsonl(events_from_transcript(transcript)))
    failures = []
    for base, flags in FUZZ_BASES:
        base = [a.format(events=events) for a in base]
        for flag, value in ((f, v) for f in flags for v in FUZZ_VALUES):
            argv = list(base)
            argv[argv.index(flag) + 1] = value
            try:
                code, parsed = dispatch(argv), True
            except SystemExit as exc:
                code, parsed = exc.code, False
            except Exception as exc:  # every escape is a finding
                capsys.readouterr()
                failures.append(f"{argv}: {exc!r}")
                continue
            out = capsys.readouterr().out
            try:
                assert code in (0, 1, 2)
                if not parsed:
                    assert code == 2 and out == ""
                elif code == 2:
                    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}
                elif argv[0] == "sweep":
                    lines = out.splitlines()
                    assert lines[0] == "x,value,operator"
                    assert all(len(line.split(",")) == 3 for line in lines[1:])
                else:
                    json.loads(out, parse_constant=_reject_constant)
            except (AssertionError, ValueError) as exc:
                failures.append(f"{argv}: exit {code}, {exc!r}, stdout {out[:200]!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize(
    "argv", [["bound"], ["certify"], ["simulate"], ["sweep"], ["replay"]]
)
def test_every_subcommand_has_help(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--help"])
    assert exc.value.code == 0


def test_shared_parser_gives_each_dispatch_the_same_result(capsys):
    """``dispatch`` keeps one parser for the process: a rejected argv, a
    ``--help`` and runs with non-default flags leave nothing behind, and
    ``build_parser`` still returns a new parser on each call."""
    argv = ["certify", "--n", "4643", "--delta", "0.01", "--pass-rate", "0.973"]
    expected = run_cli(argv, capsys)
    assert expected[0] == 0

    def rejected():
        with pytest.raises(SystemExit) as exc:
            dispatch(argv + ["--operator", "chsh"])
        assert (exc.value.code, capsys.readouterr().out) == (2, "")

    def helped():
        with pytest.raises(SystemExit) as exc:
            dispatch(["certify", "--help"])
        assert exc.value.code == 0
        capsys.readouterr()

    def other_flags():
        for other in (["certify", "--n", "500", "--delta", "0.05", "--pass-rate", "0.99",
                       "--operator", "zhao", "--mu-meas", "0.5"],
                      ["sweep", "--figure", "fig4", "--pass-rate", "0.97",
                       "--operator", "baccari", "--delta", "0.05", "--eta", "0.3"]):
            assert run_cli(other, capsys)[0] in (0, 1)

    for step in (rejected, helped, other_flags):
        step()
        assert run_cli(argv, capsys) == expected
    assert build_parser() is not build_parser()


def test_cli_import_loads_neither_numpy_ma_nor_concurrent_futures():
    """Importing the CLI and building its parser loads neither module."""
    package_root = str(Path(ghzcert.__file__).resolve().parents[1])
    code = ("import sys; import ghzcert.cli; ghzcert.cli.build_parser(); "
            "print(sorted({'numpy.ma', 'concurrent.futures'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


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
    assert list(doc) == ["operator", "s", "mu", "c", "grid_step", "points", "group_order",
                         "worst_point", "min_eig"]
    assert (doc["points"], doc["group_order"]) == (20, 192)
    assert doc["mu"] == pytest.approx(1 - 8 * doc["s"], abs=1e-12)
    assert len(doc["worst_point"]) == 4
    with pytest.raises(SystemExit) as exc:
        dispatch(["bound", "--operator", "mermin", "--refine"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_bound_accepts_functional_file(tmp_path, capsys):
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
    """--threads is validated and ignored: stdout is the same for 1, 2 and 3.
    baccari π/24's flagged points raise the slope above its seed's."""
    for operator, pi_over in (("mermin", 8), ("mermin", 24), ("zhao", 12), ("baccari", 24)):
        argv = ["bound", "--operator", operator, "--grid-step", repr(math.pi / pi_over),
                "--s-tol", "1e-2"]
        one, two, three = (run_cli(argv + ["--threads", str(threads)], capsys)[1]
                           for threads in (1, 2, 3))
        assert one == two == three


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
    from ghzcert.simulate import Transcript

    docs = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    transcript = Transcript(
        inputs=np.array([d["input"] or [0] * 4 for d in docs], dtype=np.int8),
        outcomes=np.array([d["outcomes"] or [0] * 4 for d in docs], dtype=np.int8),
        won=np.array([d["won"] is True for d in docs]),
        held_out=np.array([d["held_out"] for d in docs]),
        seed=21,
    )
    text = io.StringIO()
    transcript.to_jsonl(text)
    assert text.getvalue() == (tmp_path / "t.jsonl").read_text()
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


def _mutate(lines, rng):
    """One random single-line edit: a character, a value, the whole line or its input."""
    lines = list(lines)
    k = int(rng.integers(len(lines)))
    line = lines[k]
    kind = int(rng.integers(5))
    at = int(rng.integers(len(line) + 1))
    if kind == 0:
        line = line[:at] + line[at + 1:]
    elif kind == 1:
        line = line[:at] + str(rng.choice(list('0-1x"{}[],: '))) + line[at:]
    elif kind == 2:
        values = [m.span() for m in re.finditer(r"-?\d+", line)]
        a, b = values[int(rng.integers(len(values)))]
        tokens = ["-1", "2", "1.5", "1.0", "true", "null", '"0"', "[]", str(2**64), str(2**64 - 1)]
        line = line[:a] + str(rng.choice(tokens)) + line[b:]
    elif kind == 3:
        line = str(rng.choice(["", "  ", "[]", "5", "{}", "not json", '{"window_id": 0}']))
    else:
        line = lines[int(rng.integers(len(lines)))]  # may clash with its new window's input
    lines[k] = line
    return lines


def test_replay_fuzzed_event_files_keep_cli_contract(tmp_path, capsys, monkeypatch):
    """200 single-line mutations of a valid file: exit 0/1/2, strict JSON, no traceback."""
    monkeypatch.setattr(importlib.import_module("ghzcert.replay"), "PARSE_CHUNK_LINES", 4)
    rng = np.random.default_rng(8)
    valid = []
    for w in range(8):
        inputs = [0, 0, 0, 0] if w % 2 else [1, 1, 0, 0]
        for e in range(3):
            outcomes = [int(o) for o in 1 - 2 * rng.integers(0, 2, 4)]
            valid.append(json.dumps({"window_id": w, "input": inputs, "t_ps": 10 * w + e,
                                     "outcomes": outcomes}))

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    codes = []
    for i in range(200):
        path = tmp_path / f"events{i}.jsonl"  # a fresh file per case: rewriting one is slow
        path.write_text("\n".join(_mutate(valid, rng)) + "\n")
        code, out = run_cli(["replay", "--input", str(path), "--mode",
                             str(rng.choice(["strict", "decomposed"]))], capsys)
        assert code in (0, 1, 2)
        doc = json.loads(out, parse_constant=reject)
        if code == 2:
            assert out.count("\n") == 1 and set(doc) == {"error"}
        codes.append(code)
    assert {1, 2} <= set(codes)


def _mutate_functional(doc: dict, rng) -> dict:
    """One seeded edit of a functional's JSON object: a dropped key, a wrong type,
    a matrix that is not Hermitian or not dichotomic, a setting pair that does
    not anticommute, or a term on an odd number of parties."""
    doc = json.loads(json.dumps(doc))
    pair = doc["ideal_settings"][int(rng.integers(4))]
    which = int(rng.integers(2))
    term = doc["terms"][int(rng.integers(len(doc["terms"])))]
    kind = int(rng.integers(6))
    if kind == 0:
        owner = doc if rng.random() < 0.5 else term
        del owner[str(rng.choice(sorted(owner)))]
    elif kind == 1:
        value = [None, True, "1", [], {}, 1.5, -4, [[0, 0]], 2**64][int(rng.integers(9))]
        where = int(rng.integers(4))
        if where == 0:
            doc[str(rng.choice(sorted(doc)))] = value
        elif where == 1:
            term[str(rng.choice(sorted(term)))] = value
        elif where == 2:
            pair[which] = value
        else:
            pair[which][int(rng.integers(2))][int(rng.integers(2))] = value
    elif kind == 2:
        pair[which][0][1] = [pair[which][0][1][0] + 0.5, pair[which][0][1][1]]
    elif kind == 3:
        pair[which] = [
            [[1.5 * re, 1.5 * im] for re, im in row] for row in pair[which]
        ] if rng.random() < 0.5 else [
            [[float(i == j), 0.0] for j in range(4)] for i in range(4)  # dichotomic, not a qubit
        ]
    elif kind == 4:
        pair[1 - which] = pair[which] if rng.random() < 0.5 else [
            [[-re, -im] for re, im in row] for row in pair[which]
        ]
    else:
        term["settings"][int(rng.integers(4))] = None
    return doc


@pytest.mark.parametrize("functional", ["mermin", "zhao"])
def test_bound_fuzzed_operator_files_keep_cli_contract(functional, tmp_path, capsys):
    """60 seeded mutations of a valid functional file: exit 0/1/2, strict JSON,
    one JSON error line on exit 2, no exception out of the CLI."""
    rng = np.random.default_rng(14)
    valid = json.loads(functional_to_json(get_functional(functional)))

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    codes = []
    for i in range(60):
        path = tmp_path / f"operator{i}.json"  # a fresh file per case: rewriting one is slow
        path.write_text(json.dumps(_mutate_functional(valid, rng)))
        code, out = run_cli(["bound", "--operator-file", str(path),
                             "--grid-step", repr(math.pi / 4)], capsys)
        assert code in (0, 1, 2)
        doc = json.loads(out, parse_constant=reject)
        if code == 2:
            assert out.count("\n") == 1 and set(doc) == {"error"}
        codes.append(code)
    assert {0, 2} <= set(codes)
