"""Shows that every correctness check of the benchmark can fail.

Usage (from the repository root): python3 perfbench/selfcheck.py

Each check gets one correct synthetic output, which it must accept, and
deliberately wrong ones, which it must count as failed: a slope off by
10·s_tol, a pass rate off by 10σ, a truncated transcript, a replay win count
outside {W−1, W}, non-strict JSON and a wrong certified value. It also checks
that the metric names and units match BENCHMARK.json. Exits 1 if any
verdict is not as expected. Runs no CLI call and takes about a second.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ghzcert.certification import operator_context  # noqa: E402


def _record(argv, doc, code=0) -> dict:
    return {"argv": argv, "code": code, "stdout": json.dumps(doc), "error": None}


def _report(n, p, expect, mu_meas) -> dict:
    ref = checks.reference_certification(n, expect["delta"], p, expect["p_qm"], expect["c"], mu_meas)
    return {"certified_extractability": 0.0 if ref is None else ref, "feasible": ref is not None}


def bound_cases():
    expect = {"operator": "mermin", "s": workloads.REFERENCE_SLOPES["mermin"],
              "s_tol": workloads.S_TOL, "slack": workloads.SLACK}
    doc = {"operator": "mermin", "s": expect["s"], "min_eig": -5.5e-16}
    yield "bound: reference slope", checks.check_bound(_record(["bound"], doc), expect), True
    wrong = {**doc, "s": expect["s"] + 10 * workloads.S_TOL}
    yield "bound: slope off by 10*s_tol", checks.check_bound(_record(["bound"], wrong), expect), False
    wrong = {**doc, "min_eig": -1e-3}
    yield "bound: min_eig below -slack", checks.check_bound(_record(["bound"], wrong), expect), False


def simulate_cases(tmp: Path):
    n, n_cert = 4000, 1
    mean, _ = workloads.iid_expectation()
    sigma = math.sqrt(mean * (1 - mean) / (n - n_cert))
    _, game, bound = operator_context("mermin")
    expect = {"n": n, "n_cert": n_cert, "mean": mean, "sigma": sigma,
              "delta": workloads.DELTA, "p_qm": game.p_qm, "c": bound.c}

    def output(n_win, lines, name):
        path = tmp / name
        rows = [{"round_index": 0, "won": None, "held_out": True}]
        rows += [{"round_index": j, "won": j <= n_win, "held_out": False} for j in range(1, n)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows[:lines]), encoding="utf-8")
        p = n_win / (n - n_cert)
        report = _report(n, p, expect, (n - n_cert) / n)
        doc = {"n": n, "n_win": n_win, "pass_rate": p, "certification": report}
        return _record(["simulate", "--out", str(path)], doc, 0 if report["feasible"] else 1)

    good = round(mean * (n - n_cert))
    yield "simulate: exact pass rate", checks.check_simulate(output(good, n, "a"), expect), True
    off = round((mean - 10 * sigma) * (n - n_cert))
    yield "simulate: pass rate off by 10 sigma", \
        checks.check_simulate(output(off, n, "b"), expect), False
    yield "simulate: truncated transcript", \
        checks.check_simulate(output(good, n - 1, "c"), expect), False


def replay_cases():
    _, game, bound = operator_context("mermin")
    windows, events, wins = 100, 1000, 950
    expect = {"delta": workloads.DELTA, "p_qm": game.p_qm, "c": bound.c, "windows": windows,
              "events": events, "wins": wins, "windows_any_win": 100, "windows_all_win": 60,
              "mode": "decomposed"}

    def output(n_win):
        p = n_win / (events - 1)
        report = _report(events, p, expect, (events - 1) / events)
        return {"n": events, "n_win": n_win, "pass_rate": p, "certification": report}, \
            0 if report["feasible"] else 1

    doc, code = output(wins - 1)
    yield "replay: n_win = W-1", checks.check_replay(_record([], doc, code), expect), True
    doc, code = output(wins - 2)
    yield "replay: n_win = W-2", checks.check_replay(_record([], doc, code), expect), False
    doc, code = output(wins)
    rec = _record([], doc, code)
    rec["stdout"] = rec["stdout"].replace(f'"pass_rate": {doc["pass_rate"]!r}', '"pass_rate": NaN')
    yield "replay: NaN in output", checks.check_replay(rec, expect), False

    p = 0.975
    rows = ["x,value,operator"]
    for n in (10, 100, 1000, 10000):
        ref = checks.reference_certification(n, expect["delta"], p, expect["p_qm"], expect["c"],
                                             (n - 1) / n)
        rows.append(f"{n},{'nan' if ref is None else repr(ref)},mermin")
    argv = ["sweep", "--pass-rate", repr(p)]
    rec = {"argv": argv, "code": 0, "stdout": "\n".join(rows) + "\n", "error": None}
    yield "sweep: reference values", checks.check_sweep(rec, expect), True
    last = rows[-1].split(",")
    rows[-1] = f"{last[0]},{float(last[1]) + 1e-3!r},mermin"
    rec = {**rec, "stdout": "\n".join(rows) + "\n"}
    yield "sweep: certified value off by 1e-3", checks.check_sweep(rec, expect), False


def metric_cases():
    """run.py's metric names and units must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.UNITS), ("per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        problems = [] if declared == units else [f"{key} differs from BENCHMARK.json"]
        yield f"metrics: {key} names and units", problems, True


def main() -> int:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=tmp_root))
    bad = 0
    try:
        cases = [*bound_cases(), *simulate_cases(tmp), *replay_cases(), *metric_cases()]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for label, problems, should_pass in cases:
        verdict = "accepted" if not problems else "failed"
        as_expected = (not problems) == should_pass
        bad += not as_expected
        detail = f" ({problems[0]})" if problems else ""
        print(f"{'ok ' if as_expected else 'BAD'} {label}: {verdict}{detail}")
    print(f"{len(cases) - bad}/{len(cases)} verdicts as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
