"""Correctness checks on CLI outputs.

Each check takes one call record (``argv``, ``code``, ``stdout``, ``error``)
and the expectations the workload computed, and returns a list of problems;
an empty list means the output is correct. The checks pin what any correct
implementation must return — reference slopes, exact pass-rate statistics,
counts, and certified numbers recomputed here — never transcript bits or RNG
draws, so they survive algorithm and RNG changes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

CERT_TOL = 1e-6  # spec'd accuracy of the certified extractability
ETA_TOL = 1e-12


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _kl(p1: float, p2: float) -> float:
    if p1 == p2:
        return 0.0
    if p2 <= 0.0 or p2 >= 1.0:
        return math.inf
    value = 0.0
    if p1 > 0.0:
        value += p1 * math.log(p1 / p2)
    if p1 < 1.0:
        value += (1.0 - p1) * math.log((1.0 - p1) / (1.0 - p2))
    return value


def reference_certification(n: int, delta: float, p: float, p_qm: float, c: float,
                            mu_meas: float) -> float | None:
    """Largest certified extractability 1−η, or None when infeasible.

    Independent of ghzcert: η must satisfy c·η > p_QM − P and
    (1 − m + m·e^{−D(P‖p_QM − c·η)})^N ≤ δ; the bound falls with η, so the
    smallest such η is found by bisection.
    """

    def fails(eta: float) -> bool:
        p2 = max(p_qm - c * eta, 0.0)
        if p <= p2:
            return True
        return (1.0 - mu_meas + mu_meas * math.exp(-_kl(p, p2))) ** n > delta

    lo = max((p_qm - p) / c, 0.0)
    if lo >= 1.0 or fails(1.0):
        return None
    hi = 1.0
    while hi - lo > ETA_TOL:
        mid = (lo + hi) / 2.0
        if fails(mid):
            lo = mid
        else:
            hi = mid
    return 1.0 - hi


def _certification_problems(report, n, p, expect, mu_meas) -> list[str]:
    if not isinstance(report, dict):
        return ["certification report missing"]
    ref = reference_certification(n, expect["delta"], p, expect["p_qm"], expect["c"], mu_meas)
    if report.get("feasible") is not (ref is not None):
        return [f"feasible={report.get('feasible')!r}, reference says {ref is not None}"]
    if ref is not None and abs(report["certified_extractability"] - ref) > CERT_TOL:
        return [f"certified {report['certified_extractability']!r} != reference {ref!r}"]
    return []


def _load(rec) -> tuple[dict | None, list[str]]:
    if rec.get("error"):
        return None, [f"raised: {rec['error'].strip().splitlines()[-1]}"]
    try:
        return strict_json(rec["stdout"]), []
    except ValueError as exc:
        return None, [f"output is not strict JSON ({exc})"]


def check_bound(rec, expect) -> list[str]:
    """Exit 0, slope within s_tol of the reference, grid minimum eigenvalue ≥ −slack."""
    doc, problems = _load(rec)
    if doc is None:
        return problems
    if rec["code"] != 0:
        problems.append(f"exit code {rec['code']}")
    if doc.get("operator") != expect["operator"]:
        problems.append(f"operator {doc.get('operator')!r}")
    s = doc.get("s")
    if not isinstance(s, float) or abs(s - expect["s"]) > expect["s_tol"]:
        problems.append(f"slope {s!r} not within {expect['s_tol']} of {expect['s']}")
    min_eig = doc.get("min_eig")
    if not isinstance(min_eig, float) or min_eig < -expect["slack"]:
        problems.append(f"min_eig {min_eig!r} below -{expect['slack']}")
    return problems


def transcript_counts(path) -> tuple[int, int]:
    """(lines, won rounds) of a transcript file."""
    lines = wins = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                lines += 1
                wins += strict_json(line).get("won") is True
    return lines, wins


def check_simulate(rec, expect) -> list[str]:
    """Pass rate within 4σ of the exact rate, transcript consistent, certification exact."""
    doc, problems = _load(rec)
    if doc is None:
        return problems
    n, n_cert = expect["n"], expect["n_cert"]
    if doc.get("n") != n:
        problems.append(f"n {doc.get('n')!r} != {n}")
    n_win = doc.get("n_win")
    p = doc.get("pass_rate")
    if not isinstance(n_win, int) or not isinstance(p, float):
        return problems + ["n_win or pass_rate missing"]
    if abs(p - n_win / (n - n_cert)) > 1e-12:
        problems.append(f"pass_rate {p!r} != n_win/(n - n_cert)")
    # 1/n: the held-out round shifts the measured mean by at most one round
    tolerance = 4.0 * expect["sigma"] + 1.0 / (n - n_cert)
    if abs(p - expect["mean"]) > tolerance:
        problems.append(f"pass_rate {p!r} not within {tolerance:.3g} of exact {expect['mean']!r}")
    out = rec["argv"][rec["argv"].index("--out") + 1]
    try:
        lines, wins = transcript_counts(out)
    except (OSError, ValueError) as exc:
        problems.append(f"transcript unreadable ({exc})")
    else:
        if lines != n:
            problems.append(f"transcript has {lines} lines, expected {n}")
        if wins != n_win:
            problems.append(f"transcript has {wins} won rounds, output says {n_win}")
    report = doc.get("certification")
    problems += _certification_problems(report, n, p, expect, (n - n_cert) / n)
    if isinstance(report, dict) and rec["code"] != (0 if report.get("feasible") else 1):
        problems.append(f"exit code {rec['code']} disagrees with feasible={report.get('feasible')}")
    return problems


def mermin_wins(inputs: np.ndarray, outcomes: np.ndarray, functional) -> np.ndarray:
    """Win flags (windows, events) for a functional whose inputs each match one term."""
    won = np.zeros(outcomes.shape[:2], dtype=bool)
    for w, inp in enumerate(inputs):
        matches = [
            t for t in functional.terms
            if all(s is None or s == inp[p] for p, s in enumerate(t.settings))
        ]
        if len(matches) != 1:
            raise ValueError(f"input {list(inp)} matches {len(matches)} terms")
        term = matches[0]
        parity = np.prod(outcomes[w][:, list(term.involved)], axis=1)
        won[w] = parity == (1 if term.coefficient > 0 else -1)
    return won


def check_replay(rec, expect) -> list[str]:
    """Round and win counts implied by the event file; certification exact."""
    doc, problems = _load(rec)
    if doc is None:
        return problems
    n, n_win, p = doc.get("n"), doc.get("n_win"), doc.get("pass_rate")
    if not isinstance(n, int) or not isinstance(n_win, int) or not isinstance(p, float):
        return problems + ["n, n_win or pass_rate missing"]
    if expect["mode"] == "strict":
        # one event per window, one round held out
        if n != expect["windows"]:
            problems.append(f"strict n {n} != window count {expect['windows']}")
        lo, hi = expect["windows_all_win"] - 1, expect["windows_any_win"]
        if not lo <= n_win <= hi:
            problems.append(f"strict n_win {n_win} outside [{lo}, {hi}]")
    else:
        if n != expect["events"]:
            problems.append(f"decomposed n {n} != event count {expect['events']}")
        if n_win not in (expect["wins"] - 1, expect["wins"]):
            problems.append(f"decomposed n_win {n_win} not in {{W-1, W}}, W={expect['wins']}")
    if n >= 2 and abs(p - n_win / (n - 1)) > 1e-12:
        problems.append(f"pass_rate {p!r} != n_win/(n-1)")
    report = doc.get("certification")
    problems += _certification_problems(report, n, p, expect, (n - 1) / n)
    if isinstance(report, dict) and rec["code"] != (0 if report.get("feasible") else 1):
        problems.append(f"exit code {rec['code']} disagrees with feasible={report.get('feasible')}")
    return problems


def check_sweep(rec, expect) -> list[str]:
    """fig4 CSV: increasing N, each value the reference certification (nan if infeasible)."""
    if rec.get("error"):
        return [f"raised: {rec['error'].strip().splitlines()[-1]}"]
    if rec["code"] != 0:
        return [f"exit code {rec['code']}"]
    argv = rec["argv"]
    try:
        p = float(argv[argv.index("--pass-rate") + 1])
        rows = list(csv.reader(io.StringIO(rec["stdout"])))
        header, body = rows[0], rows[1:]
        xs = [int(r[0]) for r in body]
        values = [float(r[1]) for r in body]
    except (ValueError, IndexError) as exc:
        return [f"unreadable sweep output ({exc})"]
    problems = []
    if header != ["x", "value", "operator"]:
        problems.append(f"header {header!r}")
    if not body or any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 2:
        problems.append("N grid is empty or not strictly increasing from >= 2")
    for n, value in zip(xs, values):
        ref = reference_certification(n, expect["delta"], p, expect["p_qm"], expect["c"],
                                      (n - 1) / n)
        if ref is None and not math.isnan(value):
            problems.append(f"N={n}: {value!r} where the reference is infeasible")
        elif ref is not None and not abs(value - ref) <= CERT_TOL:
            problems.append(f"N={n}: {value!r} != reference {ref!r}")
        if len(problems) > 3:
            break
    return problems
