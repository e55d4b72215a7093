"""Runs the CLI calls of a benchmark plan in one fresh interpreter.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

The plan lists phases; each phase repeats its calls (one pass) for a time
budget, or once. Calls go through ``ghzcert.cli.dispatch`` with stdout
captured; each is timed on its own and stamped with the monotonic clock.
Traced phases install the span tracer around the calls. The result file
holds every call's exit code, output, duration and stamps, the trace
summary, and the process's peak RSS (children included).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import ghzcert.cli as cli

from spans import Tracer


def _fill(arg: str, label: str, prev: dict | None) -> str:
    arg = arg.replace("{pass}", label)
    if arg.startswith("{prev:") and arg.endswith("}") and prev is not None:
        key = arg[len("{prev:"):-1]
        try:
            return repr(json.loads(prev["stdout"])[key])
        except (ValueError, KeyError, TypeError):
            return arg
    return arg


def run_call(argv: list[str]) -> dict:
    buf = io.StringIO()
    error = None
    t_start = time.monotonic()  # the clock run.py stamps its pauses with
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.dispatch(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except Exception:  # recorded as a failed call; the benchmark keeps running
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"argv": argv, "code": code, "stdout": buf.getvalue(), "seconds": seconds,
            "t_start": t_start, "t_end": time.monotonic(), "error": error}


def run_phase(phase: dict, index: int) -> list[list[dict]]:
    """Passes over the phase's calls: once, or while another pass fits the budget.

    A pass starts only if it is expected to end within half a pass of the
    budget, so a run measures about ``seconds`` whatever the pass length.
    """
    passes = []
    budget = phase.get("seconds")
    began = time.perf_counter()
    while True:
        records = []
        prev = None
        for argv in phase["calls"]:
            rec = run_call([_fill(a, f"{index}-{len(passes)}", prev) for a in argv])
            records.append(rec)
            prev = rec
        passes.append(records)
        if budget is None:
            return passes
        elapsed = time.perf_counter() - began
        if elapsed + 0.5 * elapsed / len(passes) > budget:
            return passes


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = Tracer()
    phases = []
    for index, phase in enumerate(plan["phases"]):
        if phase["traced"]:
            tracer.install(phase["workload"])
        try:
            passes = run_phase(phase, index)
        finally:
            tracer.uninstall()
        phases.append({**phase, "passes": passes})
    result = {"phases": phases}
    if any(p["traced"] for p in plan["phases"]):
        tracer.save(plan["spans_path"])
        result["trace"] = tracer.summary()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
