"""ghzcert benchmark: three seeded workloads through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {bound,protocol,replay} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` runs the workload's CLI calls in a fresh interpreter for about
S seconds and reports the end-to-end metrics, with times scaled to a
reference machine speed by calibrations taken while the calls run.
``--trace 1`` runs every workload once untraced and once traced (single
worker), whatever ``--workload`` says, so that each per-layer metric is
measured on the workload that exercises its layer; it takes about 90 s and
ignores S.
Every CLI output is checked; the last stdout line is the JSON result, the
line before it records the environment. Run ``python3 perfbench/selfcheck.py``
to see the checks reject wrong outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 175.0
SETUP_REPEATS = 5  # before and again after the measured calls
BOUND_THREADS = 2  # nproc on the reference machine; exercises the per-pass pool
# The host's speed drifts by tens of percent from one second to the next, so
# timed metrics are scaled to a reference speed: untraced runs pause the child
# every SAMPLE_EVERY_S seconds to time a fixed calibration kernel on the CPUs
# it was running on, and divide each call's time by the kernel's mean time
# during it (set-up probes by the kernel just before and after, on every CPU).
# CAL_REF_S is the kernel's time on a quiet reference host (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6); it only sets the scale.
SAMPLE_EVERY_S = 0.3
CAL_REPEATS = 2
CAL_REF_S = 0.005
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(env: dict, repeats: int, warm: bool) -> list[float]:
    """Times from spawning an interpreter to ``import ghzcert.cli`` + parser ready.

    Each time is scaled to the reference speed by the calibrations taken just
    before and after its probe. With ``warm``, one unmeasured start first
    compiles the bytecode, which users pay once.
    """
    code = "import ghzcert.cli as c; c.build_parser(); print('ready', flush=True)"
    times = []
    cpus = os.sched_getaffinity(0)
    cal = calibration(cpus)
    for _ in range(repeats + warm):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed: ghzcert.cli did not import")
        before, cal = cal, calibration(cpus)
        times.append(elapsed * CAL_REF_S / (0.5 * (before + cal)))
    return times[1:] if warm else times


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:  # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


@cache
def _cal_matrices():
    import numpy as np  # after main() pins the BLAS threads

    half = np.random.default_rng(0).standard_normal((128, 16, 16))
    return half + half.transpose(0, 2, 1)


def _kernel() -> None:
    """Fixed work in the mix the CLI does: bytecode, dicts, JSON, small eigensolves."""
    import numpy as np

    acc = 0
    table = {}
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 2047] = acc
    json.loads(json.dumps(list(table.items())))
    np.linalg.eigvalsh(_cal_matrices())


def calibration(cpus) -> float:
    """The machine's current speed: kernel seconds on each of ``cpus``, averaged.

    The CPUs slow down unevenly, so the kernel runs on each CPU the calls ran
    on, in turn (median of a few repeats per CPU).
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(CAL_REPEATS):
                start = time.perf_counter()
                _kernel()
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(per_cpu)


def running_cpus(pgid: int) -> set[int]:
    """CPUs the group's running processes are on; the leader's last CPU if none runs."""
    cpus, leader = set(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # fields after the command name, from field 3 (state) on
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process has ended
            continue
        if int(fields[2]) != pgid:
            continue
        cpu = int(fields[36])  # field 39: the CPU it last ran on
        if fields[0] == "R":
            cpus.add(cpu)
        if stat.parent.name == str(pgid):
            leader.add(cpu)
    return (cpus or leader) & os.sched_getaffinity(0) or os.sched_getaffinity(0)


def paused_calibration(pgid: int) -> tuple[float, float, float] | None:
    """Stops the child's process group, times the kernel, resumes the group.

    The kernel runs on the CPUs the group was running on when stopped.
    Returns (paused at, resumed at, kernel seconds), or None if the group is gone.
    """
    cpus = running_cpus(pgid)
    paused = time.monotonic()
    try:
        os.killpg(pgid, signal.SIGSTOP)
    except ProcessLookupError:
        return None
    try:
        seconds = calibration(cpus)
    finally:
        try:
            os.killpg(pgid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    return paused, time.monotonic(), seconds


def run_child(plan: dict, tmp: Path, env: dict, deadline: float,
              sample: bool) -> tuple[dict, list]:
    """Runs child.py on the plan; with ``sample``, also takes paused calibrations."""
    plan_path, result_path = tmp / "plan.json", tmp / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    samples = []
    # own session, so killing its group also ends the pool workers it forked
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path)],
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        while True:
            left = deadline - time.monotonic()
            try:
                code = proc.wait(timeout=max(0.01, min(left, SAMPLE_EVERY_S) if sample else left))
                break
            except subprocess.TimeoutExpired:
                if left <= 0:
                    raise
            sampled = paused_calibration(proc.pid) if sample else None
            if sampled is not None:
                samples.append(sampled)
    except BaseException:  # timeout, interrupt or SIGTERM: take the children down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"benchmark child exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), samples


def check_phase(phase: dict, load) -> tuple[int, int]:
    """(attempted, failed) over every call of every pass in a phase."""
    attempted = failed = 0
    for records in phase["passes"]:
        for call, rec in zip(load.calls, records):
            attempted += 1
            problems = call.check(rec)
            if problems:
                failed += 1
                print(f"FAILED {' '.join(rec['argv'])}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def scale_calls(phase: dict, samples: list) -> None:
    """Gives each call ``run_s`` (its seconds minus pauses) and ``ref_s`` (at reference speed).

    The speed during a call is the mean kernel time of the samples taken while
    it ran, or of the nearest sample for a call shorter than the interval.
    """
    if not samples:
        raise RuntimeError("the child ended before the first calibration sample")
    for records in phase["passes"]:
        for rec in records:
            lo, hi = rec["t_start"], rec["t_end"]
            paused = sum(max(0.0, min(hi, b) - max(lo, a)) for a, b, _ in samples)
            inside = [k for a, b, k in samples if a < hi and b > lo]
            if not inside:
                inside = [min(samples, key=lambda smp: abs(smp[0] - lo))[2]]
            rec["run_s"] = rec["seconds"] - paused
            rec["ref_s"] = rec["run_s"] * CAL_REF_S / statistics.mean(inside)


def pass_walls(phase: dict, key: str = "seconds") -> list[float]:
    return [sum(r[key] for r in records) for records in phase["passes"]]


def throughputs(phase: dict, load, key: str) -> list[float]:
    idx = load.work_calls()
    return [load.work_per_pass() / sum(records[i][key] for i in idx)
            for records in phase["passes"]]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, walls: dict, loads: dict) -> dict:
    """Per-layer metrics from the traced phases' self times and counts."""

    def get(workload, name, key):
        return trace["spans"].get(workload, {}).get(name, {}).get(key, 0)

    b, p, r = "bound", "protocol", "replay"
    points = get(b, "selftest.certificate_eigenvalues", "items")
    rounds = loads[p].work_per_pass()
    events, windows = loads[r].facts["events"], loads[r].facts["windows"]
    events_fed = loads[r].work_per_pass()
    rng_calls = get(p, "rng.rng_for@simulate", "calls") + get(r, "rng.rng_for@replay", "calls")
    rng_self = get(p, "rng.rng_for@simulate", "self_s") + get(r, "rng.rng_for@replay", "self_s")
    won_calls = get(p, "bell.won", "calls") + get(r, "bell.won", "calls")
    won_self = get(p, "bell.won", "self_s") + get(r, "bell.won", "self_s")
    inversions = get(r, "certification.max_certified_extractability", "calls")
    dispatches = sum(get(w, "cli.dispatch", "calls") for w in (b, p, r))
    cli_self = sum(get(w, "cli.dispatch", "self_s") for w in (b, p, r))
    return {
        "selftest.grid_passes": _div(get(b, "selftest.evaluate_grid", "calls"),
                                     get(b, "selftest.bound_search", "calls")),
        "selftest.points_evaluated": points,
        "selftest.point_reuse": _div(points, trace["distinct_grid_points"]),
        "selftest.assembly_us_per_point":
            1e6 * _div(get(b, "selftest.certificate_eigenvalues", "self_s"), points),
        "selftest.eig_us_per_point": 1e6 * _div(get(b, "selftest.eigvalsh", "total_s"), points),
        "selftest.pass_s": _div(get(b, "selftest.evaluate_grid", "total_s"),
                                get(b, "selftest.evaluate_grid", "calls")),
        "selftest.pool_overhead_s":
            walls[(b, False)] - get(b, "selftest.bound_search", "total_s"),
        "rng.generators_per_round": _div(get(p, "rng.rng_for@simulate", "calls"), rounds),
        "rng.generators_per_event": _div(get(r, "rng.rng_for@replay", "calls"), events_fed),
        "rng.build_us": 1e6 * _div(rng_self, rng_calls),
        "simulate.sample_us_per_round":
            1e6 * _div(get(p, "simulate.run_protocol", "self_s"), rounds),
        "simulate.write_us_per_round": 1e6 * _div(get(p, "simulate.to_jsonl", "total_s"), rounds),
        "simulate.table_ms": 1e3 * _div(get(p, "simulate.outcome_table", "total_s"),
                                        get(p, "simulate.outcome_table", "calls")),
        "bell.won_us_per_call": 1e6 * _div(won_self, won_calls),
        "replay.parse_us_per_event": 1e6 * _div(get(r, "replay.parse_events", "self_s"), events_fed),
        "replay.select_us_per_window":
            1e6 * _div(get(r, "replay.strict_select", "self_s"), windows),
        "replay.decompose_us_per_event": 1e6 * _div(get(r, "replay.decomposed", "self_s"), events),
        "replay.holdout_ms": 1e3 * _div(get(r, "replay.hold_out", "total_s"),
                                        get(r, "replay.hold_out", "calls")),
        "certification.inversions": inversions,
        "certification.bound_evals_per_inversion":
            _div(get(r, "certification.confidence_bound", "calls"), inversions),
        "certification.inversion_us":
            1e6 * _div(get(r, "certification.max_certified_extractability", "total_s"), inversions),
        "cli.self_ms": 1e3 * _div(cli_self, dispatches),
        "trace.overhead_s": sum(walls[(w, True)] - walls[(w, False)] for w in (p, r)),
    }


UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput_ref": "1/s"}
LAYER_UNITS = {
    "selftest.grid_passes": "1/search", "selftest.points_evaluated": "count",
    "selftest.point_reuse": "ratio", "selftest.assembly_us_per_point": "us",
    "selftest.eig_us_per_point": "us", "selftest.pass_s": "s", "selftest.pool_overhead_s": "s",
    "rng.generators_per_round": "1/round", "rng.generators_per_event": "1/event",
    "rng.build_us": "us", "simulate.sample_us_per_round": "us",
    "simulate.write_us_per_round": "us", "simulate.table_ms": "ms", "bell.won_us_per_call": "us",
    "replay.parse_us_per_event": "us", "replay.select_us_per_window": "us",
    "replay.decompose_us_per_event": "us", "replay.holdout_ms": "ms",
    "certification.inversions": "count", "certification.bound_evals_per_inversion": "ratio",
    "certification.inversion_us": "us", "cli.self_ms": "ms", "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bound", "protocol", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ghzcert" / "cli.py").is_file():
        print(f"perfbench: no ghzcert sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy loads, here as in the children
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    info = environment(args)
    if not args.trace:
        setup = setup_times(env, SETUP_REPEATS, warm=True)

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP_ROOT))
    try:
        if args.trace:
            names = workloads.NAMES
            loads = {(w, False): workloads.build(w, args.seed, tmp, BOUND_THREADS) for w in names}
            loads.update({(w, True): loads[(w, False)] for w in names})
            loads[("bound", True)] = workloads.build("bound", args.seed, tmp, 1)
            phases = [{"workload": w, "traced": t, "seconds": None,
                       "calls": [c.argv for c in loads[(w, t)].calls]}
                      for w in names for t in (False, True)]
        else:
            loads = {(args.workload, False): workloads.build(
                args.workload, args.seed, tmp, BOUND_THREADS)}
            phases = [{"workload": args.workload, "traced": False, "seconds": args.seconds,
                       "calls": [c.argv for c in loads[(args.workload, False)].calls]}]
        OUT_DIR.mkdir(exist_ok=True)
        plan = {"phases": phases,
                "spans_path": str(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")}
        result, samples = run_child(plan, tmp, env, deadline, sample=not args.trace)

        attempted = failed = 0
        for phase in result["phases"]:
            a, f = check_phase(phase, loads[(phase["workload"], phase["traced"])])
            attempted += a
            failed += f
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        walls = {(p["workload"], p["traced"]): pass_walls(p)[0] for p in result["phases"]}
        metrics = layer_metrics(result["trace"], walls,
                                {w: loads[(w, False)] for w in workloads.NAMES})
        units = LAYER_UNITS
        info["missing_hooks"] = result["trace"]["missing_hooks"]
    else:
        phase = result["phases"][0]
        load = loads[(args.workload, False)]
        scale_calls(phase, samples)
        # probes on both sides of the calls sample the machine at two times
        setup += setup_times(env, SETUP_REPEATS, warm=False)
        metrics = {
            "wall_ref_s": statistics.median(pass_walls(phase, "ref_s")),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "throughput_ref": statistics.median(throughputs(phase, load, "ref_s")),
        }
        info["wall_s"] = statistics.median(pass_walls(phase, "run_s"))
        info["throughput"] = statistics.median(throughputs(phase, load, "run_s"))
        info["call_seconds"] = [[r["run_s"] for r in records] for records in phase["passes"]]
        info["calibrations"] = len(samples)
        info["calibration_s"] = statistics.median(k for _, _, k in samples)
        info["throughput_unit"] = f"{load.work_unit} per second"
        units = UNITS
    info["failed_frac"] = failed / attempted
    print(json.dumps({"bench_env": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
