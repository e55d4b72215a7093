"""Command-line front end with reproducible, machine-readable outputs.

Subcommands: ``bound`` (self-testing bound search), ``certify`` (finite-sample
inversion), ``simulate`` (protocol Monte Carlo), ``sweep`` (comparison
curves), ``replay`` (event-file analysis). Same flags and seed give
byte-identical output.

Exit status: 0 success, 1 infeasible certification or failed bound search
(a report is still emitted), 2 usage errors (a one-line JSON ``{"error": ...}``
on stdout for values the argument parser cannot check and for input files
that cannot be read). JSON output is strict: undefined values are ``null``,
never NaN.

``dispatch`` parses with one parser, built on its first call and kept for the
process; ``build_parser`` returns a new one on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .bell import OPERATORS, functional_from_json, get_functional
from .certification import (
    SWEEP_FIGURES,
    CertificationQuery,
    max_certified_extractability,
    operator_context,
    sweep,
)
from .replay import MODES, parse_events, replay
from .selftest import (
    DEFAULT_GRID_STEP,
    DEFAULT_SLACK,
    BoundSearchError,
    bound_search,
    snap_grid_step,
)
from .simulate import BlockCorrelated, Drifting, IIDNoisy, run_protocol

DEFAULT_SEED = 271828
OPERATOR_CHOICES = tuple(OPERATORS)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def _csv(rows) -> str:
    def fmt_x(x):
        xf = float(x)
        return str(int(xf)) if xf == int(xf) else repr(xf)

    def fmt_v(v):
        vf = float(v)
        return "nan" if math.isnan(vf) else repr(vf)

    lines = ["x,value,operator"]
    lines.extend(f"{fmt_x(x)},{fmt_v(v)},{op}" for x, v, op in rows)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``ghzcert`` command line."""
    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description="Sample-efficient device-independent GHZ state certification toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seed=True):
        if seed:
            p.add_argument(
                "--seed", type=int, default=DEFAULT_SEED,
                help=f"RNG seed (default {DEFAULT_SEED}, fixed for reproducibility)",
            )
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_bound = sub.add_parser("bound", help="numerical self-testing bound search")
    group = p_bound.add_mutually_exclusive_group()
    group.add_argument("--operator", choices=OPERATOR_CHOICES, default="mermin")
    group.add_argument(
        "--operator-file", default=None,
        help="JSON description of a custom Bell functional",
    )
    p_bound.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP,
                         help="Jordan-angle grid step (must divide pi/2 evenly)")
    p_bound.add_argument("--s-tol", type=float, default=None,
                         help="ignored: the slope search is exact")
    p_bound.add_argument("--slack", type=float, default=DEFAULT_SLACK,
                         help="allowed eigenvalue slack for grid feasibility")
    p_bound.add_argument("--threads", type=int, default=1,
                         help="ignored: the search runs in one thread (at least 1)")
    add_common(p_bound, seed=False)

    p_cert = sub.add_parser("certify", help="maximum certified extractability")
    p_cert.add_argument("--n", type=int, required=True, help="total number of copies")
    p_cert.add_argument("--delta", type=float, required=True, help="failure probability")
    p_cert.add_argument("--pass-rate", type=float, required=True,
                        help="observed verification pass rate P")
    p_cert.add_argument("--operator", choices=OPERATOR_CHOICES, default="mermin")
    p_cert.add_argument("--mu-meas", type=float, default=None,
                        help="measured fraction (default (N-1)/N, single-copy holdout)")
    add_common(p_cert, seed=False)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p_sim.add_argument("--source", choices=("iid", "drifting", "block"), default="iid")
    p_sim.add_argument("--alpha", type=float, default=0.05,
                       help="white-noise fraction (start value for drifting)")
    p_sim.add_argument("--alpha-end", type=float, default=None,
                       help="final noise fraction for the drifting source")
    p_sim.add_argument("--alpha-good", type=float, default=0.05)
    p_sim.add_argument("--alpha-bad", type=float, default=1.0)
    p_sim.add_argument("--block-length", type=int, default=100)
    p_sim.add_argument("--bad-fraction", type=float, default=0.1)
    p_sim.add_argument("--n", type=int, required=True, help="total rounds emitted")
    p_sim.add_argument("--nc", type=int, default=1, help="held-out copies")
    p_sim.add_argument("--operator", choices=OPERATOR_CHOICES, default="mermin")
    p_sim.add_argument("--delta", type=float, default=0.01)
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="comparison curves as CSV")
    p_sweep.add_argument("--figure", choices=SWEEP_FIGURES, required=True)
    p_sweep.add_argument("--operator", choices=OPERATOR_CHOICES, default="mermin")
    p_sweep.add_argument("--alpha", type=float, default=0.05)
    p_sweep.add_argument("--delta", type=float, default=0.01)
    p_sweep.add_argument("--eta", type=float, default=0.25)
    p_sweep.add_argument("--pass-rate", type=float, default=None,
                         help="fixed pass rate (fig4 mode)")
    add_common(p_sweep, seed=False)

    p_replay = sub.add_parser("replay", help="replay a JSONL event file")
    p_replay.add_argument("--input", required=True, help="event file (JSONL)")
    p_replay.add_argument("--mode", choices=MODES, default="strict")
    p_replay.add_argument("--operator", choices=OPERATOR_CHOICES, default="mermin")
    p_replay.add_argument("--delta", type=float, default=0.01)
    add_common(p_replay)

    return parser


_shared_parser = functools.cache(build_parser)


def _cmd_bound(args) -> int:
    if args.operator_file is not None:
        functional = functional_from_json(Path(args.operator_file).read_text(encoding="utf-8"))
    else:
        functional = get_functional(args.operator)
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads!r}")
    step, _ = snap_grid_step(args.grid_step)
    try:
        result = bound_search(functional, grid_step=step, slack=args.slack)
    except BoundSearchError as exc:
        _emit(_json({"operator": functional.name, "error": str(exc)}), args.out)
        return 1
    record = {
        "operator": functional.name,
        "s": result.bound.s,
        "mu": result.bound.mu,
        "c": result.bound.c,
        "grid_step": step,
        "points": result.points,
        "group_order": result.group_order,
        "worst_point": list(result.worst_point),
        "min_eig": result.min_eig,
    }
    _emit(_json(record), args.out)
    return 0


def _cmd_certify(args) -> int:
    functional, game, bound = operator_context(args.operator)
    # max(n, 1) leaves n < 2 for CertificationQuery to reject as a usage error
    mu_meas = args.mu_meas if args.mu_meas is not None else (args.n - 1) / max(args.n, 1)
    query = CertificationQuery(
        n=args.n, delta=args.delta, pass_rate=args.pass_rate,
        bound=bound, p_qm=game.p_qm, mu_meas=mu_meas,
    )
    report = max_certified_extractability(query)
    _emit(_json(asdict(report)), args.out)
    return 0 if report.feasible else 1


def _cmd_simulate(args) -> int:
    if args.source == "iid":
        source = IIDNoisy(alpha=args.alpha)
    elif args.source == "drifting":
        end = args.alpha_end if args.alpha_end is not None else args.alpha
        source = Drifting(alpha_start=args.alpha, alpha_end=end)
    else:
        source = BlockCorrelated(
            alpha_good=args.alpha_good, alpha_bad=args.alpha_bad,
            block_length=args.block_length, bad_fraction=args.bad_fraction,
        )
    functional, game, bound = operator_context(args.operator)
    transcript, report = run_protocol(
        source, game, bound=bound, n_rounds=args.n, n_cert=args.nc,
        delta=args.delta, seed=args.seed,
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            transcript.to_jsonl(handle)
    summary = {
        "operator": args.operator,
        "source": args.source,
        "n": transcript.n,
        "n_cert": args.nc,
        "n_win": transcript.n_win,
        "pass_rate": transcript.pass_rate,
        "seed": transcript.seed,
        "certification": asdict(report),
    }
    sys.stdout.write(_json(summary) + "\n")
    return 0 if report.feasible else 1


def _cmd_sweep(args) -> int:
    rows = sweep(
        args.figure, args.operator, alpha=args.alpha, delta=args.delta,
        eta=args.eta, pass_rate=args.pass_rate,
    )
    _emit(_csv(rows), args.out)
    return 0


def _cmd_replay(args) -> int:
    with open(args.input, encoding="utf-8", errors="surrogateescape") as handle:
        events = parse_events(handle)
    functional, game, bound = operator_context(args.operator)
    transcript, report = replay(events, game, bound, mode=args.mode, delta=args.delta,
                                seed=args.seed)
    certified = report is not None  # at least 2 rounds: one held out, the rest measured
    payload = {
        "operator": args.operator,
        "mode": args.mode,
        "n": transcript.n,
        "n_win": transcript.n_win,
        "pass_rate": transcript.pass_rate,
        "held_out_index": int(transcript.held_out.argmax()) if certified else None,
        "certification": asdict(report) if certified else None,
    }
    _emit(_json(payload), args.out)
    return 0 if certified and report.feasible else 1


_COMMANDS = {
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "replay": _cmd_replay,
}


def dispatch(argv=None) -> int:
    """Run one subcommand; its exit status. The parser is built once per process."""
    args = _shared_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OSError, MemoryError) as exc:  # inputs the parser cannot check
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
