"""Workload definitions: the CLI calls each workload makes and what they must return.

Every workload is a list of ``ghzcert`` CLI calls (one *pass*). The benchmark
repeats passes for the requested time. Inputs derive from the benchmark seed
only: the seed orders the ``bound`` calls, seeds ``simulate`` and ``replay``,
and seeds the generator of the replay event file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ghzcert.certification import noisy_pass_rate, operator_context
from ghzcert.quantum import noisy_ghz
from ghzcert.simulate import BlockCorrelated, outcome_table

import checks

NAMES = ("bound", "protocol", "replay")

# bound: (operator, grid step) searched at --s-tol 1e-4; reference slopes are
# the outputs of the seed commit, which any later search must reproduce.
S_TOL = 1e-4
SLACK = 1e-9
BOUND_SEARCHES = (("mermin", math.pi / 24), ("zhao", math.pi / 12))
REFERENCE_SLOPES = {"mermin": 0.21875, "zhao": 0.99188232421875}

# protocol: an IID source and a block-correlated source whose noise level
# changes per block (a third Generator per round at the seed commit).
IID = {"alpha": 0.05, "n": 100_000}
BLOCK = {"alpha_good": 0.05, "alpha_bad": 1.0, "block_length": 100,
         "bad_fraction": 0.1, "n": 50_000}
N_CERT = 1
DELTA = 0.01

# replay: windows of events sharing one input drawn from the mermin game,
# outcomes Born-sampled from the white-noise GHZ state.
REPLAY_WINDOWS = 20_000
EVENTS_PER_WINDOW = 10
REPLAY_ALPHA = 0.05
WINDOW_SPAN_PS = 15_000_000_000_000
EVENT_SPACING_PS = 1_000_000


@dataclass
class Call:
    """One CLI call and its check.

    In argv, ``{pass}`` becomes a label unique to the phase and pass, and
    ``{prev:<key>}`` the value of ``key`` in the previous call's JSON output.
    """

    argv: list
    check: object  # callable(call_record) -> list of problems
    work: int = 0  # slope searches, rounds or events this call processes


@dataclass
class Workload:
    calls: list = field(default_factory=list)
    work_unit: str = ""
    facts: dict = field(default_factory=dict)  # input counts the metrics divide by

    def work_calls(self) -> list[int]:
        """Indexes of the calls whose time the throughput metric divides into."""
        return [i for i, c in enumerate(self.calls) if c.work]

    def work_per_pass(self) -> int:
        return sum(c.work for c in self.calls)


def bound_workload(seed: int, threads: int) -> Workload:
    """``ghzcert bound`` on mermin (π/24) and zhao (π/12); the seed picks the order."""
    order = list(BOUND_SEARCHES)
    if seed % 2:
        order.reverse()
    load = Workload(work_unit="slope searches")
    for operator, step in order:
        argv = ["bound", "--operator", operator, "--grid-step", repr(step),
                "--s-tol", repr(S_TOL), "--slack", repr(SLACK), "--threads", str(threads)]
        expect = {"operator": operator, "s": REFERENCE_SLOPES[operator],
                  "s_tol": S_TOL, "slack": SLACK}
        load.calls.append(Call(argv, lambda rec, e=expect: checks.check_bound(rec, e), 1))
    return load


def block_expectation(seed: int) -> tuple[float, float]:
    """Exact mean pass rate and its standard deviation for the block source."""
    n = BLOCK["n"]
    source = BlockCorrelated(
        alpha_good=BLOCK["alpha_good"], alpha_bad=BLOCK["alpha_bad"],
        block_length=BLOCK["block_length"], bad_fraction=BLOCK["bad_fraction"],
    )
    rate_at = {}
    total = 0.0
    variance = 0.0
    for j in range(n):
        alpha = source.alpha_at(j, n, seed)
        if alpha not in rate_at:
            rate_at[alpha] = noisy_pass_rate("mermin", alpha)
        p = rate_at[alpha]
        total += p
        variance += p * (1.0 - p)
    measured = n - N_CERT
    return total / n, math.sqrt(variance) / measured


def iid_expectation() -> tuple[float, float]:
    p = noisy_pass_rate("mermin", IID["alpha"])
    measured = IID["n"] - N_CERT
    return p, math.sqrt(p * (1.0 - p) / measured)


def protocol_workload(seed: int, tmp: Path) -> Workload:
    """``ghzcert simulate`` on the IID (1e5 rounds) and block (5e4 rounds) sources."""
    _, game, bound = operator_context("mermin")
    load = Workload(work_unit="rounds")
    iid_mean, iid_sigma = iid_expectation()
    block_mean, block_sigma = block_expectation(seed)
    specs = [
        (["--source", "iid", "--alpha", repr(IID["alpha"]), "--n", str(IID["n"])],
         IID["n"], iid_mean, iid_sigma, "iid"),
        (["--source", "block", "--alpha-good", repr(BLOCK["alpha_good"]),
          "--alpha-bad", repr(BLOCK["alpha_bad"]),
          "--block-length", str(BLOCK["block_length"]),
          "--bad-fraction", repr(BLOCK["bad_fraction"]), "--n", str(BLOCK["n"])],
         BLOCK["n"], block_mean, block_sigma, "block"),
    ]
    for flags, n, mean, sigma, tag in specs:
        out = tmp / f"{tag}-{{pass}}.jsonl"
        argv = ["simulate", *flags, "--nc", str(N_CERT), "--delta", repr(DELTA),
                "--operator", "mermin", "--seed", str(seed), "--out", str(out)]
        expect = {"n": n, "n_cert": N_CERT, "mean": mean, "sigma": sigma,
                  "delta": DELTA, "p_qm": game.p_qm, "c": bound.c}
        load.calls.append(
            Call(argv, lambda rec, e=expect: checks.check_simulate(rec, e), n)
        )
    return load


def write_event_file(path: Path, seed: int) -> dict:
    """Write the replay event file; returns the counts the replay checks need.

    Each window's input comes from the mermin game distribution; its events'
    outcomes are inverse-CDF samples of the Born table row of that input.
    """
    functional, game, _ = operator_context("mermin")
    rng = np.random.default_rng(seed)
    terms = functional.terms
    term_index = rng.choice(len(terms), size=REPLAY_WINDOWS, p=game.input_distribution)
    settings = np.array([[-1 if s is None else s for s in t.settings] for t in terms])
    inputs = settings[term_index]
    free = inputs < 0
    inputs[free] = rng.integers(0, 2, size=int(free.sum()))

    table = outcome_table(noisy_ghz(REPLAY_ALPHA), functional.ideal_settings).reshape(16, 16)
    cdf = np.cumsum(table[inputs @ np.array([8, 4, 2, 1])], axis=1)
    u = rng.random((REPLAY_WINDOWS, EVENTS_PER_WINDOW))
    outcome_index = np.minimum((u[:, :, None] >= cdf[:, None, :]).sum(axis=2), 15)
    bits = (outcome_index[:, :, None] >> np.array([3, 2, 1, 0])) & 1
    outcomes = 1 - 2 * bits  # bit 0 -> +1

    won = checks.mermin_wins(inputs, outcomes, functional)
    lines = []
    for w in range(REPLAY_WINDOWS):
        a, b, c, d = inputs[w]
        base = w * WINDOW_SPAN_PS
        for e in range(EVENTS_PER_WINDOW):
            o = outcomes[w, e]
            lines.append(
                f'{{"window_id": {w}, "input": [{a}, {b}, {c}, {d}], '
                f'"t_ps": {base + e * EVENT_SPACING_PS}, '
                f'"outcomes": [{o[0]}, {o[1]}, {o[2]}, {o[3]}]}}\n'
            )
    path.write_text("".join(lines), encoding="utf-8")
    return {
        "windows": REPLAY_WINDOWS,
        "events": REPLAY_WINDOWS * EVENTS_PER_WINDOW,
        "wins": int(won.sum()),
        "windows_any_win": int(won.any(axis=1).sum()),
        "windows_all_win": int(won.all(axis=1).sum()),
    }


def replay_workload(seed: int, tmp: Path) -> Workload:
    """Strict and decomposed replay of a generated event file, then the fig4 sweep."""
    _, game, bound = operator_context("mermin")
    path = tmp / "events.jsonl"
    counts = write_event_file(path, seed)
    common = {"delta": DELTA, "p_qm": game.p_qm, "c": bound.c, **counts}
    load = Workload(work_unit="events", facts=counts)
    for mode in ("strict", "decomposed"):
        argv = ["replay", "--input", str(path), "--mode", mode, "--operator", "mermin",
                "--delta", repr(DELTA), "--seed", str(seed)]
        expect = {**common, "mode": mode}
        load.calls.append(
            Call(argv, lambda rec, e=expect: checks.check_replay(rec, e), counts["events"])
        )
    argv = ["sweep", "--figure", "fig4", "--operator", "mermin", "--delta", repr(DELTA),
            "--pass-rate", "{prev:pass_rate}"]
    load.calls.append(Call(argv, lambda rec: checks.check_sweep(rec, common)))
    return load


def build(name: str, seed: int, tmp: Path, threads: int) -> Workload:
    if name == "bound":
        return bound_workload(seed, threads)
    if name == "protocol":
        return protocol_workload(seed, tmp)
    if name == "replay":
        return replay_workload(seed, tmp)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
