"""Replay of experiment-style event files through the certification pipeline.

Input is JSONL, one time-tagged coincidence per line:

    {"window_id": <uint>, "input": [i1,i2,i3,i4], "t_ps": <uint64>,
     "outcomes": [o1,o2,o3,o4]}

with inputs in {0,1} and outcomes in {-1,1}. All events of a window share one
input (one acquisition per randomly chosen setting); timestamps are
nondecreasing within a window. Two analysis modes mirror the two ways of
turning acquisitions into game rounds: ``strict`` keeps one uniformly chosen
event per window (true one-to-one input/output correspondence), ``decomposed``
keeps every event and shuffles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bell import NonlocalGame
from .certification import CertificationQuery, max_certified_extractability
from .rng import TAG_HOLDOUT, TAG_SCORE, TAG_SELECT, TAG_SHUFFLE, rng_for
from .selftest import SelfTestBound
from .simulate import Transcript

WINDOW_SPAN_PS = 15_000_000_000_000  # 15 s acquisition per input


@dataclass(frozen=True)
class EventRecord:
    window_id: int
    input: tuple
    t_ps: int
    outcomes: tuple

    def to_dict(self) -> dict:
        return {
            "window_id": self.window_id,
            "input": list(self.input),
            "t_ps": self.t_ps,
            "outcomes": list(self.outcomes),
        }


@dataclass(frozen=True)
class ReplayRound:
    window_id: int
    input: tuple
    outcomes: tuple
    won: bool


def _parse_line(line: str, lineno: int) -> EventRecord:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: not valid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"line {lineno}: expected an object")
    try:
        window_id = doc["window_id"]
        inputs = doc["input"]
        t_ps = doc["t_ps"]
        outcomes = doc["outcomes"]
    except KeyError as exc:
        raise ValueError(f"line {lineno}: missing field {exc.args[0]!r}") from None
    if not isinstance(window_id, int) or window_id < 0:
        raise ValueError(f"line {lineno}: window_id must be a nonnegative integer")
    if not isinstance(t_ps, int) or t_ps < 0:
        raise ValueError(f"line {lineno}: t_ps must be a nonnegative integer")
    if not (isinstance(inputs, list) and len(inputs) == 4 and all(i in (0, 1) for i in inputs)):
        raise ValueError(f"line {lineno}: input must be four settings in {{0,1}}")
    if not (
        isinstance(outcomes, list) and len(outcomes) == 4 and all(o in (-1, 1) for o in outcomes)
    ):
        raise ValueError(f"line {lineno}: outcomes must be four values in {{-1,1}}")
    return EventRecord(window_id, tuple(inputs), t_ps, tuple(outcomes))


def parse_events(stream) -> list[EventRecord]:
    """Parse and validate a JSONL stream (any iterable of lines).

    Raises with the offending line number on malformed records, and with the
    window id when a window carries inconsistent inputs or decreasing
    timestamps.
    """
    events: list[EventRecord] = []
    window_inputs: dict[int, tuple] = {}
    window_last_t: dict[int, int] = {}
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        event = _parse_line(line, lineno)
        known = window_inputs.setdefault(event.window_id, event.input)
        if known != event.input:
            raise ValueError(
                f"window {event.window_id}: inconsistent inputs "
                f"{list(known)} vs {list(event.input)} (line {lineno})"
            )
        last = window_last_t.get(event.window_id)
        if last is not None and event.t_ps < last:
            raise ValueError(
                f"window {event.window_id}: timestamps decrease (line {lineno})"
            )
        window_last_t[event.window_id] = event.t_ps
        events.append(event)
    return events


def _score(game: NonlocalGame, inputs: tuple, outcomes: tuple, rng) -> bool:
    """Win flag for a recorded round.

    The generating term is not recorded, so it is drawn from the posterior
    P(term | input) ∝ |c|·2^(−#uninvolved) over the terms consistent with the
    input; for functionals whose terms involve every party this is a point
    mass.
    """
    compatible = []
    weights = []
    for k, term in enumerate(game.functional.terms):
        ok = all(
            setting is None or setting == inputs[p]
            for p, setting in enumerate(term.settings)
        )
        if ok:
            compatible.append(k)
            uninvolved = sum(1 for s in term.settings if s is None)
            weights.append(abs(term.coefficient) * 0.5**uninvolved)
    if not compatible:
        raise ValueError(
            f"input {list(inputs)} matches no term of operator "
            f"{game.functional.name!r}"
        )
    if len(compatible) == 1:
        k = compatible[0]
    else:
        total = sum(weights)
        k = int(rng.choice(compatible, p=[w / total for w in weights]))
    return game.won(k, outcomes)


def strict_select(
    events: list[EventRecord], game: NonlocalGame, seed: int = 0
) -> list[ReplayRound]:
    """One uniformly chosen event per window, in order of first appearance."""
    order: list[int] = []
    grouped: dict[int, list[EventRecord]] = {}
    for event in events:
        if event.window_id not in grouped:
            order.append(event.window_id)
            grouped[event.window_id] = []
        grouped[event.window_id].append(event)
    rounds = []
    for window_id in order:
        bunch = grouped[window_id]
        pick = bunch[int(rng_for(seed, window_id, TAG_SELECT).integers(0, len(bunch)))]
        won = _score(game, pick.input, pick.outcomes, rng_for(seed, window_id, TAG_SCORE))
        rounds.append(ReplayRound(window_id, pick.input, pick.outcomes, won))
    return rounds


def decomposed(
    events: list[EventRecord], game: NonlocalGame, seed: int = 0
) -> list[ReplayRound]:
    """Every event becomes a round; rounds are shuffled by a seeded permutation."""
    rounds = [
        ReplayRound(
            e.window_id, e.input, e.outcomes,
            _score(game, e.input, e.outcomes, rng_for(seed, ordinal, TAG_SCORE)),
        )
        for ordinal, e in enumerate(events)
    ]
    perm = rng_for(seed, 0, TAG_SHUFFLE).permutation(len(rounds))
    return [rounds[i] for i in perm]


def hold_out(rounds: list[ReplayRound], rng) -> tuple[int, list[ReplayRound]]:
    """Remove exactly one uniformly chosen round; the rest form the verification set."""
    if not rounds:
        raise ValueError("no rounds to hold out from")
    held = int(rng.integers(0, len(rounds)))
    return held, rounds[:held] + rounds[held + 1 :]


def replay(
    events: list[EventRecord],
    game: NonlocalGame,
    bound: SelfTestBound,
    mode: str = "strict",
    delta: float = 0.01,
    seed: int = 0,
) -> dict:
    """Full replay: rounds from events, hold-out, pass rate, certification."""
    if mode == "strict":
        rounds = strict_select(events, game, seed)
    elif mode == "decomposed":
        rounds = decomposed(events, game, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}; choose strict or decomposed")

    n = len(rounds)
    if n < 2:
        return {
            "mode": mode,
            "n": n,
            "n_win": 0,
            "pass_rate": None,
            "held_out_index": None,
            "feasible": False,
        }
    held_index, verification = hold_out(rounds, rng_for(seed, 0, TAG_HOLDOUT))
    n_win = sum(r.won for r in verification)
    pass_rate = n_win / (n - 1)
    query = CertificationQuery(
        n=n,
        delta=delta,
        pass_rate=pass_rate,
        bound=bound,
        p_qm=game.p_qm,
        mu_meas=(n - 1) / n,
    )
    report = max_certified_extractability(query)
    return {
        "mode": mode,
        "n": n,
        "n_win": n_win,
        "pass_rate": pass_rate,
        "held_out_index": held_index,
        "report": report,
        "feasible": report.feasible,
    }


def events_from_transcript(
    transcript: Transcript, window_span_ps: int = WINDOW_SPAN_PS
) -> list[EventRecord]:
    """Synthetic event file content from a simulated transcript.

    Each measured round becomes one acquisition window holding one event,
    timestamped at the window start; held-out rounds were never measured and
    leave no events.
    """
    events = []
    for ordinal, record in enumerate(transcript.measured_rounds()):
        events.append(
            EventRecord(
                window_id=ordinal,
                input=record.input,
                t_ps=ordinal * window_span_ps,
                outcomes=record.outcomes,
            )
        )
    return events


def events_to_jsonl(events: list[EventRecord]) -> str:
    return "\n".join(json.dumps(e.to_dict()) for e in events) + "\n"
