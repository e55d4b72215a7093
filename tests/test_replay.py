"""Event-file parsing and the strict/decomposed replay pipeline."""

import importlib
import json
import math
import re

import numpy as np
import pytest

from ghzcert.bell import baccari_functional, mermin_functional, to_game
from ghzcert.certification import CertificationQuery, max_certified_extractability, operator_context
from ghzcert.replay import (
    Events,
    decomposed,
    hold_out,
    parse_events,
    replay,
    strict_select,
)
from ghzcert.rng import TAG_HOLDOUT, rng_for
from ghzcert.simulate import IIDNoisy, run_protocol
from reference import events_from_transcript, events_to_jsonl

REPLAY_MODULE = importlib.import_module("ghzcert.replay")  # ghzcert.replay is the function

MERMIN_GAME = to_game(mermin_functional())

WIN = (1, 1, 1, 1)      # product +1
LOSE = (-1, 1, 1, 1)    # product -1


def event(window_id, input=(0, 0, 0, 0), t_ps=0, outcomes=WIN):
    return {"window_id": window_id, "input": list(input), "t_ps": t_ps,
            "outcomes": list(outcomes)}


def as_lines(docs):
    return [json.dumps(d) for d in docs]


def test_parse_empty_stream():
    assert len(parse_events([])) == 0


def test_parse_preserves_order():
    docs = [event(0, t_ps=10), event(1, t_ps=20), event(0, t_ps=30)]
    events = parse_events(as_lines(docs))
    assert len(events) == 3
    assert events.window_id.tolist() == [0, 1, 0]
    assert events.t_ps.tolist() == [10, 20, 30]
    assert events.inputs[0].tolist() == [0, 0, 0, 0]
    assert events.outcomes[0].tolist() == list(WIN)


def test_parse_reports_line_number():
    lines = [json.dumps(event(0)), "{not json"]
    with pytest.raises(ValueError, match="line 2"):
        parse_events(lines)


def test_parse_rejects_inconsistent_window_input():
    docs = [event(7, input=(0, 0, 0, 0)), event(7, input=(1, 1, 0, 0), t_ps=5)]
    with pytest.raises(ValueError, match="window 7"):
        parse_events(as_lines(docs))


def test_parse_rejects_decreasing_timestamps():
    docs = [event(3, t_ps=100), event(3, t_ps=50)]
    with pytest.raises(ValueError, match="window 3"):
        parse_events(as_lines(docs))


@pytest.mark.parametrize(
    "doc",
    [
        {"window_id": -1, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 2, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": -5, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": [0, 1, 1, 1]},
        {"window_id": 0, "input": [0, 0, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 2**64, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": 2**64, "outcomes": list(WIN)},
        {"window_id": True, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": False, "outcomes": list(WIN)},
        {"window_id": 0, "input": [True, 0, 0, 0], "t_ps": 0, "outcomes": list(WIN)},
        {"window_id": 0, "input": [0, 0, 0, 0], "t_ps": 0, "outcomes": [1, 1, True, 1]},
    ],
)
def test_parse_rejects_bad_fields(doc):
    with pytest.raises(ValueError, match="line 1"):
        parse_events([json.dumps(doc)])


def test_parse_keeps_full_uint64_range():
    top = 2**64 - 1
    events = parse_events(as_lines([event(top, t_ps=top)]))
    assert events.window_id.dtype == events.t_ps.dtype == np.uint64
    assert events.window_id.tolist() == events.t_ps.tolist() == [top]
    assert events.inputs.dtype == events.outcomes.dtype == np.int8


def test_parse_errors_across_chunk_boundaries(monkeypatch):
    """Chunks of 4 lines: errors name the exact line, blank lines included."""
    monkeypatch.setattr(REPLAY_MODULE, "PARSE_CHUNK_LINES", 4)
    valid = as_lines([event(w, t_ps=t) for t in range(3) for w in range(3)])  # 9 lines
    assert parse_events(valid) == parse_events(valid[:5] + ["", "  "] + valid[5:])

    bad = json.dumps(event(9, input=(0, 0, 2, 0)))
    lines = valid[:3] + ["", "   "] + valid[3:7] + [bad] + valid[7:]  # bad is line 10
    with pytest.raises(ValueError, match=r"^line 10: input must be"):
        parse_events(lines)

    # window 7 spans both chunks; window 2's later clash and line 7's bad field come after it
    spans = as_lines([event(1), event(7, t_ps=5), event(2), event(3),
                      event(7, input=(1, 1, 0, 0), t_ps=6), event(2, input=(1, 1, 0, 0))])
    with pytest.raises(ValueError) as exc:
        parse_events(spans + [bad])
    assert str(exc.value) == "window 7: inconsistent inputs [0, 0, 0, 0] vs [1, 1, 0, 0] (line 5)"

    spans = as_lines([event(1), event(2), event(5, t_ps=100), event(3), event(4),
                      event(6), event(5, t_ps=50)])
    with pytest.raises(ValueError) as exc:
        parse_events(spans + [bad])
    assert str(exc.value) == "window 5: timestamps decrease (line 7)"
    with pytest.raises(ValueError, match=r"^line 7: input must be"):
        parse_events(spans[:6] + [bad] + spans[6:])


def canonical(window_id, t_ps=0, input=(0, 0, 0, 0), outcomes=WIN):
    return json.dumps(event(window_id, input, t_ps, outcomes)) + "\n"


def swap(line, old, new):
    assert old in line
    return line.replace(old, new, 1)


_LINES = [canonical(w, t_ps=t) for t in range(3) for w in range(3)]  # 9 lines
_WITH_ID = [canonical(1), *(canonical(w, t_ps=10**17 + 1) for w in (
    10**18 - 1, 10**18, 12_345_678_901_234_567_890, 2**64 - 1))]
_SPLIT = canonical(2)
_LOSING = [canonical(w, t_ps=t, outcomes=LOSE) for t in range(3) for w in range(3)]
_EDGES = {"10**18": 10**18, "10**19 - 1": 10**19 - 1, "10**19": 10**19,
          "2**64 - 1": 2**64 - 1, "2**64": 2**64}


def compact(line):
    return json.dumps(json.loads(line), separators=(",", ":"))


PARSE_PATH_INPUTS = {
    "canonical": _LINES,
    "canonical, inconsistent window": _LINES + [canonical(1, 5, input=(1, 1, 0, 0))],
    "canonical, decreasing timestamps": _LINES + [canonical(2, 1)],
    "ids of 18 to 20 digits": _WITH_ID,
    "id 2**64": _WITH_ID + [canonical(2**64)],
    "leading zero": _LINES + [swap(canonical(4), ": 4,", ": 04,")],
    "-0 id": _LINES + [swap(canonical(4), ": 4,", ": -0,")],
    "-0 outcome": _LINES + [swap(canonical(4), "[1, 1", "[-0, 1")],
    "1.0 id": _LINES + [swap(canonical(4), ": 4,", ": 1.0,")],
    "true input": _LINES + [swap(canonical(4), "[0, 0", "[true, 0")],
    "extra spaces": _LINES + [swap(canonical(4), '{"', '{ "')],
    "reordered keys": _LINES + [json.dumps(dict(reversed(event(4).items()))) + "\n"],
    "extra key": _LINES + [json.dumps({**event(4), "extra": 1}) + "\n"],
    "crlf": _LINES[:4] + [swap(canonical(4), "\n", "\r\n")] + _LINES[4:],
    "no final newline": _LINES[:-1] + [_LINES[-1].rstrip("\n")],
    "blank line": _LINES[:3] + ["\n"] + _LINES[3:],
    # lines 1 and 2-3 join into canonical text, but neither line is a record
    "two records, then one split": [_LINES[0].rstrip("\n") + _LINES[1], _SPLIT[:30], _SPLIT[30:]],
    "bytes lines": [line.encode() for line in _LINES],
    # canonical lines without their newline, each next to a line that is respelled
    "canonical unterminated, compact": [line.rstrip("\n") if k % 2 else compact(line)
                                        for k, line in enumerate(_LOSING)],
    "bytes line, invalid UTF-8": [line.encode() for line in _LINES] + [b'{"window_id": \xff}\n'],
    "lone surrogate": _LINES + [json.dumps({**event(4), "x": "\udcff"}, ensure_ascii=False)],
    **{f"window_id {name}": _LINES + [canonical(value, t_ps=7)] for name, value in _EDGES.items()},
    **{f"t_ps {name}": _LINES + [canonical(4, t_ps=value)] for name, value in _EDGES.items()},
}


def parse_outcome(lines):
    try:
        return parse_events(lines)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("name", PARSE_PATH_INPUTS)
def test_parse_canonical_fast_path_agrees_with_json(name, chunk, monkeypatch):
    """Every input parses to the same events, or fails with the same error, with
    the canonical-line fast path on and off."""
    if chunk:  # canonical and non-canonical chunks mixed
        monkeypatch.setattr(REPLAY_MODULE, "PARSE_CHUNK_LINES", chunk)
    lines = PARSE_PATH_INPUTS[name]
    fast = parse_outcome(lines)
    monkeypatch.setattr(REPLAY_MODULE, "_CANONICAL", re.compile(r"(?!)"))  # never matches
    slow = parse_outcome(lines)
    assert type(fast) is type(slow) and fast == slow
    if isinstance(slow, Events):
        assert [a.dtype for a in vars(fast).values()] == [a.dtype for a in vars(slow).values()]


def test_parse_fast_path_reads_what_events_to_jsonl_writes():
    transcript, _ = run_protocol(IIDNoisy(0.3), MERMIN_GAME, n_rounds=201, n_cert=1, seed=62)
    events = events_from_transcript(transcript)
    top = Events(np.array([10**19 - 1], dtype=np.uint64), np.array([10**19 - 1], dtype=np.uint64),
                 np.ones((1, 4), dtype=np.int8), -np.ones((1, 4), dtype=np.int8))
    for table in (events, top):
        lines = events_to_jsonl(table).splitlines(keepends=True)
        assert all(map(REPLAY_MODULE._CANONICAL.fullmatch, lines))
        assert parse_events(lines) == table


def test_parse_scans_19_digit_canonical_lines_without_respelling(monkeypatch):
    def respell(line):
        raise AssertionError(f"respelled {line!r}")

    monkeypatch.setattr(REPLAY_MODULE, "_respell", respell)
    lines = [canonical(10**19 - 1 - w, t_ps=10**18 + t, outcomes=LOSE)
             for t in range(3) for w in range(3)]
    events = parse_events(lines)
    assert events.window_id.tolist() == [10**19 - 1 - w for _ in range(3) for w in range(3)]
    assert events.t_ps.tolist() == [10**18 + t for t in range(3) for _ in range(3)]
    assert (events.outcomes == np.array(LOSE)).all()


def test_parse_names_the_line_that_is_not_utf8():
    good = canonical(0).encode()
    bad = json.dumps(event(1)).encode().replace(b"}", b', "note": "\xff"}') + b"\n"
    with pytest.raises(ValueError, match=r"^line 2: not valid UTF-8$"):
        parse_events([good, bad])  # bytes lines
    with pytest.raises(ValueError, match=r"^line 2: not valid UTF-8$"):
        parse_events([line.decode(errors="surrogateescape") for line in (good, bad)])


def test_strict_select_identity_for_single_event_windows():
    docs = [event(i, t_ps=i) for i in range(5)]
    events = parse_events(as_lines(docs))
    rows, won = strict_select(events, MERMIN_GAME, seed=0)
    assert events.window_id[rows].tolist() == list(range(5))
    assert won.all()


def test_strict_select_uniform_over_window_events():
    """Each of k events is selected with probability 1/k across seeds."""
    k = 4
    docs = [event(0, t_ps=t, outcomes=WIN if t == 0 else LOSE) for t in range(k)]
    events = parse_events(as_lines(docs))
    # distinct t_ps identify the chosen event through the win flag pattern
    docs = [event(0, t_ps=t, outcomes=[(-1) ** t, 1, 1, 1]) for t in range(k)]
    events = parse_events(as_lines(docs))
    wins = 0
    reps = 10_000
    for seed in range(reps):
        _, won = strict_select(events, MERMIN_GAME, seed=seed)
        wins += won[0]
    sigma = math.sqrt(reps * 0.5 * 0.5)
    assert abs(wins - reps / 2) < 3 * sigma  # two of four events win


def test_strict_pass_rate_binomial():
    """Synthetic windows with win probability 0.975 reproduce it in strict mode."""
    rng = np.random.default_rng(41)
    n = 4000
    docs = []
    for w in range(n):
        won = rng.random() < 0.975
        docs.append(event(w, t_ps=w, outcomes=WIN if won else LOSE))
    _, won = strict_select(parse_events(as_lines(docs)), MERMIN_GAME, seed=1)
    rate = won.sum() / n
    sigma = math.sqrt(0.975 * 0.025 / n)
    assert abs(rate - 0.975) < 3 * sigma


def test_decomposed_keeps_every_event_and_shuffles():
    docs = [event(w, t_ps=w + k, outcomes=WIN if k == 0 else LOSE)
            for w in range(50) for k in range(3)]
    events = parse_events(as_lines(docs))
    rows, won = decomposed(events, MERMIN_GAME, seed=7)
    assert len(rows) == 150
    assert won.sum() == 50
    again_rows, again_won = decomposed(events, MERMIN_GAME, seed=7)
    assert np.array_equal(rows, again_rows) and np.array_equal(won, again_won)
    other_rows, other_won = decomposed(events, MERMIN_GAME, seed=8)
    assert events.window_id[other_rows].tolist() != events.window_id[rows].tolist()
    # pass rate is permutation invariant by construction
    assert other_won.sum() == 50


def test_strict_and_decomposed_agree_on_iid_data():
    rng = np.random.default_rng(42)
    docs = []
    for w in range(2000):
        for k in range(3):
            won = rng.random() < 0.9
            docs.append(event(w, t_ps=3 * w + k, outcomes=WIN if won else LOSE))
    events = parse_events(as_lines(docs))
    _, strict_won = strict_select(events, MERMIN_GAME, seed=2)
    _, dec_won = decomposed(events, MERMIN_GAME, seed=2)
    p_strict = strict_won.mean()
    p_dec = dec_won.mean()
    sigma = math.sqrt(0.9 * 0.1 / 2000)
    assert abs(p_strict - p_dec) < 3 * sigma


def test_scoring_posterior_for_ambiguous_inputs():
    """Subset-term functionals can match several terms; scoring still works."""
    game = to_game(baccari_functional())
    # input (0,1,1,0) is consistent with both A0B1 and A0C1
    docs = [event(0, input=(0, 1, 1, 0), outcomes=(1, 1, -1, 1))]
    _, won = strict_select(parse_events(as_lines(docs)), game, seed=3)
    assert won.dtype == bool and won.shape == (1,)


def test_scoring_rejects_impossible_input():
    # odd-parity inputs never occur in the Mermin game
    docs = [event(0, input=(1, 0, 0, 0))]
    with pytest.raises(ValueError, match="matches no term"):
        strict_select(parse_events(as_lines(docs)), MERMIN_GAME, seed=0)


def test_hold_out_uniform_over_two_rounds():
    first = 0
    reps = 2000
    for seed in range(reps):
        held = hold_out(2, 1, rng_for(seed, TAG_HOLDOUT))
        assert held.sum() == 1
        first += held[0]
    sigma = math.sqrt(reps * 0.25)
    assert abs(first - reps / 2) < 3 * sigma


def test_hold_out_deterministic():
    a = hold_out(10, 1, rng_for(4, TAG_HOLDOUT))
    b = hold_out(10, 1, rng_for(4, TAG_HOLDOUT))
    assert np.array_equal(a, b)


def test_replay_single_round_infeasible():
    _, game, bound = operator_context("mermin")
    events = parse_events(as_lines([event(0)]))
    transcript, report = replay(events, game, bound, mode="strict", delta=0.01, seed=0)
    assert report is None and transcript.n == 1 and transcript.pass_rate is None


def test_replay_transcript_holds_out_one_round():
    _, game, bound = operator_context("mermin")
    docs = [event(w, outcomes=LOSE if w % 4 == 0 else WIN) for w in range(12)]
    transcript, report = replay(parse_events(as_lines(docs)), game, bound, seed=3)
    held = transcript.held_out
    assert held.sum() == 1 and transcript.n == 12 and transcript.n_measured == 11
    assert not transcript.inputs[held].any() and not transcript.outcomes[held].any()
    assert not transcript.won[held].any()
    assert transcript.n_win == 9 - (held.argmax() % 4 != 0)  # rounds 0, 4 and 8 lose
    assert report is not None


def test_replay_empty_and_bad_delta():
    _, game, bound = operator_context("mermin")
    transcript, report = replay(parse_events([]), game, bound)
    assert (transcript.n, transcript.n_win, transcript.pass_rate, report) == (0, 0, None, None)
    with pytest.raises(ValueError, match="delta"):
        replay(parse_events([]), game, bound, delta=5.0)


def test_replay_unknown_mode():
    _, game, bound = operator_context("mermin")
    with pytest.raises(ValueError):
        replay([], game, bound, mode="loose")


def test_replay_is_pure_function_of_inputs():
    _, game, bound = operator_context("mermin")
    transcript, _ = run_protocol(IIDNoisy(0.05), game, n_rounds=400, n_cert=1, seed=60)
    text = events_to_jsonl(events_from_transcript(transcript))
    r1 = replay(parse_events(text.splitlines()), game, bound, mode="strict", delta=0.01, seed=5)
    r2 = replay(parse_events(text.splitlines()), game, bound, mode="strict", delta=0.01, seed=5)
    assert r1 == r2
    r3 = replay(parse_events(text.splitlines()), game, bound, mode="decomposed",
                delta=0.01, seed=5)
    assert r3[0].n == r1[0].n  # one event per window


def test_events_from_transcript_round_trip():
    """Pass rates survive the transcript -> file -> replay path."""
    _, game, bound = operator_context("mermin")
    transcript, _ = run_protocol(IIDNoisy(0.05), game, n_rounds=2001, n_cert=1, seed=61)
    events = events_from_transcript(transcript)
    assert len(events) == 2000
    assert events.t_ps.tolist() == [i * 15_000_000_000_000 for i in range(2000)]
    text = events_to_jsonl(events)
    parsed = parse_events(text.splitlines())
    assert parsed == events
    replayed, report = replay(parsed, game, bound, mode="strict", delta=0.01, seed=6)
    # strict mode with one event per window replays the transcript minus one holdout
    assert abs(replayed.pass_rate - transcript.pass_rate) < 2.0 / 2000
    assert replayed.n_win / (replayed.n - 1) == replayed.pass_rate
    assert report == max_certified_extractability(CertificationQuery(
        n=2000, delta=0.01, pass_rate=replayed.pass_rate, bound=bound, p_qm=game.p_qm,
        mu_meas=1999 / 2000))
