"""Replay of experiment-style event files through the certification pipeline.

Input is JSONL, one time-tagged coincidence per line:

    {"window_id": <uint64>, "input": [i1,i2,i3,i4], "t_ps": <uint64>,
     "outcomes": [o1,o2,o3,o4]}

with inputs in {0,1} and outcomes in {-1,1}. Lines in the canonical spelling
(``json.dumps`` default separators, this key order, integers below 10**18
without leading zeros) are read by one numeric scan per chunk instead of
``json.loads``; any other valid spelling gives the same events, and any
invalid line the same error. All events of a window share one
input (one acquisition per randomly chosen setting); timestamps are
nondecreasing within a window. Two analysis modes mirror the two ways of
turning acquisitions into game rounds: ``strict`` keeps one uniformly chosen
event per window (true one-to-one input/output correspondence), ``decomposed``
keeps every event and shuffles.

Events are held in one column table, :class:`Events`; a mode picks rounds as
row indices into it, and they go through simulation's round table, hold-out and
certification query. Each random choice (strict picks, the shuffle, posterior
terms, the hold-out) is one draw or one vector per (seed, purpose) per call.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, compress, islice

import numpy as np

from .bell import NonlocalGame
from .certification import CertificationReport, check_delta, max_certified_extractability
from .rng import TAG_HOLDOUT, TAG_SCORE, TAG_SELECT, TAG_SHUFFLE, rng_for
from .selftest import SelfTestBound
from .simulate import Transcript, certification_query, hold_out

PARSE_CHUNK_LINES = 16_384  # lines decoded and turned into arrays at a time
FIELDS = ("window_id", "input", "t_ps", "outcomes")
MODES = ("strict", "decomposed")
_FIELD_SET = frozenset(FIELDS)
_UINT = r"(?:0|[1-9][0-9]{0,17})"  # below 10**18, so it fits int64
_CANONICAL = re.compile(  # one canonically spelled line, every value already in range
    rf'\{{"window_id": {_UINT}, "input": \[[01], [01], [01], [01]\], "t_ps": {_UINT}, '
    r'"outcomes": \[-?1, -?1, -?1, -?1\]\}\n?')
_NUMBERS_ONLY = str.maketrans({c: " " for c in map(chr, range(128)) if c not in "-0123456789"})


@dataclass(frozen=True, eq=False)
class Events:
    """Column table of events, one row per event in file order."""

    window_id: np.ndarray  # uint64 (n,)
    t_ps: np.ndarray  # uint64 (n,)
    inputs: np.ndarray  # int8 (n, 4), settings in {0, 1}
    outcomes: np.ndarray  # int8 (n, 4), values in {-1, 1}

    def __len__(self) -> int:
        return len(self.window_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, Events) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))


def _uint64_column(values: list) -> tuple[np.ndarray, np.ndarray]:
    """uint64 array of the integers in [0, 2**64) (0 elsewhere), and where they
    are; a bool (JSON true/false) is no integer here."""
    column = np.fromiter(values, dtype=object, count=len(values))
    ok = np.fromiter(map(type, column), dtype=object, count=len(values)) == int
    ok[ok] = (column[ok] >= 0) & (column[ok] < 2**64)
    return np.where(ok, column, 0).astype(np.uint64), ok


def _quad_column(rows: list, allowed: tuple) -> tuple[np.ndarray, np.ndarray]:
    """int8 (n, 4) array of the four-entry lists with entries in ``allowed``
    (0 elsewhere), and where they are; a bool entry equals 0 or 1 but is no entry."""
    ok = np.fromiter((type(r) is list and len(r) == 4 for r in rows), dtype=bool, count=len(rows))
    entries = np.fromiter(chain.from_iterable(compress(rows, ok)), dtype=object).reshape(-1, 4)
    not_bool = np.fromiter(map(type, entries.flat), dtype=object, count=entries.size) != bool
    valid = (((entries == allowed[0]) | (entries == allowed[1]))
             & not_bool.reshape(-1, 4)).all(axis=1)
    column = np.zeros((len(rows), 4), dtype=np.int8)
    column[np.flatnonzero(ok)[valid]] = entries[valid].astype(np.int8)
    ok[ok] = valid
    return column, ok


_COLUMNS = (  # per Events field: the record key, its parser and the error for a bad value
    ("window_id", _uint64_column, "window_id must be a nonnegative integer below 2**64"),
    ("t_ps", _uint64_column, "t_ps must be a nonnegative integer below 2**64"),
    ("input", partial(_quad_column, allowed=(0, 1)), "input must be four settings in {0,1}"),
    ("outcomes", partial(_quad_column, allowed=(-1, 1)), "outcomes must be four values in {-1,1}"),
)


def _parse_chunk(lines: list, first: int) -> tuple[Events, np.ndarray, ValueError | None]:
    """The records before the chunk's first bad line, their line numbers, and
    that line's error; ``first`` is the number of ``lines[0]``."""
    try:  # line by line, as joined lines could match
        canonical = all(map(_CANONICAL.fullmatch, lines))
    except TypeError:  # bytes lines, left to json.loads
        canonical = False
    if canonical:
        text = "".join(lines).translate(_NUMBERS_ONLY)
        table = np.fromstring(text, dtype=np.int64, sep=" ").reshape(len(lines), 10)
        part = Events(table[:, 0].astype(np.uint64), table[:, 5].astype(np.uint64),
                      table[:, 1:5].astype(np.int8), table[:, 6:].astype(np.int8))
        return part, first + np.arange(len(lines), dtype=np.int64), None
    docs, linenos, problem = [], [], None
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"not valid JSON ({exc.msg})"
        else:
            if not isinstance(doc, dict):
                problem = "expected an object"
            elif not doc.keys() >= _FIELD_SET:
                problem = f"missing field {next(key for key in FIELDS if key not in doc)!r}"
        if problem:
            break
        docs.append(doc)
        linenos.append(lineno)
    error = ValueError(f"line {lineno}: {problem}") if problem else None
    columns, oks = zip(*(column([d[key] for d in docs]) for key, column, _ in _COLUMNS))
    good = np.logical_and.reduce(oks)
    end = len(docs) if good.all() else int(np.argmin(good))
    if end < len(docs):
        message = next(text for ok, (_, _, text) in zip(oks, _COLUMNS) if not ok[end])
        error = ValueError(f"line {linenos[end]}: {message}")
    part = Events(*(c[:end] for c in columns))
    return part, np.array(linenos[:end], dtype=np.int64), error


def _check_windows(events: Events, lineno: np.ndarray) -> None:
    """Raise for the first line whose input differs from its window's earlier
    events or whose timestamp is below the window's previous one."""
    order = np.argsort(events.window_id, kind="stable")
    ids, inputs, t_ps = events.window_id[order], events.inputs[order], events.t_ps[order]
    same = ids[1:] == ids[:-1]  # row k + 1 continues row k's window
    bad_input = same & (inputs[1:] != inputs[:-1]).any(axis=1)
    bad = np.flatnonzero(bad_input | (same & (t_ps[1:] < t_ps[:-1])))
    if len(bad):
        k = bad[np.argmin(lineno[order[bad + 1]])]
        what = (f"inconsistent inputs {inputs[k].tolist()} vs {inputs[k + 1].tolist()}"
                if bad_input[k] else "timestamps decrease")
        raise ValueError(f"window {ids[k + 1]}: {what} (line {lineno[order[k + 1]]})")


def parse_events(stream) -> Events:
    """Parse and validate a JSONL stream (any iterable of lines), turning each
    ``PARSE_CHUNK_LINES`` lines into arrays before reading more. A chunk whose
    lines are all in the canonical spelling skips ``json.loads``; the events
    and errors are the same either way. Raises
    ValueError for the first offending record, naming its line number (blank
    lines count) and, for inconsistent inputs or decreasing timestamps, its window.
    """
    lines, first, chunks = iter(stream), 1, [_parse_chunk([], 1)]
    while chunks[-1][2] is None and (chunk := list(islice(lines, PARSE_CHUNK_LINES))):
        chunks.append(_parse_chunk(chunk, first))
        first += len(chunk)
    parts, linenos, errors = zip(*chunks)
    events = Events(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Events)))
    _check_windows(events, np.concatenate(linenos))  # its lines precede the chunk error's
    if errors[-1] is not None:
        raise errors[-1]
    return events


def _round_wins(events: Events, rows: np.ndarray, game: NonlocalGame, seed: int) -> np.ndarray:
    """Win flags of the rounds made of ``rows``, scored in round order."""
    terms = game.draw_terms(events.inputs[rows], rng_for(seed, 0, TAG_SCORE))
    return game.won_terms(terms, events.outcomes[rows])


def strict_select(events: Events, game: NonlocalGame, seed: int = 0) -> tuple:
    """One uniformly chosen event per window, windows in order of first appearance:
    (rows of ``events`` in round order, their win flags)."""
    by_window = np.argsort(events.window_id, kind="stable")  # each window's events in file order
    _, first, counts = np.unique(events.window_id, return_index=True, return_counts=True)
    order = np.argsort(first)
    picks = rng_for(seed, 0, TAG_SELECT).integers(0, counts[order])
    rows = by_window[(np.cumsum(counts) - counts)[order] + picks]
    return rows, _round_wins(events, rows, game, seed)


def decomposed(events: Events, game: NonlocalGame, seed: int = 0) -> tuple:
    """Every event becomes a round, shuffled by a seeded permutation:
    (rows of ``events`` in round order, their win flags)."""
    rows = rng_for(seed, 0, TAG_SHUFFLE).permutation(len(events))
    return rows, _round_wins(events, rows, game, seed)


def replay(events: Events, game: NonlocalGame, bound: SelfTestBound, mode: str = "strict",
           delta: float = 0.01, seed: int = 0) -> tuple[Transcript, CertificationReport | None]:
    """Full replay: rounds from events, hold-out, pass rate, certification.

    With fewer than 2 rounds nothing is measured and the report is None."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    check_delta(delta)
    rows, won = (strict_select if mode == "strict" else decomposed)(events, game, seed)
    n = len(rows)
    held = hold_out(n, min(n, 1), rng_for(seed, 0, TAG_HOLDOUT))
    inputs, outcomes = events.inputs[rows], events.outcomes[rows]
    inputs[held] = outcomes[held] = 0
    transcript = Transcript(inputs, outcomes, won & ~held, held, seed)
    if n < 2:
        return transcript, None
    return transcript, max_certified_extractability(
        certification_query(transcript, game, bound, delta))
