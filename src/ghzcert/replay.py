"""Replay of experiment-style event files through the certification pipeline.

Input is JSONL, one time-tagged coincidence per line:

    {"window_id": <uint64>, "input": [i1,i2,i3,i4], "t_ps": <uint64>,
     "outcomes": [o1,o2,o3,o4]}

with inputs in {0,1} and outcomes in {-1,1}. Each chunk of lines becomes
arrays by one unsigned numeric scan. Lines in the canonical spelling
(``json.dumps`` default separators, this key order, integers below 10**19
without leading zeros) are scanned as they are; any other line is decoded by
``json.loads``, checked, and respelled as its ten numbers first, so every valid
spelling gives the same events. All events of a window share one
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
from itertools import islice, product
from operator import itemgetter

import numpy as np

from .bell import NonlocalGame
from .certification import CertificationReport, check_delta, max_certified_extractability
from .rng import TAG_HOLDOUT, TAG_SCORE, TAG_SELECT, TAG_SHUFFLE, rng_for
from .selftest import SelfTestBound
from .simulate import Transcript, certification_query, hold_out

PARSE_CHUNK_LINES = 16_384  # lines decoded and turned into arrays at a time
FIELDS = ("window_id", "input", "t_ps", "outcomes")
MODES = ("strict", "decomposed")
_FIELD_VALUES = itemgetter(*FIELDS)
_UINT = r"(?:0|[1-9][0-9]{0,18})"  # below 10**19 < 2**64, so it fits uint64
_CANONICAL = re.compile(  # one canonically spelled line, every value already in range
    rf'\{{"window_id": {_UINT}, "input": \[[01], [01], [01], [01]\], "t_ps": {_UINT}, '
    r'"outcomes": \[-?1, -?1, -?1, -?1\]\}\n?')
_SETTINGS = {q: "%d %d %d %d" % q for q in product((0, 1), repeat=4)}  # valid input -> its text
_SIGNS = {q: "%d %d %d %d" % q for q in product((-1, 1), repeat=4)}  # valid outcomes -> its text
_NUMBERS_ONLY = str.maketrans(  # other ASCII to spaces, and "-" to "2": "-1" reads 21
    {c: "2" if c == "-" else " " for c in map(chr, range(128)) if c not in "0123456789"})


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


def _respell(line) -> str:
    """A line outside the canonical spelling as its record's ten numbers in
    canonical order, newline-terminated; ValueError for the line's first fault."""
    if isinstance(line, bytes):
        line = line.decode(errors="surrogateescape")
    try:
        line.encode()
    except UnicodeEncodeError:  # a lone surrogate: an undecodable byte of the file
        raise ValueError("not valid UTF-8") from None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("not valid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise ValueError("expected an object")
    try:
        window_id, inputs, t_ps, outcomes = _FIELD_VALUES(doc)
    except KeyError as exc:  # the first missing field in FIELDS order
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    if type(window_id) is not int or not 0 <= window_id < 2**64:  # a bool is no integer here
        raise ValueError("window_id must be a nonnegative integer below 2**64")
    if type(t_ps) is not int or not 0 <= t_ps < 2**64:
        raise ValueError("t_ps must be a nonnegative integer below 2**64")
    if (settings := _quad_text(inputs, _SETTINGS)) is None:
        raise ValueError("input must be four settings in {0,1}")
    if (signs := _quad_text(outcomes, _SIGNS)) is None:
        raise ValueError("outcomes must be four values in {-1,1}")
    return f"{window_id} {settings} {t_ps} {signs}\n"


def _quad_text(values, texts: dict) -> str | None:
    """The text of ``values`` in ``texts``, which is keyed by tuples, or None if
    it is not there; a bool equals 0 or 1 but is no entry."""
    try:
        return None if bool in map(type, values) else texts.get(tuple(values))
    except TypeError:  # not iterable, or an unhashable entry
        return None


def _parse_chunk(lines: list, first: int) -> tuple[Events, np.ndarray, ValueError | None]:
    """The records before the chunk's first bad line, their line numbers, and
    that line's error; ``first`` is the number of ``lines[0]``."""
    try:  # line by line, as joined lines could match
        canonical = all(map(_CANONICAL.fullmatch, lines))
    except TypeError:  # bytes lines, all respelled
        canonical = False
    linenos, error = np.arange(first, first + len(lines)), None
    if not canonical:
        kept, linenos = [], []
        for lineno, line in enumerate(lines, start=first):
            if not line.strip():
                continue
            try:
                kept.append(line if isinstance(line, str) and _CANONICAL.fullmatch(line)
                            else _respell(line))
            except ValueError as exc:
                error = ValueError(f"line {lineno}: {exc}")
                break
            linenos.append(lineno)
        lines = kept
    text = "".join(lines).translate(_NUMBERS_ONLY)  # ten numbers per line: sized up front
    table = np.fromstring(text, dtype=np.uint64, count=10 * len(lines), sep=" ").reshape(-1, 10)
    part = Events(table[:, 0].copy(), table[:, 5].copy(), table[:, 1:5].astype(np.int8),
                  np.where(table[:, 6:] == 1, 1, -1).astype(np.int8))
    return part, np.asarray(linenos, dtype=np.int64), error


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
    """Parse and validate a JSONL stream (any iterable of str or UTF-8 bytes
    lines), turning each ``PARSE_CHUNK_LINES`` lines into arrays before reading
    more. Only lines outside the canonical spelling go through ``json.loads``;
    the events and errors are the same either way. Raises ValueError for the
    first offending record, naming its line number (blank lines count) and, for
    inconsistent inputs or decreasing timestamps, its window.
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
    terms = game.draw_terms(events.inputs[rows], rng_for(seed, TAG_SCORE))
    return game.won_terms(terms, events.outcomes[rows])


def strict_select(events: Events, game: NonlocalGame, seed: int = 0) -> tuple:
    """One uniformly chosen event per window, windows in order of first appearance:
    (rows of ``events`` in round order, their win flags)."""
    by_window = np.argsort(events.window_id, kind="stable")  # each window's events in file order
    _, first, counts = np.unique(events.window_id, return_index=True, return_counts=True)
    order = np.argsort(first)
    picks = rng_for(seed, TAG_SELECT).integers(0, counts[order])
    rows = by_window[(np.cumsum(counts) - counts)[order] + picks]
    return rows, _round_wins(events, rows, game, seed)


def decomposed(events: Events, game: NonlocalGame, seed: int = 0) -> tuple:
    """Every event becomes a round, shuffled by a seeded permutation:
    (rows of ``events`` in round order, their win flags)."""
    rows = rng_for(seed, TAG_SHUFFLE).permutation(len(events))
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
    held = hold_out(n, min(n, 1), rng_for(seed, TAG_HOLDOUT))
    inputs, outcomes = events.inputs[rows], events.outcomes[rows]
    inputs[held] = outcomes[held] = 0
    transcript = Transcript(inputs, outcomes, won & ~held, held, seed)
    if n < 2:
        return transcript, None
    return transcript, max_certified_extractability(
        certification_query(transcript, game, bound, delta))
