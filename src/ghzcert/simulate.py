"""Monte Carlo simulation of the full certification protocol.

A source emits N states in round order, N_c uniformly chosen rounds are held
out, the rest are measured: each round draws a game input, samples the joint
±1 outcome tuple from the Born rule, and is scored by the win predicate. The
resulting pass rate feeds the finite-sample inversion.

Rounds live in one column table, :class:`Transcript`, which replay builds
too; :func:`hold_out` is the one hold-out draw and :func:`certification_query`
the one query built from a transcript, for simulated and recorded rounds alike.

Besides the white-noise IID source, two deliberately non-IID sources exist to
exercise the pipeline under drift and block correlations; they are stress
models, not adversary models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import NonlocalGame, _validate_settings
from .certification import CertificationQuery, CertificationReport, max_certified_extractability
from .quantum import ghz_state, maximally_mixed
from .rng import TAG_BLOCK, TAG_HOLDOUT, TAG_INPUT, TAG_OUTCOME, rng_for
from .selftest import SelfTestBound

PROBABILITY_FLOOR = 1e-12


@dataclass(frozen=True)
class IIDNoisy:
    """Same white-noise state every round."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"noise fraction must be in [0, 1], got {self.alpha!r}")

    def alpha_at(self, index: int, n_rounds: int, seed: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class Drifting:
    """Noise fraction drifts linearly with the round index."""

    alpha_start: float
    alpha_end: float

    def __post_init__(self):
        for a in (self.alpha_start, self.alpha_end):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"noise fraction must be in [0, 1], got {a!r}")

    def alpha_at(self, index: int, n_rounds: int, seed: int) -> float:
        if n_rounds <= 1:
            return self.alpha_start
        frac = index / (n_rounds - 1)
        return self.alpha_start + (self.alpha_end - self.alpha_start) * frac


@dataclass(frozen=True)
class BlockCorrelated:
    """Contiguous blocks share a noise level; a seeded fraction of blocks is bad."""

    alpha_good: float
    alpha_bad: float
    block_length: int
    bad_fraction: float = 0.1

    def __post_init__(self):
        for a in (self.alpha_good, self.alpha_bad):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"noise fraction must be in [0, 1], got {a!r}")
        if self.block_length < 1:
            raise ValueError(f"block length must be >= 1, got {self.block_length}")
        if not 0.0 <= self.bad_fraction <= 1.0:
            raise ValueError(f"bad fraction must be in [0, 1], got {self.bad_fraction!r}")

    def alpha_at(self, index: int, n_rounds: int, seed: int) -> float:
        block = index // self.block_length
        bad = rng_for(seed, block, TAG_BLOCK).random() < self.bad_fraction
        return self.alpha_bad if bad else self.alpha_good


SourceModel = IIDNoisy | Drifting | BlockCorrelated


@dataclass(frozen=True, eq=False)
class Transcript:
    """Column table of protocol rounds, one row per round in round order.

    Held-out rounds are never measured: their ``inputs`` and ``outcomes`` rows
    are zero and their ``won`` flag is False.
    """

    inputs: np.ndarray  # int8 (n, 4), settings in {0, 1}
    outcomes: np.ndarray  # int8 (n, 4), values in {-1, 1}
    won: np.ndarray  # bool (n,)
    held_out: np.ndarray  # bool (n,)
    seed: int

    @property
    def n(self) -> int:
        return len(self.held_out)

    @property
    def n_measured(self) -> int:
        return self.n - int(np.count_nonzero(self.held_out))

    @property
    def n_win(self) -> int:
        return int(np.count_nonzero(self.won))

    @property
    def pass_rate(self) -> float | None:
        """Won fraction of the measured rounds; None when no round is measured."""
        return self.n_win / self.n_measured if self.n_measured else None

    def __eq__(self, other) -> bool:
        return isinstance(other, Transcript) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))

    def to_jsonl(self) -> str:
        """One JSON object per round: round_index, input, outcomes, won, held_out
        (null input, outcomes and won on held-out rounds)."""
        rows = zip(self.inputs.tolist(), self.outcomes.tolist(), self.won.tolist(),
                   self.held_out.tolist())
        return "\n".join(
            f'{{"round_index": {j}, "input": null, "outcomes": null, "won": null, '
            f'"held_out": true}}' if held else
            f'{{"round_index": {j}, "input": {i}, "outcomes": {o}, '
            f'"won": {"true" if w else "false"}, "held_out": false}}'
            for j, (i, o, w, held) in enumerate(rows)
        ) + "\n"


def outcome_table(rho: np.ndarray, settings) -> np.ndarray:
    """Joint Born-rule table P(outcomes | inputs), shape (2,2,2,2, 2,2,2,2).

    First four axes are the per-party inputs, last four the outcome bits
    (bit 0 ↔ outcome +1). Vanishing probabilities are floored to exact zero
    so that deterministic games stay deterministic under sampling.
    """
    _validate_settings(settings, 4)
    rho_t = np.asarray(rho, dtype=complex).reshape((2,) * 8)
    projs = []
    eye = np.eye(2, dtype=complex)
    for pair in settings:
        projs.append(
            np.array([[(eye + o * obs) / 2.0 for o in (1.0, -1.0)] for obs in pair])
        )
    table = np.einsum(
        "abcdefgh,IWea,JXfb,KYgc,LZhd->IJKLWXYZ",
        rho_t, projs[0], projs[1], projs[2], projs[3],
    ).real
    table[table < PROBABILITY_FLOOR] = 0.0
    norm = table.reshape(16, 16).sum(axis=1)
    if np.max(np.abs(norm - 1.0)) > 1e-9:
        raise ValueError("outcome table rows do not sum to 1; invalid state or settings")
    table /= norm.reshape(2, 2, 2, 2, 1, 1, 1, 1)
    return table


def _bits(codes: np.ndarray) -> np.ndarray:
    """(n, 4) bits of 4-bit codes, party 1 the high bit."""
    return (codes[:, None] >> np.arange(3, -1, -1)) & 1


def hold_out(n: int, n_cert: int, rng: np.random.Generator) -> np.ndarray:
    """Mask of the held-out rounds: roll an n-faced die until n_cert distinct faces came up."""
    if not 0 <= n_cert <= n:
        raise ValueError(f"cannot hold out {n_cert} of {n} rounds")
    faces: set[int] = set()
    while len(faces) < n_cert:
        faces.add(int(rng.integers(0, n)))
    held = np.zeros(n, dtype=bool)
    held[list(faces)] = True
    return held


def certification_query(
    transcript: Transcript, game: NonlocalGame, bound: SelfTestBound, delta: float
) -> CertificationQuery:
    """Query certifying a held-out copy from the pass rate of the measured rounds."""
    return CertificationQuery(
        n=transcript.n,
        delta=delta,
        pass_rate=transcript.pass_rate,
        bound=bound,
        p_qm=game.p_qm,
        mu_meas=transcript.n_measured / transcript.n,
    )


def run_protocol(
    source: SourceModel,
    game: NonlocalGame,
    settings=None,
    bound: SelfTestBound | None = None,
    n_rounds: int = 1000,
    n_cert: int = 1,
    delta: float = 0.01,
    seed: int = 0,
) -> tuple[Transcript, CertificationReport | None]:
    """Run the full protocol: emit, hold out, measure, score, certify.

    Round j draws its term and free settings from ``rng_for(seed, j, TAG_INPUT)``
    and its outcome from ``rng_for(seed, j, TAG_OUTCOME)``; all rounds are then
    scored at once. The certification report is produced when ``bound`` is
    given; the transcript alone is returned otherwise. Identical (source, N,
    N_c, seed) give bit-identical transcripts.
    """
    if not 1 <= n_cert < n_rounds:
        raise ValueError(f"need 1 <= n_cert < n_rounds, got {n_cert}, {n_rounds}")
    if settings is None:
        settings = game.functional.ideal_settings

    table_ghz = outcome_table(ghz_state(4), settings).reshape(16, 16)
    table_mixed = outcome_table(maximally_mixed(16), settings).reshape(16, 16)
    term_settings = [t.settings for t in game.functional.terms]

    held = hold_out(n_rounds, n_cert, rng_for(seed, 0, TAG_HOLDOUT))
    measured = np.flatnonzero(~held)
    draws = []  # (term, input code, outcome code) per measured round
    table_alpha = None
    for j in measured.tolist():
        alpha = source.alpha_at(j, n_rounds, seed)
        if alpha != table_alpha:  # rows of P(outcomes | input) at this noise level
            table, table_alpha = (1.0 - alpha) * table_ghz + alpha * table_mixed, alpha
        rng_in = rng_for(seed, j, TAG_INPUT)
        term = int(rng_in.choice(len(term_settings), p=game.input_distribution))
        code = 0
        for setting in term_settings[term]:
            code = 2 * code + (int(rng_in.integers(0, 2)) if setting is None else setting)
        outcome = int(rng_for(seed, j, TAG_OUTCOME).choice(16, p=table[code]))
        draws.append((term, code, outcome))
    terms, codes, outcome_codes = np.array(draws, dtype=np.intp).reshape(-1, 3).T

    inputs = np.zeros((n_rounds, 4), dtype=np.int8)
    outcomes = np.zeros((n_rounds, 4), dtype=np.int8)
    won = np.zeros(n_rounds, dtype=bool)
    inputs[measured] = _bits(codes)
    outcomes[measured] = 1 - 2 * _bits(outcome_codes)  # bit 0 -> +1
    won[measured] = game.won_terms(terms, outcomes[measured])
    transcript = Transcript(inputs, outcomes, won, held, seed)
    if bound is None:
        return transcript, None
    return transcript, max_certified_extractability(
        certification_query(transcript, game, bound, delta))
