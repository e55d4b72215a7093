"""Monte Carlo simulation of the full certification protocol.

A source emits N states in round order, N_c uniformly chosen rounds are held
out, the rest are measured: each round draws a game input, samples the joint
±1 outcome tuple from the Born rule, and is scored by the win predicate. The
resulting pass rate feeds the finite-sample inversion.

Rounds are sampled in chunks from one Philox stream whose counter is the
round index (see :func:`run_protocol`), block flags from one counted by block;
only the hold-out uses a :func:`~ghzcert.rng.rng_for` Generator.

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
from .rng import TAG_BLOCK, TAG_HOLDOUT, TAG_ROUND, rng_for, round_words
from .selftest import SelfTestBound

PROBABILITY_FLOOR = 1e-12
#: rounds sampled at once; bounds the sampler's temporaries and never changes a draw
SIMULATE_CHUNK_ROUNDS = 16_384


class _NoiseLaw:
    """A source's noise fraction per round, given for a range of rounds at once."""

    def alpha_at(self, index: int, n_rounds: int, seed: int) -> float:
        return float(self.alphas(index, index + 1, n_rounds, seed)[0])


@dataclass(frozen=True)
class IIDNoisy(_NoiseLaw):
    """Same white-noise state every round."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"noise fraction must be in [0, 1], got {self.alpha!r}")

    def alphas(self, start: int, stop: int, n_rounds: int, seed: int) -> np.ndarray:
        return np.full(stop - start, self.alpha)


@dataclass(frozen=True)
class Drifting(_NoiseLaw):
    """Noise fraction drifts linearly with the round index."""

    alpha_start: float
    alpha_end: float

    def __post_init__(self):
        for a in (self.alpha_start, self.alpha_end):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"noise fraction must be in [0, 1], got {a!r}")

    def alphas(self, start: int, stop: int, n_rounds: int, seed: int) -> np.ndarray:
        if n_rounds <= 1:
            return np.full(stop - start, self.alpha_start)
        frac = np.arange(start, stop) / (n_rounds - 1)
        return self.alpha_start + (self.alpha_end - self.alpha_start) * frac


@dataclass(frozen=True)
class BlockCorrelated(_NoiseLaw):
    """Contiguous blocks share a noise level; a seeded fraction of blocks is bad."""

    alpha_good: float
    alpha_bad: float
    block_length: int
    bad_fraction: float = 0.1

    def __post_init__(self):
        for a in (self.alpha_good, self.alpha_bad):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"noise fraction must be in [0, 1], got {a!r}")
        if not 1 <= self.block_length < 2**63:  # block indices are int64
            raise ValueError(f"block length must be in [1, 2**63), got {self.block_length}")
        if not 0.0 <= self.bad_fraction <= 1.0:
            raise ValueError(f"bad fraction must be in [0, 1], got {self.bad_fraction!r}")

    def alphas(self, start: int, stop: int, n_rounds: int, seed: int) -> np.ndarray:
        first, last = start // self.block_length, (stop - 1) // self.block_length
        draws = _uniforms(round_words(seed, TAG_BLOCK, first, last + 1 - first)[:, 0])
        bad = draws[np.arange(start, stop) // self.block_length - first] < self.bad_fraction
        return np.where(bad, self.alpha_bad, self.alpha_good)


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

    def to_jsonl(self, handle) -> None:
        """Write one JSON line per round, ``SIMULATE_CHUNK_ROUNDS`` lines per
        ``handle.write``: round_index, input, outcomes, won, held_out (null
        input, outcomes and won on held-out rounds)."""
        for lo in range(0, self.n, SIMULATE_CHUNK_ROUNDS):
            hi = lo + SIMULATE_CHUNK_ROUNDS
            rows = zip(self.inputs[lo:hi].tolist(), self.outcomes[lo:hi].tolist(),
                       self.won[lo:hi].tolist(), self.held_out[lo:hi].tolist())
            handle.write("".join(
                f'{{"round_index": {j}, "input": null, "outcomes": null, "won": null, '
                f'"held_out": true}}\n' if held else
                f'{{"round_index": {j}, "input": {i}, "outcomes": {o}, '
                f'"won": {"true" if w else "false"}, "held_out": false}}\n'
                for j, (i, o, w, held) in enumerate(rows, lo)))


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


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of 64-bit words."""
    return (words >> np.uint64(11)) * 2.0**-53


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the first entry above each uniform ``u`` in its CDF row of ``cdf``.

    A zero-probability index repeats the entry before it, so no uniform picks
    it; a uniform at or past a row's rounded last entry picks the row's last
    step, that is its last nonzero-probability index.
    """
    cdf = np.broadcast_to(cdf, (len(u), cdf.shape[-1]))
    index = np.count_nonzero(cdf <= u[:, None], axis=1)
    tail = np.flatnonzero(index == cdf.shape[1])
    steps = np.diff(cdf[tail], prepend=0.0) > 0
    index[tail] = cdf.shape[1] - 1 - np.argmax(steps[:, ::-1], axis=1)
    return index


def run_protocol(
    source: _NoiseLaw,
    game: NonlocalGame,
    bound: SelfTestBound | None = None,
    n_rounds: int = 1000,
    n_cert: int = 1,
    delta: float = 0.01,
    seed: int = 0,
) -> tuple[Transcript, CertificationReport | None]:
    """Run the full protocol: emit, hold out, measure, score, certify.

    Round j's draws are the four words ``round_words(seed, TAG_ROUND, j, 1)``,
    Philox counter j: word 0 picks the term (inverse CDF of the input
    distribution), bit p of word 2 is party p's setting where the term leaves
    party p free, word 1 picks the outcome (inverse CDF of the Born row at the
    round's input and noise level α, whose CDF is (1-α)·CDF_GHZ + α·CDF_mixed)
    and word 3 is unused. Uniforms are a word's top 53 bits. Held-out rounds get
    their words too and are blanked afterwards, so a round's values depend on
    neither the hold-out nor the chunk size. The certification report is
    produced when ``bound`` is given; the transcript alone is returned
    otherwise. Identical (source, N, N_c, seed) give bit-identical transcripts.
    """
    if not 1 <= n_cert < n_rounds:
        raise ValueError(f"need 1 <= n_cert < n_rounds, got {n_cert}, {n_rounds}")
    settings = game.functional.ideal_settings

    cdf_ghz = np.cumsum(outcome_table(ghz_state(), settings).reshape(16, 16), axis=1)
    cdf_mixed = np.cumsum(outcome_table(maximally_mixed(16), settings).reshape(16, 16), axis=1)
    term_settings = [t.settings for t in game.functional.terms]
    free = np.array([[s is None for s in t] for t in term_settings])
    fixed = np.array([[s or 0 for s in t] for t in term_settings], dtype=np.uint64)
    term_cdf = np.cumsum(game.input_distribution)

    held = hold_out(n_rounds, n_cert, rng_for(seed, TAG_HOLDOUT))
    inputs = np.zeros((n_rounds, 4), dtype=np.int8)
    outcomes = np.zeros((n_rounds, 4), dtype=np.int8)
    won = np.zeros(n_rounds, dtype=bool)
    for lo in range(0, n_rounds, SIMULATE_CHUNK_ROUNDS):
        hi = min(lo + SIMULATE_CHUNK_ROUNDS, n_rounds)
        words = round_words(seed, TAG_ROUND, lo, hi - lo)
        u = _uniforms(words[:, :2])
        terms = _inverse_cdf(term_cdf, u[:, 0])
        own = (words[:, 2:3] >> np.arange(4, dtype=np.uint64)) & np.uint64(1)
        chosen = np.where(free[terms], own, fixed[terms])
        codes = chosen @ np.array([8, 4, 2, 1], dtype=np.uint64)
        alpha = source.alphas(lo, hi, n_rounds, seed)[:, None]
        cdf = (1.0 - alpha) * cdf_ghz.take(codes, axis=0)  # the Born rows' CDFs
        cdf += alpha * cdf_mixed.take(codes, axis=0)
        inputs[lo:hi] = chosen
        outcomes[lo:hi] = 1 - 2 * _bits(_inverse_cdf(cdf, u[:, 1]))  # bit 0 -> +1
        won[lo:hi] = game.won_terms(terms, outcomes[lo:hi])
    inputs[held] = outcomes[held] = 0
    won[held] = False
    transcript = Transcript(inputs, outcomes, won, held, seed)
    if bound is None:
        return transcript, None
    return transcript, max_certified_extractability(
        certification_query(transcript, game, bound, delta))
