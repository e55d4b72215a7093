"""Bell functionals, their violations and bounds, and the nonlocal-game view.

A functional is a signed sum of product-correlator terms; each term names the
measurement setting used by each involved party. Three concrete four-party
functionals are provided (``mermin``, ``baccari``, ``zhao``) together with the
measurement settings that reach their quantum bounds on the GHZ state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import I2, X, Z, Y, expectation, is_dichotomic, kron_all

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BellTerm:
    """One product term: a coefficient and a per-party setting (None = not involved)."""

    coefficient: float
    settings: tuple  # e.g. (0, 1, None, 0)

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        if all(s is None for s in self.settings):
            raise ValueError("term must involve at least one party")
        for s in self.settings:
            if isinstance(s, bool) or s not in (0, 1, None):
                raise ValueError(f"setting index must be 0, 1 or None, got {s!r}")

    @property
    def involved(self) -> tuple[int, ...]:
        return tuple(p for p, s in enumerate(self.settings) if s is not None)

    @property
    def sign(self) -> int:
        return 1 if self.coefficient > 0 else -1


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """A Bell functional with its quantum/classical/algebraic bounds.

    ``ideal_settings`` holds, per party, the pair of dichotomic observables
    that achieves ``beta_q`` on the GHZ state.
    """

    name: str
    parties: int
    terms: tuple[BellTerm, ...]
    beta_q: float
    beta_c: float
    beta_alg: float
    ideal_settings: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    def __post_init__(self):
        if len(self.ideal_settings) != self.parties:
            raise ValueError("one (input-0, input-1) observable pair per party required")
        for term in self.terms:
            if len(term.settings) != self.parties:
                raise ValueError(f"term settings {list(term.settings)} do not name "
                                 f"one setting per party for {self.parties} parties")
        abs_sum = sum(abs(t.coefficient) for t in self.terms)
        if abs_sum != self.beta_alg:
            raise ValueError(f"beta_alg {self.beta_alg} != sum of |coefficients| {abs_sum}")
        if not self.beta_c <= self.beta_q <= self.beta_alg:
            raise ValueError("bounds must satisfy beta_c <= beta_q <= beta_alg")
        for pair in self.ideal_settings:
            for obs in pair:
                if np.shape(obs) != (2, 2) or not is_dichotomic(obs):
                    raise ValueError("ideal settings must be ±1-valued 2×2 observables")


def _validate_settings(settings, parties: int) -> None:
    if len(settings) != parties:
        raise ValueError(f"expected {parties} setting pairs, got {len(settings)}")
    for pair in settings:
        for obs in pair:
            if not is_dichotomic(obs):
                raise ValueError("measurement settings must be ±1-valued observables")


def term_operator(term: BellTerm, settings) -> np.ndarray:
    """Tensor-product observable for one term, identity on uninvolved parties."""
    factors = [
        I2 if s is None else settings[p][s] for p, s in enumerate(term.settings)
    ]
    return kron_all(factors)


def violation(rho: np.ndarray, functional: BellFunctional) -> float:
    """Value of the functional on a state at its ideal settings: Σ_k c_k·Tr(ρ·O_k)."""
    return sum(
        t.coefficient * expectation(rho, term_operator(t, functional.ideal_settings))
        for t in functional.terms
    )


@dataclass(frozen=True, eq=False)
class NonlocalGame:
    """Referee view of a functional: term-indexed inputs and a parity win rule.

    Inputs are drawn term-by-term with probability ∝ |coefficient|; a round
    wins when the product of the involved parties' ±1 outcomes equals the
    sign of the term's coefficient. ``p_qm`` is the optimal quantum winning
    probability, 1/2 + beta_q/(2·beta_alg).
    """

    functional: BellFunctional
    input_distribution: tuple[float, ...]
    p_qm: float

    def __post_init__(self):
        total = sum(self.input_distribution)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"input distribution sums to {total!r}, not 1")

    def won(self, term_index: int, outcomes) -> bool:
        """Apply the win predicate to a full outcome tuple (uninvolved entries ignored)."""
        term = self.functional.terms[term_index]
        product = 1
        for p in term.involved:
            product *= outcomes[p]
        return product == term.sign

    def term_weights(self) -> np.ndarray:
        """Unnormalized P(term | input), shape (2^parties, terms) with party 1 the
        code's high bit: |c|·2^(−#uninvolved) where the term fits the input, else 0."""
        f = self.functional
        bits = (np.arange(2**f.parties)[:, None] >> np.arange(f.parties)[::-1]) & 1
        settings = np.array([[-1 if s is None else s for s in t.settings] for t in f.terms])
        match = ((settings < 0) | (settings == bits[:, None, :])).all(axis=2)
        return match * [abs(t.coefficient) * 0.5 ** (settings[k] < 0).sum()
                        for k, t in enumerate(f.terms)]

    def draw_terms(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Term per recorded round (the round does not name it) from its input row.

        The m rounds whose input matches several terms draw from
        :meth:`term_weights` with one ``rng.random(m)``, in round order.
        """
        weights = self.term_weights()
        codes = np.asarray(inputs, dtype=np.intp) @ (1 << np.arange(inputs.shape[1])[::-1])
        matches = np.count_nonzero(weights, axis=1)[codes]
        if not matches.all():
            bad = inputs[np.argmin(matches)].tolist()
            raise ValueError(f"input {bad} matches no term of operator {self.functional.name!r}")
        terms = np.argmax(weights > 0, axis=1)[codes]
        ambiguous = np.flatnonzero(matches > 1)
        cdf = np.cumsum(weights[codes[ambiguous]], axis=1)
        below = rng.random(len(ambiguous))[:, None] < cdf / cdf[:, -1:]  # last column is 1
        terms[ambiguous] = np.argmax(below, axis=1)
        return terms

    def won_terms(self, terms: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Batched :meth:`won`: win flags for term indices and ±1 outcome rows."""
        involved = np.array([[s is not None for s in t.settings] for t in self.functional.terms])
        negative = np.array([t.sign < 0 for t in self.functional.terms])
        return np.count_nonzero((outcomes < 0) & involved[terms], axis=1) % 2 == negative[terms]


def to_game(functional: BellFunctional) -> NonlocalGame:
    dist = tuple(abs(t.coefficient) / functional.beta_alg for t in functional.terms)
    p_qm = 0.5 + functional.beta_q / (2.0 * functional.beta_alg)
    return NonlocalGame(functional=functional, input_distribution=dist, p_qm=p_qm)


def pass_probability(rho: np.ndarray, game: NonlocalGame) -> float:
    """Exact per-round winning probability at the ideal settings,
    1/2 + violation/(2·beta_alg)."""
    f = game.functional
    return 0.5 + violation(rho, f) / (2.0 * f.beta_alg)


def mermin_functional() -> BellFunctional:
    """Four-party Mermin functional: β_C = 4, β_Q = β_alg = 8, settings X/Y."""
    rows = [
        (+1, (0, 0, 0, 0)),
        (-1, (1, 1, 0, 0)),
        (-1, (1, 0, 1, 0)),
        (-1, (1, 0, 0, 1)),
        (+1, (1, 1, 1, 1)),
        (-1, (0, 1, 1, 0)),
        (-1, (0, 1, 0, 1)),
        (-1, (0, 0, 1, 1)),
    ]
    terms = tuple(BellTerm(float(c), s) for c, s in rows)
    xy = (X, Y)
    return BellFunctional(
        name="mermin",
        parties=4,
        terms=terms,
        beta_q=8.0,
        beta_c=4.0,
        beta_alg=8.0,
        ideal_settings=(xy, xy, xy, xy),
    )


def baccari_functional() -> BellFunctional:
    """Pair-plus-stabilizer functional: β_C = 6, β_Q = 6√2, β_alg = 12."""
    rows = [
        (+3, (0, 0, 0, 0)),
        (+3, (1, 0, 0, 0)),
        (+1, (0, 1, None, None)),
        (-1, (1, 1, None, None)),
        (+1, (0, None, 1, None)),
        (-1, (1, None, 1, None)),
        (+1, (0, None, None, 1)),
        (-1, (1, None, None, 1)),
    ]
    terms = tuple(BellTerm(float(c), s) for c, s in rows)
    a = ((X + Z) / SQRT2, (X - Z) / SQRT2)
    xz = (X, Z)
    return BellFunctional(
        name="baccari",
        parties=4,
        terms=terms,
        beta_q=6.0 * SQRT2,
        beta_c=6.0,
        beta_alg=12.0,
        ideal_settings=(a, xz, xz, xz),
    )


def zhao_functional() -> BellFunctional:
    """Six-term functional with composite A-terms expanded: β_C = 4, β_Q = 2√2+2.

    The GHZ-optimal settings put Z on input 0 and X on input 1 for parties
    B, C, D (the opposite labelling leaves every term with zero expectation
    on the GHZ state).
    """
    rows = [
        (+1, (0, 1, 1, 1)),
        (+1, (1, 1, 1, 1)),
        (+1, (0, 0, None, None)),
        (-1, (1, 0, None, None)),
        (+1, (None, 0, 0, None)),
        (+1, (None, 0, None, 0)),
    ]
    terms = tuple(BellTerm(float(c), s) for c, s in rows)
    a = ((X + Z) / SQRT2, (X - Z) / SQRT2)
    zx = (Z, X)
    return BellFunctional(
        name="zhao",
        parties=4,
        terms=terms,
        beta_q=2.0 * SQRT2 + 2.0,
        beta_c=4.0,
        beta_alg=6.0,
        ideal_settings=(a, zx, zx, zx),
    )


OPERATORS = {
    "mermin": mermin_functional,
    "baccari": baccari_functional,
    "zhao": zhao_functional,
}


def get_functional(name: str) -> BellFunctional:
    try:
        return OPERATORS[name]()
    except KeyError:
        raise ValueError(f"unknown operator {name!r}; choose from {sorted(OPERATORS)}") from None


def _number(value, name: str) -> float:
    """A JSON number as a float; bools, strings, NaN and infinities are not numbers."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"functional JSON field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _pair(items, what: str) -> list:
    """A JSON list of exactly two items inside ideal_settings."""
    if len(items) != 2:
        raise ValueError(f"functional JSON field 'ideal_settings' needs {what}, "
                         f"got {len(items)} items")
    return items


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([
        [complex(*(_number(x, "ideal_settings") for x in _pair(entry, "[re, im] entries")))
         for entry in row]
        for row in rows
    ])


def functional_from_json(text: str) -> BellFunctional:
    """Functional from its JSON object: a string name, an integer parties, terms
    (finite coefficient, settings of 0, 1 or null), finite beta_q, beta_c and
    beta_alg, and ideal_settings, matrices as rows of finite [re, im] pairs. A
    missing field or one of the wrong JSON type raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("functional JSON must be an object")
    try:
        name, parties = doc["name"], doc["parties"]
        if not isinstance(name, str) or type(parties) is not int:
            raise ValueError("functional JSON needs a string name and an integer parties, "
                             f"got {name!r} and {parties!r}")
        terms = tuple(
            BellTerm(_number(t["coefficient"], "coefficient"), tuple(t["settings"]))
            for t in doc["terms"]
        )
        settings = tuple(
            tuple(map(_matrix_from_json, _pair(pair, "pairs of matrices")))
            for pair in doc["ideal_settings"]
        )
        return BellFunctional(
            name=name,
            parties=parties,
            terms=terms,
            beta_q=_number(doc["beta_q"], "beta_q"),
            beta_c=_number(doc["beta_c"], "beta_c"),
            beta_alg=_number(doc["beta_alg"], "beta_alg"),
            ideal_settings=settings,
        )
    except (KeyError, TypeError, OverflowError) as exc:  # missing, wrong container, huge int
        raise ValueError(f"functional JSON has a missing or malformed field ({exc})") from None
