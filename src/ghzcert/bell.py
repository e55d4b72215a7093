"""Bell functionals, their violations and bounds, and the nonlocal-game view.

A functional is a signed sum of product-correlator terms; each term names the
measurement setting used by each involved party. Three concrete four-party
functionals are provided (``mermin``, ``baccari``, ``zhao``) together with the
measurement settings that reach their quantum bounds on the GHZ state.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import I2, X, Z, Y, expectation, is_dichotomic, kron_all

SQRT2 = math.sqrt(2.0)

#: party (observable for input 0, observable for input 1) pairs
SettingPair = tuple[np.ndarray, np.ndarray]


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
            if s not in (0, 1, None):
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
    ideal_settings: tuple[SettingPair, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.ideal_settings) != self.parties:
            raise ValueError("one (input-0, input-1) observable pair per party required")
        abs_sum = sum(abs(t.coefficient) for t in self.terms)
        if abs_sum != self.beta_alg:
            raise ValueError(f"beta_alg {self.beta_alg} != sum of |coefficients| {abs_sum}")
        if not self.beta_c <= self.beta_q <= self.beta_alg:
            raise ValueError("bounds must satisfy beta_c <= beta_q <= beta_alg")
        for pair in self.ideal_settings:
            for obs in pair:
                if not is_dichotomic(obs):
                    raise ValueError("ideal settings must be ±1-valued observables")


def _validate_settings(settings, parties: int) -> None:
    if len(settings) != parties:
        raise ValueError(f"expected {parties} setting pairs, got {len(settings)}")
    for pair in settings:
        for obs in pair:
            if not is_dichotomic(obs):
                raise ValueError("measurement settings must be ±1-valued observables")


def term_operator(term: BellTerm, settings, parties: int) -> np.ndarray:
    """Tensor-product observable for one term, identity on uninvolved parties."""
    factors = [
        I2 if s is None else settings[p][s] for p, s in enumerate(term.settings)
    ]
    return kron_all(factors)


def violation(rho: np.ndarray, functional: BellFunctional, settings=None) -> float:
    """Value of the functional on a state: Σ_k c_k·Tr(ρ·O_k)."""
    if settings is None:
        settings = functional.ideal_settings
    else:
        _validate_settings(settings, functional.parties)
    return sum(
        t.coefficient * expectation(rho, term_operator(t, settings, functional.parties))
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


def to_game(functional: BellFunctional) -> NonlocalGame:
    dist = tuple(abs(t.coefficient) / functional.beta_alg for t in functional.terms)
    p_qm = 0.5 + functional.beta_q / (2.0 * functional.beta_alg)
    return NonlocalGame(functional=functional, input_distribution=dist, p_qm=p_qm)


def pass_probability(rho: np.ndarray, game: NonlocalGame, settings=None) -> float:
    """Exact per-round winning probability, 1/2 + violation/(2·beta_alg)."""
    f = game.functional
    return 0.5 + violation(rho, f, settings) / (2.0 * f.beta_alg)


def classical_bound(functional: BellFunctional) -> float:
    """Maximum of the functional over all deterministic ±1 local strategies.

    Exhaustive: every party deterministically assigns ±1 to each of its two
    settings, 2^(2·parties) assignments in total.
    """
    parties = functional.parties
    best = -math.inf
    for assignment in itertools.product((-1, 1), repeat=2 * parties):
        value = 0.0
        for t in functional.terms:
            prod = t.coefficient
            for p, s in enumerate(t.settings):
                if s is not None:
                    prod *= assignment[2 * p + s]
            value += prod
        best = max(best, value)
    return best


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


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in m]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def functional_to_json(functional: BellFunctional) -> str:
    """Serialize a functional (terms, coefficients, bounds, settings) to JSON."""
    doc = {
        "name": functional.name,
        "parties": functional.parties,
        "terms": [
            {"coefficient": t.coefficient, "settings": list(t.settings)}
            for t in functional.terms
        ],
        "beta_q": functional.beta_q,
        "beta_c": functional.beta_c,
        "beta_alg": functional.beta_alg,
        "ideal_settings": [
            [_matrix_to_json(pair[0]), _matrix_to_json(pair[1])]
            for pair in functional.ideal_settings
        ],
    }
    return json.dumps(doc, indent=2)


def functional_from_json(text: str) -> BellFunctional:
    doc = json.loads(text)
    terms = tuple(
        BellTerm(float(t["coefficient"]), tuple(t["settings"])) for t in doc["terms"]
    )
    settings = tuple(
        (_matrix_from_json(p0), _matrix_from_json(p1))
        for p0, p1 in doc["ideal_settings"]
    )
    return BellFunctional(
        name=doc["name"],
        parties=int(doc["parties"]),
        terms=terms,
        beta_q=float(doc["beta_q"]),
        beta_c=float(doc["beta_c"]),
        beta_alg=float(doc["beta_alg"]),
        ideal_settings=settings,
    )
