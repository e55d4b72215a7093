"""Independent scalar oracles for the tests, kept out of the package.

The package assembles the self-testing certificate in batches
(``certificate_operators``), as diagonal blocks in a fixed basis U.
``dense_operators`` maps them back to the computational basis as
U·blockdiag·U†. The scalar forms here follow Kaniewski's channel family
(PRL 117, 070402, 2016) one Jordan angle and one party at a time, so the
tests can check the batched assembly against a second derivation. The
violation at arbitrary settings, the density-matrix check, the exhaustive
classical bound and the functional writer serve the tests alone; no pipeline
calls them.
"""

import itertools
import json
import math

import numpy as np

from ghzcert.bell import BellFunctional, _validate_settings, term_operator
from ghzcert.quantum import expectation, hermitian_eigenvalues, is_hermitian
from ghzcert.selftest import (
    HALF_PI,
    QUARTER_PI,
    _certificate_tables,
    certificate_eigenvalues,
    certificate_operators,
    channel_weight,
    evaluate_grid,
    open_grid,
)

TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def jordan_observable(alpha: float, setting: int, basis) -> np.ndarray:
    """cos(α)·σ₊ + (−1)^setting·sin(α)·σ₋; dichotomic for every α."""
    if not 0.0 <= alpha <= HALF_PI:
        raise ValueError(f"Jordan angle {alpha!r} outside [0, pi/2]")
    if setting not in (0, 1):
        raise ValueError(f"setting must be 0 or 1, got {setting!r}")
    plus, minus = basis
    sign = 1.0 if setting == 0 else -1.0
    return math.cos(alpha) * plus + sign * math.sin(alpha) * minus


def extraction_channel(alpha: float, rho: np.ndarray, basis, branch: int | None = None) -> np.ndarray:
    """Single-qubit channel Λ(ρ) = (1+g)/2·ρ + (1−g)/2·Γ ρ Γ.

    Γ is σ₊ on [0, π/4] and σ₋ on (π/4, π/2]; ``branch`` overrides the choice
    (only meaningful exactly at π/4). The channel is unital, trace preserving
    and self-adjoint, so applying it to a projector is the same as applying
    its adjoint.
    """
    if not 0.0 <= alpha <= HALF_PI:
        raise ValueError(f"Jordan angle {alpha!r} outside [0, pi/2]")
    plus, minus = basis
    if branch is None:
        branch = 1 if alpha <= QUARTER_PI else -1
    gamma = plus if branch == 1 else minus
    g = channel_weight(alpha)
    return 0.5 * (1.0 + g) * rho + 0.5 * (1.0 - g) * (gamma @ rho @ gamma)


def branches_of(angles) -> tuple[int, ...]:
    """Each angle's channel branch: +1 (σ₊) up to and including π/4, −1 above."""
    return tuple(1 if a <= QUARTER_PI else -1 for a in angles)


def certificate_min_eig(s: float, angles, functional: BellFunctional) -> float:
    """Certificate minimum eigenvalue at one angle tuple, on :func:`branches_of`."""
    return float(certificate_eigenvalues(
        s, np.array([angles], dtype=float), np.array([branches_of(angles)]), functional)[0])


def dense_operators(angles, branches, functional: BellFunctional) -> tuple[np.ndarray, ...]:
    """(K, B) of ``certificate_operators`` as (n, 16, 16) computational-basis
    matrices: U·blockdiag(blocks)·U† per point."""
    u = _certificate_tables(functional)[0]
    dense = []
    for blocks in certificate_operators(angles, branches, functional):
        blocks = blocks.reshape(len(angles), -1, *blocks.shape[1:])
        d = blocks.shape[-1]
        diag = np.zeros((len(angles), 16, 16), dtype=complex)
        for b in range(blocks.shape[1]):
            diag[:, b * d:(b + 1) * d, b * d:(b + 1) * d] = blocks[:, b]
        dense.append(u @ diag @ u.conj().T)
    return tuple(dense)


def build_K(angles, functional: BellFunctional) -> np.ndarray:
    """Extraction channels applied factor-wise to the GHZ projector."""
    k_op, _ = dense_operators(
        np.array([angles], dtype=float), np.array([branches_of(angles)]), functional)
    return k_op[0]


def _evaluate(s: float, functional: BellFunctional, step: float, threads: int):
    """Certificate minimum eigenvalues at slope ``s`` on a grid opened for it, in
    grid order (one :func:`evaluate_grid` pass)."""
    with open_grid(functional, step, threads) as grid:
        return evaluate_grid(s, grid)


def violation_at(rho: np.ndarray, functional: BellFunctional, settings) -> float:
    """Σ_k c_k·Tr(ρ·O_k) with one (input-0, input-1) dichotomic pair per party."""
    _validate_settings(settings, functional.parties)
    return sum(
        t.coefficient * expectation(rho, term_operator(t, settings)) for t in functional.terms
    )


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Returns the input unchanged so the check composes inline.
    """
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    smallest = hermitian_eigenvalues(rho)[0]
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:g}")
    return rho


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


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in m]


def functional_to_json(functional: BellFunctional) -> str:
    """The JSON object that ``functional_from_json`` reads."""
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
