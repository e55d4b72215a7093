"""Robust self-testing bounds: extractability ≥ s·β + μ.

The slope s is certified numerically: both the Bell operator and a family of
single-qubit extraction channels are parameterized by one Jordan angle per
party, and s is feasible when the operator

    K(ᾱ) − s·B(ᾱ) − μ·𝟙 = (K − 𝟙) + s·C,   μ = 1 − s·β_Q,   C = β_Q·𝟙 − B ⪰ 0,

has nonnegative minimum eigenvalue at every angle tuple on a grid. Because C
is positive semidefinite, each grid point has a closed-form smallest feasible
slope, the generalized eigenvalue λ_max(C^{-1/2}(𝟙 − K)C^{-1/2})
(``slope_thresholds``), and s is their maximum over the grid. C ⪰ 0 also makes
a point's minimum eigenvalue nondecreasing in s, so a point whose minimum at a
slope s₀ is at least LAZY_MARGIN has its threshold below s₀: ``bound_search``
seeds s₀ on a nested coarse grid, runs one certificate pass at s₀
(``evaluate_grid``), and computes thresholds only where that pass falls below
the margin. That pass needs only which points fall below it: ``_clears``
factors each block of X − (LAZY_MARGIN + SCREEN_GAP)·𝟙, X the certificate,
with an unpivoted LDLᵀ. One that runs to completion is backward stable, exact
for a matrix within about 1e-13 of the shifted X (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., Thm 10.3), so positive pivots
prove λ_min(X) above the margin by more than eigvalsh's error. Such a point
reads +∞; only the rest (2 of mermin π/24's 336) are eigensolved, to the bits
of a full pass. Every pass evaluates a ``Grid``, one vector of node angles and
node-index rows into it, in chunks of rows that gather their weights from the
nodes' (``node_weights``). The caller takes every reduction (the largest
threshold, the first minimum), with ties in grid order.

A pass with a floor first clears whole cells, boxes of node indices that
never straddle π/4 (``evaluate_grid``). With s and each party's branch fixed,
X is affine in each party's u = (cos α, sin α) (``plane_weights``), so λ_min,
concave in X, is least over a product of triangles at a vertex combination.
The arc from a to b lies in the triangle u(a), u(b), (cos m, sin m)/cos(h/2),
m = (a + b)/2, h = b − a: when ``_clears`` passes all 3⁴ combinations, every
grid point of the cell is above the floor, up to rounding far below SCREEN_GAP.

The grid holds one point per orbit of the functional's symmetry group
(``symmetry_group``, ``_orbit_rows``). An element permutes the parties and
reflects some of them, α ↦ π/2 − α, which swaps the σ₊ and σ₋ weights of
both operators. It counts only when a local Clifford W (the permutation, a
Hadamard on each reflected party and a Pauli per party, in the frames below)
maps every K and B table entry onto the entry the element moves it to: then
at every angle tuple, K and B at its image are W's conjugates of K and B at
it. mermin's group has 192 elements, baccari's 48 and zhao's 16; at π/60
the grid holds 6,936, 25,296 and 67,456 of the product's 923,521 points.

Both operators are multilinear in one 3-vector per party over that party's
basis (𝟙, σ₊, σ₋), with σ± = (O₀ ± O₁)/√2 from its ideal settings. A Jordan
observable is cos α·σ₊ ± sin α·σ₋, so B weighs the basis by (1, cos α, sin α);
an extraction channel is p·ρ + q·ΓρΓ with Γ = σ₊ or σ₋ by branch, so K weighs
it by (p, q·[branch = +1], q·[branch = −1]). Each operator is therefore the
81-entry outer product of the four vectors times a fixed table of 81
operators (``certificate_operators``): one real matrix product per batch. The
branch is +1 up to π/4 and −1 above (``node_weights``, which alone reads
angles); at π/4, q = 0 on either branch, so a grid node is one angle.

The tables are built once per functional and process, in the basis
U = (⊗ₚ Wₚ)·Q of Kaniewski's channel family (PRL 117, 070402, 2016). Wₚ's
columns are σ₊'s eigenvectors, phased so that σ₊ → Z and σ₋ → X: B's entries
become real, and so do K's wherever U†|GHZ⟩ is real up to a phase, as for the
built-in functionals. Q holds the real eigenvectors of the parity
P = ⊗ₚ Wₚ†σ₋σ₊Wₚ = (XZ)^⊗4, which anticommutes with σ₊ and σ₋ on each party.
So P commutes with every built-in term, each on 2 or 4 parties, and with
every entry E_j·|GHZ⟩⟨GHZ|·E_j of K, since each channel's Γ enters twice and
P|GHZ⟩ = ±|GHZ⟩. K and B are then two real 8×8 blocks, on P's −1 and +1
eigenspaces: a point's threshold is the larger of its blocks', its minimum
eigenvalue the smaller. Above BLOCK_TOL, a table entry off the blocks (a term
on an odd number of parties) gives one 16×16 block instead, and an imaginary
part keeps complex dtype, so a file's functional loses no more than rounding.

Grid certification is necessary-only evidence for the continuum inequality;
results carry the worst grid point and its minimum eigenvalue, so that status
stays explicit.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bell import BellFunctional, get_functional
from .quantum import I2, X, Z, ghz_state, ghz_vector, is_dichotomic, kron_all

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
SQRT2 = math.sqrt(2.0)

DEFAULT_GRID_STEP = math.pi / 60
DEFAULT_SLACK = 1e-9
SATURATION_TOL = 2e-4  # published constants are rounded to ~4 decimals
#: an eigenvalue of C below KERNEL_TOL·β_Q counts as zero, and so does an entry
#: of (𝟙 − K) on that kernel below KERNEL_TOL: far above the ~1e-15 rounding at
#: the ideal point, far below C's eigenvalues at every other grid point
KERNEL_TOL = 1e-9
#: a point whose certificate minimum at the seed slope is at least LAZY_MARGIN
#: has its threshold below that slope: far above the ~1e-15 rounding of a
#: minimum eigenvalue, so no point at or above the seed slope goes unflagged
LAZY_MARGIN = 1e-9
#: the LDLᵀ screen factors X − (floor + SCREEN_GAP)·𝟙: about 1,000 times the
#: ~1e-13 rounding of LDLᵀ and eigvalsh for d ≤ 16 and ‖X‖₂ ≲ 20
SCREEN_GAP = 1e-10
#: a map's chunks hold at most SEARCH_CHUNK_ROWS points, to bound their memory,
#: and one only in a one-point map: numpy multiplies one row with gemv, not gemm
SEARCH_CHUNK_ROWS = 512
#: a cell of at most CELL_ROWS orbit rows is screened point by point, which
#: costs no more than a check of its 3⁴ vertex combinations
CELL_ROWS = 81
#: a table entry off P's blocks, or an imaginary part, this small is rounding
BLOCK_TOL = 1e-12
#: a symmetry candidate is proven when W maps each table entry onto its image to this
PROOF_TOL = 1e-12
#: a table row's basis index on a reflected party: 𝟙 stays, σ₊ and σ₋ swap
_REFLECTED = np.array([0, 2, 1], dtype=np.int8)
#: the Paulis 𝟙, X, Z, XZ of a party's frame (σ₊ = Z, σ₋ = X), real and exact in
#: int8, the sign each one's conjugation gives 𝟙, σ₊ and σ₋, and the Hadamard,
#: which swaps σ₊ and σ₋
_PAULIS = np.array([I2, X, Z, [[0, -1], [1, 0]]]).real.astype(np.int8)
_PAULI_SIGNS = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1], [1, -1, -1]])
_HADAMARD = (X + Z).real / SQRT2

#: the paper's table (slope, offset) pairs per operator. baccari and zhao pass
#: the π/12 grid certificate, but baccari's fails off that grid: at
#: (30.909°, 6.126°, 45°, 45°) its certificate's minimum eigenvalue is -1.85e-6.
#: mermin's 0.1875 provably cannot pass the π/12 grid certificate: at the
#: Jordan point (0, π/4, π/4, π/4) a biseparable state reaches violation 4√2
#: with extractability at most 1/2, which forces s ≥ (2+√2)/16 ≈ 0.2134
#: (the grid search here certifies 7/32). zhao's grid slope is its all-zero
#: corner's threshold (52 + 53√2)/128 ≈ 0.99182
ROBUSTNESS_CONSTANTS = {
    "mermin": (0.1875, -0.5),
    "baccari": (0.4897, -3.1552),
    "zhao": (1.0, -1.0 - 2.0 * SQRT2),
}


class BoundSearchError(RuntimeError):
    """Raised when no slope in [0, 1] passes the grid certificate."""


@dataclass(frozen=True)
class SelfTestBound:
    """Slope/offset pair of the extractability bound plus the game constant.

    ``c`` translates the bound to the nonlocal-game picture: ε₂ = c·η with
    c = 1/(2·s·β_alg).
    """

    s: float
    mu: float
    beta_q: float
    beta_alg: float

    def __post_init__(self):
        if abs(self.s * self.beta_q + self.mu - 1.0) > SATURATION_TOL:
            raise ValueError("bound must reach 1 at maximal violation (mu = 1 - s*beta_q)")
        if self.s <= 0:
            raise ValueError("slope must be positive")

    @property
    def c(self) -> float:
        return 1.0 / (2.0 * self.s * self.beta_alg)

    @classmethod
    def from_slope(cls, s: float, functional: BellFunctional) -> "SelfTestBound":
        return cls(
            s=s,
            mu=1.0 - s * functional.beta_q,
            beta_q=functional.beta_q,
            beta_alg=functional.beta_alg,
        )


def published_bound(operator: str) -> SelfTestBound:
    """The paper's table robustness constants for a named operator.

    These are quoted, not derived here: baccari and zhao pass the π/12 grid
    certificate, while mermin's slope 0.1875 is below the floor (2+√2)/16
    that a biseparable witness imposes on any valid slope (see
    ``ROBUSTNESS_CONSTANTS``).
    """
    if operator not in ROBUSTNESS_CONSTANTS:
        raise ValueError(f"no robustness constants for operator {operator!r}")
    s, mu = ROBUSTNESS_CONSTANTS[operator]
    f = get_functional(operator)
    return SelfTestBound(s=s, mu=mu, beta_q=f.beta_q, beta_alg=f.beta_alg)


def extractability_bound(beta: float, bound: SelfTestBound) -> float:
    """Lower bound s·β + μ on the extractability at violation β (unclamped)."""
    if abs(beta) > bound.beta_alg + 1e-9:
        raise ValueError(f"violation {beta!r} exceeds the algebraic bound {bound.beta_alg}")
    return bound.s * beta + bound.mu


def sigma_basis(pair) -> tuple[np.ndarray, np.ndarray]:
    """(σ₊, σ₋) = ((O₀±O₁)/√2) from a party's ideal observable pair."""
    o0, o1 = pair
    plus = (o0 + o1) / SQRT2
    minus = (o0 - o1) / SQRT2
    if not (is_dichotomic(plus) and is_dichotomic(minus)):
        raise ValueError("ideal settings do not span an orthogonal dichotomic basis")
    return plus, minus


def channel_weight(c: float | np.ndarray, s: float | np.ndarray) -> float | np.ndarray:
    """Mixing weight g = (1+√2)(s + c − 1) at a point (c, s) of the plane (arrays
    too); at (cos α, sin α) it is 0 for α = 0 and π/2 and 1 for π/4."""
    return (1.0 + SQRT2) * (s + c - 1.0)


#: per-party coefficients of (𝟙, σ₊, σ₋) in a Bell term's factor, scaled by
#: (1, cos α, sin α): 𝟙 when the party is not involved, cos α·σ₊ ± sin α·σ₋
_SETTING_FACTORS = {None: (1.0, 0.0, 0.0), 0: (0.0, 1.0, 1.0), 1: (0.0, 1.0, -1.0)}


@functools.cache  # not at import: LAPACK's first call costs about 1 MB of RSS
def _parity_basis() -> np.ndarray:
    """Q: the parity (XZ)^⊗4's real eigenvectors in the parties' frames, −1 first."""
    return np.linalg.eigh(kron_all([_PAULIS[3]] * 4))[1]


def _term_factors(functional: BellFunctional) -> np.ndarray:
    """(terms, parties, 3) coefficients of each term's factor over each party's
    (𝟙, σ₊, σ₋) at weights (1, 1, 1), party 1's scaled by the term's coefficient."""
    factors = np.array([[_SETTING_FACTORS[s] for s in t.settings] for t in functional.terms])
    factors[:, 0] *= np.array([t.coefficient for t in functional.terms])[:, None]
    return factors


def _kron_table(stacks: np.ndarray) -> np.ndarray:
    """Σ_t stacks[t,0,j₁] ⊗ … ⊗ stacks[t,3,j₄] for every index tuple j.

    ``stacks`` has shape (terms, 4, 3, 2, 2); the result has shape (81, 16, 16),
    row j₁j₂j₃j₄ in base 3 with party 1 most significant and leftmost.
    """
    table = np.einsum(
        "tiab,tjcd,tkef,tlgh->ijklacegbdfh", *stacks.swapaxes(0, 1), optimize=True
    )
    return table.reshape(81, 16, 16)


@functools.lru_cache(maxsize=4)  # BellFunctional hashes by identity
def _certificate_tables(functional: BellFunctional) -> tuple[np.ndarray, ...]:
    """(U, K table, B table); each table has shape (81, blocks, d, d) in U's basis.

    B's entry j is Σ_t c_t·⊗_p (term t's factor on basis element j_p); K's is
    E_j·|GHZ⟩⟨GHZ|·E_j with E_j = ⊗_p (𝟙, σ₊, σ₋)[j_p]. U and layout: module docstring.
    """
    if functional.parties != 4:
        raise ValueError("certificate evaluation supports 4 parties")
    sigmas = [sigma_basis(pair) for pair in functional.ideal_settings]
    frames = []
    for plus, minus in sigmas:
        w = np.linalg.eigh(plus)[1][:, ::-1]  # columns: σ₊ = +1, −1
        phase = w[:, 1].conj() @ minus @ w[:, 0]
        frames.append(w * [1.0, phase / abs(phase)])
    u = kron_all(frames) @ _parity_basis()
    basis = np.array([(I2, *pair) for pair in sigmas])
    b_table = _kron_table(_term_factors(functional)[..., None, None] * basis)
    e_table = _kron_table(basis[None])
    tables = u.conj().T @ np.stack([e_table @ ghz_state() @ e_table, b_table]) @ u
    split = tables.reshape(2, 81, 2, 8, 2, 8)
    if np.abs(split[:, :, 0, :, 1]).max() <= BLOCK_TOL:
        tables = np.stack([split[:, :, b, :, b] for b in (0, 1)], axis=2)
    tables = tables.reshape(2, 81, -1, *tables.shape[-2:])
    if np.abs(tables.imag).max() <= BLOCK_TOL:
        tables = tables.real.copy()
    for t in (u, tables):
        t.setflags(write=False)
    return u, tables[0], tables[1]


def _contract(vectors: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Σ_j Π_p vectors[:, p, j_p]·table[j]: (n, 4, 3) per-party weights → (n·blocks, d, d)."""
    n = len(vectors)
    weights = vectors[:, 0]
    for p in range(1, 4):
        weights = (weights[:, :, None] * vectors[:, p, None, :]).reshape(n, -1)
    out = weights @ table.reshape(81, -1).view(float)  # a real product for complex tables too
    return out.view(table.dtype).reshape(-1, *table.shape[2:])


def plane_weights(c: np.ndarray, s: np.ndarray, plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) weight vectors over (𝟙, σ₊, σ₋) at plane points (c, s), each ``c.shape +
    (3,)``, affine in (c, s) on branch +1 (Γ = σ₊) where ``plus``, and on −1."""
    g = channel_weight(c, s)
    p_w, q_w = 0.5 * (1.0 + g), 0.5 * (1.0 - g)
    k_vectors = np.stack([p_w, np.where(plus, q_w, 0.0), np.where(plus, 0.0, q_w)], axis=-1)
    b_vectors = np.stack([np.ones_like(c), c, s], axis=-1)
    return k_vectors, b_vectors


def node_weights(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`plane_weights` at each angle's (cos α, sin α), on branch +1 up to π/4."""
    angles = np.asarray(angles, dtype=float)
    return plane_weights(np.cos(angles), np.sin(angles), angles <= QUARTER_PI)


def certificate_operators(
    k_vectors: np.ndarray,
    b_vectors: np.ndarray,
    functional: BellFunctional,
) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) at a batch of points as U-basis blocks, each (n·blocks, d, d): the
    points' (n, parties, 3) weights (:func:`node_weights`) contracted with fixed tables."""
    _, k_table, b_table = _certificate_tables(functional)
    return _contract(k_vectors, k_table), _contract(b_vectors, b_table)


def _clears(blocks: np.ndarray, floor: float) -> np.ndarray:
    """Whether an unpivoted LDLᵀ of each Hermitian block of a (..., d, d) stack,
    less (floor + SCREEN_GAP)·𝟙, has every pivot positive: one step per column
    on a (d, d, ...) copy, for the whole stack."""
    a = np.moveaxis(blocks, (-2, -1), (0, 1)).copy()
    clear = np.ones(blocks.shape[:-2], dtype=bool)
    for k in range(len(a)):
        pivot = a[k, k].real - (floor + SCREEN_GAP)
        clear &= pivot > 0
        column = a[k + 1:, k]
        # a failed block divides by ∞ and stops changing: left to run, it overflows
        a[k + 1:, k + 1:] -= column[:, None] * (column.conj() / np.where(clear, pivot, np.inf))
    return clear


def certificate_eigenvalues(
    s: float,
    k_vectors: np.ndarray,
    b_vectors: np.ndarray,
    functional: BellFunctional,
    floor: float = -math.inf,
) -> np.ndarray:
    """Minimum eigenvalue of K − s·B − μ·𝟙 at each point of a batch of
    (n, parties, 3) weight pairs; μ is slaved to s via μ = 1 − s·β_Q.

    With a finite ``floor``, a point whose blocks all pass :func:`_clears` reads
    +∞: a completed LDLᵀ is backward stable, so their λ_min, as eigvalsh would
    read it, is above the floor (module docstring, SCREEN_GAP). The others
    are eigensolved as without a floor, to the same bits."""
    k_op, cert = certificate_operators(k_vectors, b_vectors, functional)
    cert *= -s
    cert += k_op  # K − s·B, in place: its bits, with one (n·blocks, d, d) array fewer
    cert = cert.reshape(len(k_vectors), -1, *k_op.shape[1:])  # (n, blocks, d, d)
    idx = np.arange(cert.shape[-1])
    cert[..., idx, idx] -= 1.0 - s * functional.beta_q  # μ
    open_ = slice(None) if floor == -math.inf else ~_clears(cert, floor).all(axis=1)
    minima = np.full(len(cert), math.inf)
    if len(cert[open_]):  # no eigvalsh on an empty batch
        minima[open_] = np.linalg.eigvalsh(cert[open_])[..., 0].min(axis=1)
    return minima


def slope_thresholds(
    k_vectors: np.ndarray,
    b_vectors: np.ndarray,
    functional: BellFunctional,
) -> np.ndarray:
    """Smallest slope passing the certificate at each point of a batch.

    The certificate is (K − 𝟙) + s·C with C = β_Q·𝟙 − B ⪰ 0, so it is
    positive semidefinite exactly when s ≥ λ_max(C^{-1/2}(𝟙 − K)C^{-1/2}) on
    the range of C and 𝟙 − K vanishes on the kernel of C; where it does not
    vanish no slope passes and the threshold is ∞.
    """
    k_op, bell_op = certificate_operators(k_vectors, b_vectors, functional)
    idx = np.arange(k_op.shape[-1])
    c_op = -bell_op
    c_op[:, idx, idx] += functional.beta_q
    a_op = -k_op
    a_op[:, idx, idx] += 1.0
    lam, vec = np.linalg.eigh(c_op)
    kernel = lam <= KERNEL_TOL * functional.beta_q
    whiten = vec / np.sqrt(np.where(kernel, np.inf, lam))[:, None, :]
    pencil = whiten.conj().transpose(0, 2, 1) @ a_op @ whiten
    thresholds = np.linalg.eigvalsh(pencil)[:, -1]
    singular = np.flatnonzero(kernel.any(axis=1))
    leak = a_op[singular] @ (vec[singular] * kernel[singular, None, :])
    thresholds[singular[np.abs(leak).max(axis=(1, 2)) > KERNEL_TOL]] = np.inf
    return thresholds.reshape(len(k_vectors), -1).max(axis=1)


@dataclass(frozen=True)
class SymmetryGroup:
    """Party permutations and reflections that leave every grid point's
    threshold and certificate spectrum unchanged (``symmetry_group``).

    Element e moves party p to party perms[e, p], reflected where flips[e, p].
    Reflecting a party maps its angle α to π/2 − α, node i to node n − 1 − i of
    ``angle_nodes``, and swaps its σ± weights; the π/4 node stays put. Every
    element's permutation keeps each of ``classes``, and every permutation
    within the classes is some element's.
    """

    classes: tuple[tuple[int, ...], ...]  # each sorted; together every party once
    perms: np.ndarray  # (order, parties), the identity first
    flips: np.ndarray  # (order, parties) bool

    @property
    def order(self) -> int:
        return len(self.perms)


def _binary(values, width: int) -> np.ndarray:
    """The ``width`` bits of each value, most significant first: (len(values), width)."""
    return (np.asarray(values)[:, None] >> np.arange(width - 1, -1, -1)) & 1


def _from_binary(bits: np.ndarray) -> np.ndarray:
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _table_image(perm: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Where each table row goes when party p moves to perm[..., p], reflected
    where flips[..., p]: σ₊ and σ₋ swap on a reflected party. Leading axes
    are candidates: (..., parties) arguments give (..., 3^parties) rows."""
    parties = perm.shape[-1]
    digits = np.indices((3,) * parties, np.int8).reshape(parties, -1)  # the rows' basis indices
    moved = np.where(flips[..., None], _REFLECTED[digits], digits)
    return np.einsum("...pr,...p->...r", moved, 3 ** (parties - 1 - perm))


def _dense(table: np.ndarray) -> np.ndarray:
    """A (rows, blocks, d, d) table as (rows, blocks·d, blocks·d) block diagonals."""
    rows, blocks, d, _ = table.shape
    dense = np.zeros((rows, blocks, d, blocks, d), table.dtype)
    dense[:, np.arange(blocks), :, np.arange(blocks)] = table.swapaxes(0, 1)
    return dense.reshape(rows, blocks * d, blocks * d)


@functools.cache  # 2ⁿ layers, where a group tries up to 2ⁿ·n! candidates
def _hadamard_layer(flips: tuple[bool, ...]) -> np.ndarray:
    """⊗ₚ (H where flips[p], else 𝟙), read-only: every caller shares it."""
    layer = kron_all([_HADAMARD if f else np.eye(2) for f in flips])
    layer.setflags(write=False)
    return layer


def _local_clifford(perm: np.ndarray, flips: tuple[bool, ...], strings: np.ndarray,
                    ghz: np.ndarray) -> np.ndarray:
    """W in U's basis for each of a stack of Pauli strings in the parties' frames
    that keeps ``ghz``, the frame GHZ vector, up to a phase, as W must for K's
    entry 0: the string, then a Hadamard on each party where flips[p], then
    party p's qubit moved to perm[p]. W·E_j·W† is E_image(j) times the
    string's sign."""
    local = _hadamard_layer(flips)
    rows = _binary(np.arange(len(local)), len(perm)) @ (1 << (len(perm) - 1 - perm))
    move = local[np.argsort(rows)]
    keeps = np.abs(np.abs(strings @ ghz @ (move.T @ ghz.conj())) - 1.0) <= PROOF_TOL
    return _parity_basis().T @ move @ strings[keeps] @ _parity_basis()


def _closure(generators: list) -> list:
    """The group that (perm, flips) tuples generate, sorted, the identity first."""
    group, frontier = set(generators), list(generators)
    while frontier:
        frontier = {
            (tuple(b[0][i] for i in a[0]), tuple(f ^ b[1][i] for f, i in zip(a[1], a[0])))
            for a in frontier for b in generators
        } - group  # a, then b
        group |= frontier
    return sorted(group)


@functools.lru_cache(maxsize=4)  # BellFunctional hashes by identity
def symmetry_group(functional: BellFunctional) -> SymmetryGroup:
    """The party permutations and reflections that the certificate tables prove.

    An element moves K's and B's table rows by ``_table_image``. It counts
    only when a ``_local_clifford`` W satisfies W·T_i·W† = T_image[i] on all 81
    K and 81 B table entries, to PROOF_TOL; K and B at a point's image are then
    W's conjugates of K and B at the point, with the same threshold and
    spectrum. W maps E_j to ±E_image(j), and B's entry j is b_j·E_j, so only
    the Pauli strings whose signs carry b onto b[image] are tried, none when
    |b[image]| ≠ |b|, and W is built only for those that keep the frame GHZ
    vector, as K's entry 0 requires. Of the 2ⁿ·n! candidates, only those that
    the elements proven so far do not generate are proven. Parties that some
    element's transposition swaps form a class; elements whose permutation
    leaves a class are dropped, so that sorting within classes picks a point's
    orbit.
    """
    u, k_table, b_table = _certificate_tables(functional)
    ghz = _parity_basis() @ u.conj().T @ ghz_vector()  # in the parties' frames
    parties = functional.parties
    # permutations first, then by the number of reflected parties: the first
    # candidates proven generate most of the rest, which need no proof
    candidates = sorted(itertools.product(itertools.permutations(range(parties)),
                                          itertools.product((False, True), repeat=parties)),
                        key=lambda element: sum(element[1]))
    perms, flips = (np.array(part) for part in zip(*candidates))
    images = _table_image(perms, flips)
    b = np.einsum("ta,tb,tc,td->abcd", *_term_factors(functional).swapaxes(0, 1)).reshape(-1)
    strings = functools.reduce(np.kron, [_PAULIS] * parties)  # every Pauli string
    signs = functools.reduce(np.kron, [_PAULI_SIGNS] * parties)  # its sign on each row
    tables = _dense(np.concatenate([k_table, b_table]))
    matched = np.abs(np.abs(b[images]) - np.abs(b)).max(axis=1) <= PROOF_TOL
    generators, group = [], [(tuple(range(parties)), (False,) * parties)]
    for perm, flip, image in zip(perms[matched], flips[matched], images[matched]):
        element = (tuple(perm.tolist()), tuple(flip.tolist()))
        if element in group:
            continue
        found = np.abs(signs * b - b[image]).max(axis=1) <= PROOF_TOL
        ws = _local_clifford(perm, element[1], strings[found], ghz)
        rows = np.concatenate([image, image + len(k_table)])
        if any(np.abs(w @ tables @ w.T - tables[rows]).max() <= PROOF_TOL for w in ws):
            generators.append(element)
            group = _closure(generators)
    classes = [{p} for p in range(parties)]
    for perm, _ in group:
        if sum(q != p for p, q in enumerate(perm)) == 2:  # a transposition
            p, q = (p for p, q in enumerate(perm) if q != p)
            joined = next(c for c in classes if p in c) | next(c for c in classes if q in c)
            classes = [c for c in classes if not c & joined] + [joined]
    kept = [(perm, flip) for perm, flip in group
            if all(perm[p] in c for c in classes for p in c)]
    return SymmetryGroup(
        tuple(sorted(tuple(sorted(c)) for c in classes)),
        np.array([perm for perm, _ in kept]), np.array([flip for _, flip in kept]),
    )


def snap_grid_step(grid_step: float) -> tuple[float, int]:
    """Snap a requested step to the nearest exact divisor of π/2.

    Accepts steps quoted to a few decimals (π/60 ≈ 0.05236); the interval
    count must come out even so that π/4 lands on a grid node.
    """
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {grid_step!r}")
    ratio = HALF_PI / grid_step  # inf for a subnormal step
    intervals = round(ratio) if ratio < math.inf else 0
    if intervals < 2 or abs(intervals * grid_step - HALF_PI) > 1e-3:
        raise ValueError(f"grid step {grid_step!r} does not divide pi/2")
    if intervals % 2 != 0:
        raise ValueError(f"grid step {grid_step!r} does not place pi/4 on the grid")
    return HALF_PI / intervals, intervals


def angle_nodes(grid_step: float) -> np.ndarray:
    """Grid nodes on [0, π/2] in increasing order, π/4 among them once.

    Requires the step to divide π/2 into an even number of intervals so that
    π/4 is a node.
    """
    return np.linspace(0.0, HALF_PI, snap_grid_step(grid_step)[1] + 1)


def _orbit_rows(n_nodes: int, group: SymmetryGroup) -> np.ndarray:
    """One node-index row per orbit of ``group`` on the product grid, in no set
    order, enumerated without the product.

    A row is a fold f_p = min(i_p, n − 1 − i_p), sorted within each class, and
    a side: the set of parties whose node lies above the middle (π/4) one. The
    elements that fix f permute and reflect the sides, so an orbit's rows with
    this f are one side orbit; the row kept has its side mask (party 1 the most
    significant bit) the smallest in that orbit. Which elements fix f depends
    only on which folds are the middle and which are equal within a class, so
    the kept side masks of every such pattern are computed at once, from the
    masks of every element's image of every side.
    """
    parties = sum(map(len, group.classes))
    middle = n_nodes // 2
    folds = np.zeros((1, parties), dtype=np.int32)
    for members in group.classes:
        combos = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(middle + 1), len(members))),
            dtype=np.int32,
        ).reshape(-1, len(members))
        folds = np.repeat(folds, len(combos), axis=0)
        folds[:, list(members)] = np.tile(combos, (len(folds) // len(combos), 1))
    pairs = np.array([pair for members in group.classes
                      for pair in itertools.combinations(members, 2)], dtype=int).reshape(-1, 2)
    flags = np.hstack([folds == middle, folds[:, pairs[:, 0]] == folds[:, pairs[:, 1]]])
    codes = flags @ (1 << np.arange(flags.shape[1]))
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    del flags, codes
    firsts = folds[order[starts]]  # one fold per pattern: (patterns, parties)
    middles = firsts == middle
    fixing = (firsts[:, group.perms] == firsts[:, None, :]).all(axis=2)  # (patterns, order)
    sides = _binary(np.arange(2**parties), parties).astype(bool)
    # the side mask of each element's image of each side: (sides, order)
    images = ((sides[:, None, :] ^ group.flips) << (parties - 1 - group.perms)).sum(axis=2)
    least = (images & _from_binary(~middles)[:, None, None]).min(
        axis=2, where=fixing[:, None, :], initial=2**parties)
    keep = ~(sides & middles[:, None, :]).any(axis=2) & (_from_binary(sides) == least)
    sizes = np.diff(starts, append=len(order)) * keep.sum(axis=1)
    rows = np.empty((sizes.sum(), parties), dtype=folds.dtype)
    for members, kept, end, size in zip(np.split(order, starts[1:]), keep, sizes.cumsum(), sizes):
        f = folds[members][:, None, :]
        rows[end - size:end] = np.where(sides[kept], n_nodes - 1 - f, f).reshape(-1, parties)
    return rows


def _map_rows(rows: np.ndarray, fn: Callable, head: tuple, k_nodes: np.ndarray,
              b_nodes: np.ndarray, functional: BellFunctional) -> np.ndarray:
    """``fn(*head, k_vectors, b_vectors, functional)`` at rows of indices into
    (nodes, 3) weight tables, in row order, in near-equal chunks of at most
    max(SEARCH_CHUNK_ROWS, 3) rows, and of one row only when ``rows`` has one."""
    size = len(rows)
    if not size:
        return np.empty(0)
    chunks = max(1, min(-(-size // SEARCH_CHUNK_ROWS), size // 2))
    return np.concatenate([
        fn(*head, k_nodes[part], b_nodes[part], functional)
        for part in (rows[i * size // chunks:(i + 1) * size // chunks] for i in range(chunks))
    ])


@dataclass(frozen=True)
class Grid:
    """A functional's Jordan-angle grid, with the map that evaluates it."""

    nodes: np.ndarray  # node angles, every party's: row r's party p is at nodes[r[p]]
    indices: np.ndarray  # (points, parties) node-index rows, in grid order
    functional: BellFunctional

    def point(self, row: np.ndarray) -> tuple[float, ...]:
        """The Jordan angles of node-index ``row``, one per party."""
        return tuple(float(a) for a in self.nodes[row])

    def values(self, rows: np.ndarray, fn: Callable, *head) -> np.ndarray:
        """:func:`_map_rows` at node-index ``rows``, whose chunks keep each point's bits."""
        return _map_rows(rows, fn, head, *node_weights(self.nodes), self.functional)


def open_grid(functional: BellFunctional, grid_step: float) -> Grid:
    """The grid of ``functional`` at ``grid_step``: one node-index row per orbit of
    :func:`symmetry_group` on the product of :func:`angle_nodes`
    (:func:`_orbit_rows`), in lexicographic order. Every point of the product
    has the threshold and certificate spectrum of its orbit's point, so every
    extremum over the grid is the product's.
    """
    nodes = angle_nodes(grid_step)
    rows, key = _orbit_rows(len(nodes), symmetry_group(functional)), 0
    for column in rows.T:  # one sort key: np.lexsort took 137 of 175 ms at zhao π/120
        key = key * len(nodes) + column.astype(np.int64)
    return Grid(nodes, rows[np.argsort(key, kind="stable")], functional)


def _seed_step(intervals: int) -> int:
    """The seed rows' and level-0 cells' node step: the nested π/12 grid's, or intervals/2."""
    return intervals // 6 if intervals % 6 == 0 and intervals > 6 else intervals // 2


def _cells_clear(s: float, grid: Grid, lo: np.ndarray, hi: np.ndarray, floor: float) -> np.ndarray:
    """Whether :func:`certificate_eigenvalues` at ``floor`` reads +∞ at every vertex
    combination of each cell, the box from node-index row ``lo`` to ``hi``."""
    n = lo.shape[1]
    a, b = grid.nodes[lo], grid.nodes[hi]
    angles, ones = np.stack([a, b, (a + b) / 2.0], axis=-1), np.ones_like(a)
    radius = np.stack([ones, ones, 1.0 / np.cos((b - a) / 2.0)], axis=-1)
    plus = (hi <= (len(grid.nodes) - 1) // 2)[..., None]
    weights = plane_weights(radius * np.cos(angles), radius * np.sin(angles), plus)
    # vertex v of cell c's party p is row 3·(c·n + p) + v of the flat weight tables
    rows = (3 * (n * np.arange(len(lo))[:, None, None] + np.arange(n))
            + np.indices((3,) * n).reshape(n, -1).T)
    screen = functools.partial(certificate_eigenvalues, floor=floor)
    values = _map_rows(rows.reshape(-1, n), screen, (s,),
                       *(w.reshape(-1, 3) for w in weights), grid.functional)
    return np.isposinf(values).reshape(len(lo), 3**n).all(axis=1)


def evaluate_grid(s: float, grid: Grid, floor: float = -math.inf) -> np.ndarray:
    """Certificate minimum eigenvalue at every point of an :func:`open_grid` grid,
    in grid order; with a finite ``floor``, +∞ where it is proven above that,
    and the bits of the pass without one elsewhere.

    Level 0 is the boxes between the seed rows. A cell of more than CELL_ROWS
    orbit rows clears by :func:`_cells_clear` or splits each party's interval
    in two; smaller cells' rows go to the LDLᵀ screen in one batch.
    """
    if floor == -math.inf:
        return grid.values(grid.indices, certificate_eigenvalues, s)
    intervals = len(grid.nodes) - 1
    parts, parties = intervals // _seed_step(intervals), grid.indices.shape[1]
    lo, width, cell = np.zeros((1, parties), int), np.full((1, parties), intervals), 0
    rows, at, screened = grid.indices, np.arange(len(grid.indices)), []
    while len(rows):  # the root box splits into level 0's cells, later cells in halves
        kid = cell * parts**parties
        for p in range(parties):
            digit = (rows[:, p] - lo[cell, p]) * parts // width[cell, p]
            kid = kid + np.minimum(digit, parts - 1) * parts ** (parties - 1 - p)
        counts = np.bincount(kid)
        big = np.flatnonzero(counts > CELL_ROWS)
        parent, *digits = np.unravel_index(big, (len(lo),) + (parts,) * parties)
        kid_lo, kid_hi = (lo[parent] + width[parent] * (np.stack(digits, axis=1) + d) // parts
                          for d in (0, 1))
        failing = ~_cells_clear(s, grid, kid_lo, kid_hi, floor) if len(big) else np.zeros(0, bool)
        screened.append(at[counts[kid] <= CELL_ROWS])
        cell = np.full(len(counts), -1)
        cell[big[failing]] = np.arange(np.count_nonzero(failing))
        cell = cell[kid]
        kept = cell >= 0
        rows, at, cell = rows[kept], at[kept], cell[kept]
        lo, width, parts = kid_lo[failing], (kid_hi - kid_lo)[failing], 2
    values = np.full(len(grid.indices), math.inf)
    points = np.sort(np.concatenate(screened))
    values[points] = grid.values(grid.indices[points],
                                 functools.partial(certificate_eigenvalues, floor=floor), s)
    return values


@dataclass(frozen=True)
class BoundSearchResult:
    bound: SelfTestBound
    points: int  # grid points evaluated, one per orbit
    group_order: int  # of the symmetry group whose orbits they represent
    worst_point: tuple[float, ...]  # one Jordan angle per party
    min_eig: float


def _feasible(s: float) -> float:
    """s, or BoundSearchError when it exceeds 1 (∞ marks a kernel leak)."""
    if not s <= 1.0:
        raise BoundSearchError(
            "certificate infeasible at s=1; channel family does not match the functional"
        )
    return s


def bound_search(
    functional: BellFunctional,
    grid_step: float = DEFAULT_GRID_STEP,
    slack: float = DEFAULT_SLACK,
) -> BoundSearchResult:
    """Smallest slope s passing the grid certificate, the largest threshold
    (:func:`slope_thresholds`) on the grid, found with one certificate pass.

    The seed s₀ is the largest threshold on the rows whose node indices are
    all multiples of :func:`_seed_step`. An :func:`evaluate_grid` pass at s₀
    flags the points with minimum eigenvalue below LAZY_MARGIN, its ``floor``;
    the cells and points it clears are soundly above it (module docstring).
    Every other point's threshold is below s₀, and its minimum at s ≥ s₀ at
    least the margin. So s is the largest of s₀ and the flagged thresholds,
    and the minimum, which must stay above −``slack``, and the worst point
    (the first in grid order among ties) come from the flagged points at s;
    μ is 1 − s·β_Q. Raises :class:`BoundSearchError` when s₀ or s exceeds 1,
    which signals a wrong channel family or functional, when s fails the check
    or nothing is flagged, and ValueError for a ``slack`` that is negative or
    not finite.
    """
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack!r}")
    grid = open_grid(functional, grid_step)
    nested = grid.indices[(grid.indices % _seed_step(len(grid.nodes) - 1) == 0).all(axis=1)]
    s = _feasible(float(grid.values(nested, slope_thresholds).max()))
    flagged = np.flatnonzero(evaluate_grid(s, grid, floor=LAZY_MARGIN) < LAZY_MARGIN)
    if not len(flagged):
        raise BoundSearchError(f"no grid point is tight at the seed slope {s!r}")
    rows = grid.indices[flagged]
    s = _feasible(max(s, float(grid.values(rows, slope_thresholds).max())))
    values = grid.values(rows, certificate_eigenvalues, s)
    worst_row = flagged[np.argmin(values)]  # the first in grid order among ties
    min_eig = float(values.min())
    if min_eig < -slack:
        raise BoundSearchError(
            f"threshold slope {s!r} fails the grid certificate "
            f"(minimum eigenvalue {min_eig!r} below -{slack!r})"
        )
    return BoundSearchResult(
        bound=SelfTestBound.from_slope(s, functional), points=len(grid.indices),
        group_order=symmetry_group(functional).order,
        worst_point=grid.point(grid.indices[worst_row]), min_eig=min_eig,
    )
