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
the margin. Every pass, and ``--refine``'s sub-grids, is a map over tasks:
each task carries its node angles and node-index rows, and every chunk
returns its values in row order. A map of more than SEARCH_CHUNK_ROWS points
runs on a pool, forked at the first such map, whose workers hold only the
functional; a smaller map runs in the parent, which would otherwise spend
more time forking than evaluating. The parent takes every reduction (the
largest threshold, the first minimum, the seeds to refine), with ties in grid
order, so results do not depend on the worker count.

The grid holds one point per orbit of the functional's symmetry group
(``symmetry_group``, ``_orbit_rows``). An element permutes the parties and
reflects some of them, α ↦ π/2 − α with the branch flipped, which swaps the
weights of σ₊ and σ₋. It counts only when a unitary W maps every K and B
table entry onto the entry the element moves it to: then K and B at a point's
image are W's conjugates of K and B at the point, for every angle tuple at
once. mermin's group has 192 elements, baccari's 48 and zhao's 16; at π/60
the grid holds 6,936, 25,296 and 67,456 points of the 46,376 sorted tuples
and two 923,521-point products that it held before.

Both operators are multilinear in one 3-vector per party over that party's
basis (𝟙, σ₊, σ₋), with σ± = (O₀ ± O₁)/√2 from its ideal settings. A Jordan
observable is cos α·σ₊ ± sin α·σ₋, so B weighs the basis by (1, cos α, sin α);
an extraction channel is p·ρ + q·ΓρΓ with Γ = σ₊ or σ₋ by branch, so K weighs
it by (p, q·[branch = +1], q·[branch = −1]). Each operator is therefore the
81-entry outer product of the four vectors times a fixed table of 81
operators (``certificate_operators``): one real matrix product per batch. The
branch is +1 up to π/4 and −1 above (``_branches``); at π/4, q = 0 on either
branch, so a grid node is one angle.

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
results carry the worst grid point and its minimum eigenvalue, optionally
lowered by a step/4 search around the 100 lowest grid points, so that status
stays explicit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from .bell import BellFunctional, get_functional
from .quantum import I2, ghz_state, is_dichotomic, kron_all

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
#: a map of more than SEARCH_CHUNK_ROWS points, the bound on a threshold
#: chunk's memory, splits into at least SEARCH_CHUNKS chunks, so that a few
#: thousand points still spread over the workers; chunks never depend on the
#: worker count
SEARCH_CHUNKS = 8
SEARCH_CHUNK_ROWS = 2048
#: a table entry off P's blocks, or an imaginary part, this small is rounding
BLOCK_TOL = 1e-12
#: a symmetry candidate passes the screen when a generic operator keeps its
#: spectrum to SCREEN_TOL relative to the largest eigenvalue; it is proven
#: when a unitary maps every table entry onto its image to PROOF_TOL
SCREEN_TOL = 1e-9
PROOF_TOL = 1e-12
#: relative to the largest, an eigenvalue of the conjugator system's normal
#: matrix, or a singular value of its solution, this small is zero
NULL_TOL = 1e-9
#: a table row's basis index on a reflected party: 𝟙 stays, σ₊ and σ₋ swap
_REFLECTED = np.array([0, 2, 1])

#: the paper's table (slope, offset) pairs per operator. baccari and zhao pass
#: the π/12 grid certificate, but baccari's fails off that grid: at
#: (30.91°, 45°, 45°, 6.13°) its certificate's minimum eigenvalue is -1.85e-6.
#: mermin's 0.1875 provably cannot pass the π/12 grid certificate: at the
#: Jordan point (0, π/4, π/4, π/4) a biseparable state reaches violation 4√2
#: with extractability at most 1/2, which forces s ≥ (2+√2)/16 ≈ 0.2134
#: (the grid search here certifies 7/32)
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


def channel_weight(alpha: float | np.ndarray) -> float | np.ndarray:
    """Mixing weight g(α) = (1+√2)(sin α + cos α − 1); equals 1 at π/4 (arrays too)."""
    return (1.0 + SQRT2) * (np.sin(alpha) + np.cos(alpha) - 1.0)


#: per-party coefficients of (𝟙, σ₊, σ₋) in a Bell term's factor, scaled by
#: (1, cos α, sin α): 𝟙 when the party is not involved, cos α·σ₊ ± sin α·σ₋
_SETTING_FACTORS = {None: (1.0, 0.0, 0.0), 0: (0.0, 1.0, 1.0), 1: (0.0, 1.0, -1.0)}


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
    xz = np.array([[0.0, -1.0], [1.0, 0.0]])
    u = kron_all(frames) @ np.linalg.eigh(kron_all([xz] * 4))[1]
    basis = np.array([(I2, *pair) for pair in sigmas])
    select = np.array([[_SETTING_FACTORS[s] for s in t.settings] for t in functional.terms])
    select[:, 0] *= np.array([t.coefficient for t in functional.terms])[:, None]
    b_table = _kron_table(select[..., None, None] * basis)
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


def certificate_operators(
    angles: np.ndarray,
    branches: np.ndarray,
    functional: BellFunctional,
) -> tuple[np.ndarray, np.ndarray]:
    """(K(ᾱ), B(ᾱ)) for a batch of angle tuples as U-basis blocks, each (n·blocks, d, d).

    ``angles`` and ``branches`` have shape (n, parties); both operators are
    contractions of per-party weights with fixed tables (module docstring).
    """
    _, k_table, b_table = _certificate_tables(functional)
    angles = np.asarray(angles, dtype=float)
    plus = np.asarray(branches) == 1
    g = channel_weight(angles)
    p_w, q_w = 0.5 * (1.0 + g), 0.5 * (1.0 - g)
    k_vectors = np.stack([p_w, np.where(plus, q_w, 0.0), np.where(plus, 0.0, q_w)], axis=-1)
    b_vectors = np.stack([np.ones_like(angles), np.cos(angles), np.sin(angles)], axis=-1)
    return _contract(k_vectors, k_table), _contract(b_vectors, b_table)


def certificate_eigenvalues(
    s: float,
    angles: np.ndarray,
    branches: np.ndarray,
    functional: BellFunctional,
) -> np.ndarray:
    """Minimum eigenvalue of K(ᾱ) − s·B(ᾱ) − μ·𝟙 for a batch of angle tuples.

    ``angles`` and ``branches`` have shape (n, parties); μ is slaved to s via
    μ = 1 − s·β_Q.
    """
    k_op, bell_op = certificate_operators(angles, branches, functional)
    mu = 1.0 - s * functional.beta_q
    cert = k_op - s * bell_op
    idx = np.arange(cert.shape[-1])
    cert[:, idx, idx] -= mu
    return np.linalg.eigvalsh(cert)[:, 0].reshape(len(angles), -1).min(axis=1)


def slope_thresholds(
    angles: np.ndarray,
    branches: np.ndarray,
    functional: BellFunctional,
) -> np.ndarray:
    """Smallest slope passing the certificate at each angle tuple of a batch.

    The certificate is (K − 𝟙) + s·C with C = β_Q·𝟙 − B ⪰ 0, so it is
    positive semidefinite exactly when s ≥ λ_max(C^{-1/2}(𝟙 − K)C^{-1/2}) on
    the range of C and 𝟙 − K vanishes on the kernel of C; where it does not
    vanish no slope passes and the threshold is ∞.
    """
    k_op, bell_op = certificate_operators(angles, branches, functional)
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
    return thresholds.reshape(len(angles), -1).max(axis=1)


@dataclass(frozen=True)
class SymmetryGroup:
    """Party permutations and reflections that leave every grid point's
    threshold and certificate spectrum unchanged (``symmetry_group``).

    Element e moves party p to party perms[e, p], reflected where flips[e, p].
    Reflecting a party maps its angle α to π/2 − α, node i to node n − 1 − i of
    ``angle_nodes``, and flips its branch; the π/4 node stays put. Every
    element's permutation keeps each of ``classes``, and every permutation
    within the classes is some element's.
    """

    classes: tuple[tuple[int, ...], ...]  # each sorted; together every party once
    perms: np.ndarray  # (order, parties), the identity first
    flips: np.ndarray  # (order, parties) bool

    @property
    def order(self) -> int:
        return len(self.perms)


def _generic(n: int) -> np.ndarray:
    """n fixed numbers in (−1/2, 1/2) with no rational relation among them up to
    rounding (a golden-ratio Weyl sequence), in place of random draws: numpy's
    random module costs about 9 MB of RSS and 20 ms to import."""
    return np.arange(1, n + 1) * ((math.sqrt(5.0) - 1.0) / 2.0) % 1.0 - 0.5


def _binary(values, width: int) -> np.ndarray:
    """The ``width`` bits of each value, most significant first: (len(values), width)."""
    return (np.asarray(values)[:, None] >> np.arange(width - 1, -1, -1)) & 1


def _from_binary(bits: np.ndarray) -> np.ndarray:
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _table_image(perm: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Where each table row goes when party p moves to perm[p], reflected where
    flips[p]: σ₊ and σ₋ swap on a reflected party."""
    digits = np.indices((3,) * len(perm)).reshape(len(perm), -1).T  # the rows' basis indices
    moved = np.empty_like(digits)
    moved[:, perm] = np.where(flips, _REFLECTED[digits], digits)
    return moved @ 3 ** np.arange(len(perm) - 1, -1, -1)


def _dense(table: np.ndarray) -> np.ndarray:
    """A (rows, blocks, d, d) table as (rows, blocks·d, blocks·d) block diagonals."""
    rows, blocks, d, _ = table.shape
    dense = np.zeros((rows, blocks * d, blocks * d), table.dtype)
    for b in range(blocks):
        dense[:, b * d:(b + 1) * d, b * d:(b + 1) * d] = table[:, b]
    return dense


def _solve_conjugator(tables: np.ndarray, image: np.ndarray) -> np.ndarray | None:
    """A unitary W with W·T_i = T_image[i]·W for every entry of a (rows, blocks,
    d, d) table, as one (blocks·d)² matrix, or None.

    W's block (a, b) solves the linear system W_ab·T_i,b = T_image[i],a·W_ab,
    whose solutions are the kernel of its normal matrix Σ_i A_i†A_i with
    A_i = 𝟙 ⊗ T_i,bᵀ − T_image[i],a ⊗ 𝟙 acting on W_ab's rows. W is the polar
    factor of a generic element of all the blocks' solution spaces.
    """
    rows, blocks, d, _ = tables.shape
    squares = (tables @ tables).sum(axis=0)  # Σ T_i² per block, as for T_image[i]
    diagonal = np.arange(d)
    w = np.zeros((blocks, d, blocks, d), tables.dtype)
    for a, b in itertools.product(range(blocks), repeat=2):
        cross = tables[image, a].reshape(rows, -1).T @ tables[:, b].conj().reshape(rows, -1)
        normal = -2.0 * cross.reshape(d, d, d, d).transpose(0, 2, 1, 3)
        normal[diagonal, :, diagonal, :] += squares[b].conj()  # 𝟙 ⊗ Σ T_i,b*²
        normal[:, diagonal, :, diagonal] += squares[a]  # Σ T_i,a² ⊗ 𝟙
        lam, vec = np.linalg.eigh(normal.reshape(d * d, d * d))
        kernel = vec[:, lam <= NULL_TOL * lam[-1]]
        w[a, :, b, :] = (kernel @ _generic(kernel.shape[1])).reshape(d, d)
    left, sv, right = np.linalg.svd(w.reshape(blocks * d, blocks * d))
    return left @ right if sv[-1] > NULL_TOL * sv[0] else None


def _conjugates(w: np.ndarray | None, tables: np.ndarray, image: np.ndarray) -> bool:
    """True when W·T_i·W† = T_image[i] for every table entry, to PROOF_TOL."""
    return w is not None and np.abs(w @ tables @ w.conj().T - tables[image]).max() <= PROOF_TOL


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
    only when a unitary W satisfies W·T_i·W† = T_image[i] on all 81 K and 81 B
    table entries, to PROOF_TOL; K and B at a point's image are then W's
    conjugates of K and B at the point, with the same threshold and spectrum.
    All 2ⁿ·n! candidates are screened on generic per-party weights, and only
    those that the elements proven so far do not generate are proven, with W
    from ``_solve_conjugator``. Parties that some element's
    transposition swaps form a class; elements whose permutation leaves a
    class are dropped, so that sorting within classes picks a point's orbit.
    """
    _, k_table, b_table = _certificate_tables(functional)
    parties = functional.parties
    perms = np.array(list(itertools.permutations(range(parties))))
    flips = _binary(np.arange(2**parties), parties).astype(bool)
    perms, flips = np.repeat(perms, len(flips), axis=0), np.tile(flips, (len(perms), 1))
    # permutations first, then by the number of reflected parties: the first
    # candidates proven generate most of the rest, which need no proof
    order = np.argsort(flips.sum(axis=1), kind="stable")
    perms, flips = perms[order], flips[order]
    vectors = _generic(2 * parties * 3).reshape(2, parties, 3)  # K's and B's weights
    moved = np.where(flips[:, None, :, None], vectors[..., _REFLECTED], vectors)
    moved = np.take_along_axis(moved, np.argsort(perms)[:, None, :, None], axis=2)
    ops = _contract(moved[:, 0], k_table) + math.pi * _contract(moved[:, 1], b_table)
    spectra = np.sort(np.linalg.eigvalsh(ops).reshape(len(perms), -1), axis=1)
    screened = np.abs(spectra - spectra[0]).max(axis=1) <= SCREEN_TOL * np.abs(spectra).max()
    tables = np.concatenate([k_table, b_table])
    dense = _dense(tables)
    generators, group = [], [(tuple(range(parties)), (False,) * parties)]
    for perm, flip in zip(perms[screened], flips[screened]):
        element = (tuple(perm.tolist()), tuple(flip.tolist()))
        if element in group:
            continue
        image = _table_image(perm, flip)
        image = np.concatenate([image, image + len(k_table)])
        if _conjugates(_solve_conjugator(tables, image), dense, image):
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


def _branches(angles: np.ndarray) -> np.ndarray:
    """Each angle's channel branch: +1 (Γ = σ₊) up to and including π/4, −1 above."""
    return np.where(angles <= QUARTER_PI, 1, -1)


def _orbit_rows(n_nodes: int, group: SymmetryGroup) -> np.ndarray:
    """One node-index row per orbit of ``group`` on the product grid, in
    lexicographic order, enumerated without the product.

    A row is a fold f_p = min(i_p, n − 1 − i_p), sorted within each class, and
    a side: the set of parties whose node lies above the middle (π/4) one. The
    elements that fix f permute and reflect the sides, so an orbit's rows with
    this f are one side orbit; the row kept has its side mask (party 1 the most
    significant bit) the smallest in that orbit. Which elements fix f depends
    only on which folds are the middle and which are equal within a class.
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
    perms, flips = group.perms, group.flips
    sides = _binary(np.arange(2**parties), parties).astype(bool)
    rows = []
    for members in np.split(order, starts[1:]):
        fold = folds[members[0]]
        middles = fold == middle
        fixing = (fold[perms] == fold).all(axis=1)
        side = sides[~(sides & middles).any(axis=1)]
        moved = side[:, None, :] ^ flips[None, fixing]
        images = np.take_along_axis(moved, np.argsort(perms[fixing], axis=1)[None], axis=2)
        keep = side[_from_binary(side) == _from_binary(images & ~middles).min(axis=1)]
        f = folds[members][:, None, :]
        rows.append(np.where(keep, n_nodes - 1 - f, f).reshape(-1, parties))
    rows = np.concatenate(rows)
    return rows[np.lexsort(rows.T[::-1])]


_functional: BellFunctional | None = None


def _init_worker(functional: BellFunctional) -> None:
    """Install the functional once per process, so its certificate tables stay cached."""
    global _functional
    _functional = functional


def _task_points(angles: np.ndarray, rows: np.ndarray):
    """A task's points: (angles, branches) at its node-index ``rows``, each (n, parties).

    ``angles`` is a (parties, k) node table; row r's party p sits at node
    ``rows[r, p]`` of table row p. Branches follow from the angles (``_branches``).
    """
    points = angles[np.arange(rows.shape[1]), rows]
    return points, _branches(points)


def _chunk(task) -> np.ndarray:
    """``fn`` (``slope_thresholds`` or ``certificate_eigenvalues``) at the points
    of one (fn, *args, angles, rows) task, in row order."""
    fn, *args, angles, rows = task
    return fn(*args, *_task_points(angles, rows), _functional)


@dataclass(frozen=True)
class Grid:
    """A functional's Jordan-angle grid, with the map that evaluates tasks on it.

    ``indices`` holds one node-index row per orbit of the functional's
    symmetry group (:func:`_orbit_rows`). A task carries its own points
    (:func:`_task_points`), so ``map``'s workers hold only the functional.
    """

    node_angles: np.ndarray
    indices: np.ndarray  # (points, parties) node-index rows, in grid order
    pool: Callable[[], ProcessPoolExecutor] | None  # the grid's pool, forked at the first call

    def values(self, rows: np.ndarray, fn: Callable, *head) -> np.ndarray:
        """``fn(*head, points, branches, functional)`` at node-index ``rows``, in
        row order: ``map`` over (fn, *head, angles, chunk) tasks (:func:`_chunk`),
        with ``angles`` the (parties, k) table of every party's nodes.

        Up to SEARCH_CHUNK_ROWS rows are one chunk, more are at least
        SEARCH_CHUNKS, so that they spread over the workers. A point's value is
        the same in every chunk of two or more rows.
        """
        size, parties = rows.shape
        step = min(SEARCH_CHUNK_ROWS, -(-size // SEARCH_CHUNKS))
        step = size if size <= SEARCH_CHUNK_ROWS else step
        angles = np.tile(self.node_angles, (parties, 1))
        tasks = [(fn, *head, angles, rows[i:i + step]) for i in range(0, size, step)]
        return np.concatenate(list(self.map(_chunk, tasks)))

    def map(self, fn: Callable, tasks: list):
        """``fn`` over ``tasks``, in order: on the pool when there is one and the
        tasks hold more than SEARCH_CHUNK_ROWS points, in this process otherwise.

        Forking two workers takes about 30 ms, the time of about 1,000 points,
        so a map that one chunk could hold runs faster without them.
        """
        if self.pool is None or sum(len(task[-1]) for task in tasks) <= SEARCH_CHUNK_ROWS:
            return map(fn, tasks)
        return self.pool().map(fn, tasks)


@contextmanager
def open_grid(functional: BellFunctional, grid_step: float, threads: int):
    """The grid of ``functional`` at ``grid_step``, with ``threads`` workers for its
    tasks, capped at the CPUs this process may run on; each worker holds only
    the functional.

    The grid holds one point per orbit of :func:`symmetry_group` on the
    product of :func:`angle_nodes`, one angle per node. Every point of the
    product has the threshold and certificate spectrum of its orbit's point,
    so every extremum over the grid is the product's.
    """
    node_angles = angle_nodes(grid_step)
    indices = _orbit_rows(len(node_angles), symmetry_group(functional))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)  # the pool forks all its workers at its first map
    _init_worker(functional)  # for the maps that run in this process
    # Processes, not threads: batched eigh releases the GIL, and two threads ran
    # a pass 1.65-1.95x faster on 2 CPUs, but they hold both chunks in one
    # process. bound's peak RSS rose from 47.4 to 74.0 MB (zhao pi/12) and from
    # 39.8 to 57.2 MB (mermin pi/24); 32 chunks restored it at 1.4-1.9x the time.
    # With one certificate pass per search and BLAS pinned to one thread, two
    # workers ran bound 1.2-1.8x (mermin), 1.3-2.1x (baccari) and 1.7-2.2x (zhao)
    # as fast as one at pi/120, and 0.8-1.4x at pi/60 (4 runs each, 2 CPUs).
    # Unpinned, each worker's BLAS threads contend for the same CPUs.
    with ExitStack() as stack:
        pool = functools.cache(lambda: stack.enter_context(ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(functional,))))
        yield Grid(node_angles, indices, pool if workers > 1 else None)


def evaluate_grid(s: float, grid: Grid) -> np.ndarray:
    """Certificate minimum eigenvalue at every point of an :func:`open_grid` grid,
    in grid order.

    Chunks are joined in grid order, so the values, and every reduction the
    caller takes over them, are identical for any worker count.
    """
    return grid.values(grid.indices, certificate_eigenvalues, s)


@dataclass(frozen=True)
class BoundSearchResult:
    bound: SelfTestBound
    points: int  # grid points evaluated, one per orbit
    group_order: int  # of the symmetry group whose orbits they represent
    worst_point: tuple[float, ...]  # one Jordan angle per party
    min_eig: float


def _refine_tasks(s: float, grid: Grid, seeds: np.ndarray, grid_step: float) -> list:
    """One (certificate_eigenvalues, s, angles, rows) task per seed node-index
    row: the 5⁴ sub-grid at step/4 around it, clipped to [0, π/2], as a
    (parties, 5) angle table."""
    offsets = np.arange(-2, 3) * (grid_step / 4.0)
    angles = np.clip(grid.node_angles[seeds][..., None] + offsets, 0.0, HALF_PI)
    rows = np.indices((len(offsets),) * seeds.shape[1]).reshape(seeds.shape[1], -1).T
    return [(certificate_eigenvalues, s, table, rows) for table in angles]


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
    threads: int = 1,
    refine: bool = False,
) -> BoundSearchResult:
    """Smallest slope s passing the grid certificate, the largest threshold
    (:func:`slope_thresholds`) on the grid, found with one certificate pass.

    The seed s₀ is the largest threshold on the rows whose node indices are
    all multiples of j: the nested π/12 grid (j = intervals/6) when 6 divides
    the interval count and it exceeds 6, else the corners and π/4 (j =
    intervals/2). An :func:`evaluate_grid` pass at s₀ flags the points with
    minimum eigenvalue below LAZY_MARGIN; every other point's threshold is
    below s₀, and its minimum at s ≥ s₀ at least the margin (module
    docstring). So s is the largest of s₀ and the flagged thresholds, and the
    minimum, which must stay above −``slack``, and the worst point (the first
    in grid order among ties) come from the flagged points at s; μ is
    1 − s·β_Q. With ``refine``, step/4 sub-grids around the 100 lowest grid
    points at s may lower the reported minimum and move the worst point.
    Every map runs on the grid's workers. Raises :class:`BoundSearchError`
    when s₀ or s exceeds 1, which signals a wrong channel family or
    functional, when s fails the check or nothing is flagged, and ValueError
    for a ``slack`` that is negative or not finite or fewer than one thread.
    """
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    with open_grid(functional, grid_step, threads) as grid:
        intervals = len(grid.node_angles) - 1
        j = intervals // 6 if intervals % 6 == 0 and intervals > 6 else intervals // 2
        nested = grid.indices[(grid.indices % j == 0).all(axis=1)]
        s = _feasible(float(grid.values(nested, slope_thresholds).max()))
        flagged = np.flatnonzero(evaluate_grid(s, grid) < LAZY_MARGIN)
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
        worst = tuple(float(a) for a in grid.node_angles[grid.indices[worst_row]])
        if refine:
            seeds = grid.indices[np.argsort(evaluate_grid(s, grid), kind="stable")[:100]]
            tasks = _refine_tasks(s, grid, seeds, grid_step)
            local = np.stack(list(grid.map(_chunk, tasks)))
            seed, row = np.unravel_index(np.argmin(local), local.shape)
            if local[seed, row] < min_eig:
                min_eig = float(local[seed, row])
                worst = tuple(float(a) for a in _task_points(*tasks[seed][2:])[0][row])
    return BoundSearchResult(
        bound=SelfTestBound.from_slope(s, functional), points=len(grid.indices),
        group_order=symmetry_group(functional).order, worst_point=worst, min_eig=min_eig,
    )
