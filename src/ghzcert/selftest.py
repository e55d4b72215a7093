"""Robust self-testing bounds: extractability ≥ s·β + μ.

The slope s is certified numerically: both the Bell operator and a family of
single-qubit extraction channels are parameterized by one Jordan angle per
party, and s is feasible when the operator

    K(ᾱ) − s·B(ᾱ) − μ·𝟙 = (K − 𝟙) + s·C,   μ = 1 − s·β_Q,   C = β_Q·𝟙 − B ⪰ 0,

has nonnegative minimum eigenvalue at every angle tuple on a grid. Because C
is positive semidefinite, each grid point has a closed-form smallest feasible
slope, the generalized eigenvalue λ_max(C^{-1/2}(𝟙 − K)C^{-1/2})
(``slope_thresholds``). ``bound_search`` takes the maximum threshold over the
grid in one pass and checks it with one certificate pass (``evaluate_grid``).
Both passes are chunked, order-independent parallel maps with exact max/min
reductions, so results do not depend on the worker count.

Both operators are multilinear in one 3-vector per party over that party's
basis (𝟙, σ₊, σ₋), with σ± = (O₀ ± O₁)/√2 from its ideal settings. A Jordan
observable is cos α·σ₊ ± sin α·σ₋, so B weighs the basis by (1, cos α, sin α);
an extraction channel is p·ρ + q·ΓρΓ with Γ = σ₊ or σ₋ by branch, so K weighs
it by (p, q·[branch = +1], q·[branch = −1]). Each operator is therefore the
81-entry outer product of the four vectors times a fixed table of 81 16×16
operators (``certificate_operators``): one real matrix product per batch.

Grid certification is necessary-only evidence for the continuum inequality;
results carry the grid step, the worst grid point and an optional locally
refined minimum so that status stays explicit.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .bell import BellFunctional, get_functional
from .quantum import I2, ghz_state, is_dichotomic

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
#: a grid pass splits the grid into at least SEARCH_CHUNKS chunks, so that small
#: grids still spread over the workers, of at most SEARCH_CHUNK_ROWS points,
#: which bounds the memory of a threshold chunk; chunks never depend on the
#: worker count
SEARCH_CHUNKS = 8
SEARCH_CHUNK_ROWS = 2048

#: the paper's table (slope, offset) pairs per operator. baccari and zhao pass
#: the π/12 grid certificate; mermin's 0.1875 provably cannot pass it: at the
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
class JordanPoint:
    """One Jordan angle per party, each in [0, π/2].

    ``branches`` selects the dephasing direction of each party's extraction
    channel (+1 → σ₊, −1 → σ₋); by default it follows the angle (+1 up to and
    including π/4). The distinction only matters exactly at π/4, where the
    channel family is piecewise-defined.
    """

    angles: tuple[float, ...]
    branches: tuple[int, ...] | None = None

    def __post_init__(self):
        for a in self.angles:
            if not 0.0 <= a <= HALF_PI:
                raise ValueError(f"Jordan angle {a!r} outside [0, pi/2]")
        if self.branches is not None:
            if len(self.branches) != len(self.angles):
                raise ValueError("one branch per angle required")
            if any(b not in (-1, 1) for b in self.branches):
                raise ValueError("branches must be +1 or -1")

    def resolved_branches(self) -> tuple[int, ...]:
        if self.branches is not None:
            return self.branches
        return tuple(1 if a <= QUARTER_PI else -1 for a in self.angles)


@dataclass(frozen=True)
class SelfTestBound:
    """Slope/offset pair of the extractability bound plus the game constant.

    ``c`` translates the bound to the nonlocal-game picture:
    ε₂ = c·η with c = 1/(2·c̃·β_alg) and c̃ = s.
    """

    s: float
    mu: float
    beta_q: float
    beta_c: float
    beta_alg: float

    def __post_init__(self):
        if abs(self.s * self.beta_q + self.mu - 1.0) > SATURATION_TOL:
            raise ValueError("bound must reach 1 at maximal violation (mu = 1 - s*beta_q)")
        if self.s <= 0:
            raise ValueError("slope must be positive")

    @property
    def c_tilde(self) -> float:
        return self.s

    @property
    def c(self) -> float:
        return 1.0 / (2.0 * self.c_tilde * self.beta_alg)

    @classmethod
    def from_slope(cls, s: float, functional: BellFunctional) -> "SelfTestBound":
        return cls(
            s=s,
            mu=1.0 - s * functional.beta_q,
            beta_q=functional.beta_q,
            beta_c=functional.beta_c,
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
    return SelfTestBound(s=s, mu=mu, beta_q=f.beta_q, beta_c=f.beta_c, beta_alg=f.beta_alg)


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


def jordan_observable(alpha: float, setting: int, basis) -> np.ndarray:
    """cos(α)·σ₊ + (−1)^setting·sin(α)·σ₋; dichotomic for every α."""
    if not 0.0 <= alpha <= HALF_PI:
        raise ValueError(f"Jordan angle {alpha!r} outside [0, pi/2]")
    if setting not in (0, 1):
        raise ValueError(f"setting must be 0 or 1, got {setting!r}")
    plus, minus = basis
    sign = 1.0 if setting == 0 else -1.0
    return math.cos(alpha) * plus + sign * math.sin(alpha) * minus


def channel_weight(alpha: float | np.ndarray) -> float | np.ndarray:
    """Mixing weight g(α) = (1+√2)(sin α + cos α − 1); equals 1 at π/4 (arrays too)."""
    return (1.0 + SQRT2) * (np.sin(alpha) + np.cos(alpha) - 1.0)


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


def _certificate_tables(functional: BellFunctional) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) tables over the per-party basis (𝟙, σ₊, σ₋), as real (81, 512) views.

    B's entry j is Σ_t c_t·⊗_p (term t's factor on basis element j_p); K's is
    E_j·|GHZ⟩⟨GHZ|·E_j with E_j = ⊗_p (𝟙, σ₊, σ₋)[j_p].
    """
    basis = np.array([(I2, *sigma_basis(pair)) for pair in functional.ideal_settings])
    select = np.array([[_SETTING_FACTORS[s] for s in t.settings] for t in functional.terms])
    select[:, 0] *= np.array([t.coefficient for t in functional.terms])[:, None]
    b_table = _kron_table(select[..., None, None] * basis)
    e_table = _kron_table(basis[None])
    k_table = e_table @ ghz_state(4) @ e_table
    return tuple(t.reshape(81, 256).view(float) for t in (k_table, b_table))


def _contract(vectors: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Σ_j Π_p vectors[:, p, j_p]·table[j]: (n, 4, 3) per-party weights → (n, 16, 16)."""
    n = len(vectors)
    weights = vectors[:, 0]
    for p in range(1, 4):
        weights = (weights[:, :, None] * vectors[:, p, None, :]).reshape(n, -1)
    return (weights @ table).view(complex).reshape(n, 16, 16)


def certificate_operators(
    angles: np.ndarray,
    branches: np.ndarray,
    functional: BellFunctional,
) -> tuple[np.ndarray, np.ndarray]:
    """(K(ᾱ), B(ᾱ)) for a batch of angle tuples, each of shape (n, 16, 16).

    ``angles`` and ``branches`` have shape (n, parties); both operators are
    contractions of per-party weights with fixed tables (module docstring).
    """
    if functional.parties != 4:
        raise ValueError("certificate evaluation supports 4 parties")
    angles = np.asarray(angles, dtype=float)
    plus = np.asarray(branches) == 1
    k_table, b_table = _certificate_tables(functional)
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
    idx = np.arange(16)
    cert[:, idx, idx] -= mu
    return np.linalg.eigvalsh(cert)[:, 0].real


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
    idx = np.arange(16)
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
    return thresholds


def certificate_min_eig(s: float, point: JordanPoint, functional: BellFunctional) -> float:
    """Certificate minimum eigenvalue at a single Jordan point."""
    angles = np.array([point.angles], dtype=float)
    branches = np.array([point.resolved_branches()], dtype=int)
    return float(certificate_eigenvalues(s, angles, branches, functional)[0])


def build_K(point: JordanPoint, functional: BellFunctional | None = None) -> np.ndarray:
    """Extraction channels applied factor-wise to the GHZ projector."""
    if functional is None:
        functional = get_functional("mermin")
    angles = np.array([point.angles], dtype=float)
    branches = np.array([point.resolved_branches()], dtype=int)
    k_op, _ = certificate_operators(angles, branches, functional)
    return k_op[0]


def is_party_symmetric(functional: BellFunctional) -> bool:
    """True when terms and ideal settings are invariant under party relabeling."""
    pairs = functional.ideal_settings
    for pair in pairs[1:]:
        if not (
            np.allclose(pair[0], pairs[0][0], atol=1e-12)
            and np.allclose(pair[1], pairs[0][1], atol=1e-12)
        ):
            return False
    canonical = sorted((t.coefficient, t.settings) for t in functional.terms)
    for perm in itertools.permutations(range(functional.parties)):
        permuted = sorted(
            (t.coefficient, tuple(t.settings[perm[p]] for p in range(functional.parties)))
            for t in functional.terms
        )
        if permuted != canonical:
            return False
    return True


def snap_grid_step(grid_step: float) -> tuple[float, int]:
    """Snap a requested step to the nearest exact divisor of π/2.

    Accepts steps quoted to a few decimals (π/60 ≈ 0.05236); the interval
    count must come out even so that π/4 lands on a grid node.
    """
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step!r}")
    intervals = round(HALF_PI / grid_step)
    if intervals < 2 or abs(intervals * grid_step - HALF_PI) > 1e-3:
        raise ValueError(f"grid step {grid_step!r} does not divide pi/2")
    if intervals % 2 != 0:
        raise ValueError(f"grid step {grid_step!r} does not place pi/4 on the grid")
    return HALF_PI / intervals, intervals


def angle_nodes(grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Branch-resolved grid nodes on [0, π/2] with π/4 present on both branches.

    Returns (angles, branches) arrays; requires the step to divide π/2 into an
    even number of intervals so that π/4 is a node.
    """
    _, intervals = snap_grid_step(grid_step)
    base = np.linspace(0.0, HALF_PI, intervals + 1)
    mid = intervals // 2
    angles = np.concatenate([base[: mid + 1], [base[mid]], base[mid + 1 :]])
    branches = np.concatenate(
        [np.ones(mid + 1, dtype=int), [-1], -np.ones(intervals - mid, dtype=int)]
    )
    return angles, branches


def _grid_indices(n_nodes: int, parties: int, symmetric: bool) -> np.ndarray:
    if symmetric:
        combos = itertools.combinations_with_replacement(range(n_nodes), parties)
    else:
        combos = itertools.product(range(n_nodes), repeat=parties)
    return np.fromiter(
        (i for combo in combos for i in combo), dtype=np.int32
    ).reshape(-1, parties)


_WORKER: dict = {}


def _init_worker(functional: BellFunctional, node_angles, node_branches, indices) -> None:
    _WORKER["functional"] = functional
    _WORKER["angles"] = node_angles
    _WORKER["branches"] = node_branches
    _WORKER["indices"] = indices


def _chunk_points(start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = _WORKER["indices"][start:stop]
    return idx, _WORKER["angles"][idx], _WORKER["branches"][idx]


def _eval_chunk(args) -> tuple:
    """Evaluate one chunk; returns its k smallest (value, node-index-tuple) pairs."""
    start, stop, s, keep = args
    idx, angles, branches = _chunk_points(start, stop)
    values = certificate_eigenvalues(s, angles, branches, _WORKER["functional"])
    keep = min(keep, len(values))
    order = np.argpartition(values, keep - 1)[:keep]
    pairs = sorted((float(values[i]), tuple(int(v) for v in idx[i])) for i in order)
    return pairs


def _threshold_chunk(args) -> float:
    """Largest slope threshold in one chunk."""
    start, stop = args
    _, angles, branches = _chunk_points(start, stop)
    return float(np.max(slope_thresholds(angles, branches, _WORKER["functional"])))


@dataclass(frozen=True)
class Grid:
    """A functional's Jordan-angle grid, installed in this process or in workers.

    ``map`` is an order-preserving map over chunk tasks: the builtin with one
    worker, a process pool's otherwise.
    """

    node_angles: np.ndarray
    node_branches: np.ndarray
    size: int
    map: Callable

    def map_chunks(self, fn: Callable, *extra) -> list:
        """``fn((start, stop, *extra))`` for consecutive chunks of grid points, in order.

        The chunk size depends on the grid size only (see ``SEARCH_CHUNKS``).
        """
        rows = min(SEARCH_CHUNK_ROWS, -(-self.size // SEARCH_CHUNKS))
        tasks = [
            (start, min(start + rows, self.size), *extra)
            for start in range(0, self.size, rows)
        ]
        return list(self.map(fn, tasks))


@contextmanager
def open_grid(functional: BellFunctional, grid_step: float, threads: int = 1):
    """The grid of ``functional`` at ``grid_step``, with ``threads`` workers for its
    passes, capped at the CPUs this process may run on.

    The grid is the product of branch-resolved nodes, reduced to sorted tuples
    when the functional is party-symmetric (which leaves every extremum over
    the grid unchanged).
    """
    node_angles, node_branches = angle_nodes(grid_step)
    symmetric = is_party_symmetric(functional)
    indices = _grid_indices(len(node_angles), functional.parties, symmetric)
    init_args = (functional, node_angles, node_branches, indices)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)  # the pool forks all its workers at the first pass
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=init_args
        ) as pool:
            yield Grid(node_angles, node_branches, len(indices), pool.map)
    else:
        _init_worker(*init_args)
        yield Grid(node_angles, node_branches, len(indices), map)


@dataclass(frozen=True)
class GridEvaluation:
    """Deterministic reduction of a grid pass: worst value and worst points."""

    min_eig: float
    worst_point: JordanPoint
    worst_nodes: tuple  # (value, node-index-tuple) pairs, ascending


def evaluate_grid(
    s: float,
    functional: BellFunctional,
    grid_step: float = DEFAULT_GRID_STEP,
    threads: int = 1,
    keep_worst: int = 1,
    grid: Grid | None = None,
) -> GridEvaluation:
    """Minimum certificate eigenvalue over the full Jordan-angle grid.

    Chunks are reduced by (value, point) pairs in fixed order, so the result
    is identical for any worker count. ``grid``, an :func:`open_grid` of the
    same functional and step, reuses its workers instead of starting new ones.
    """
    opened = open_grid(functional, grid_step, threads) if grid is None else nullcontext(grid)
    with opened as grid:
        chunk_results = grid.map_chunks(_eval_chunk, s, keep_worst)

    merged = sorted(pair for chunk in chunk_results for pair in chunk)[:keep_worst]
    min_eig, worst_idx = merged[0]
    worst = JordanPoint(
        angles=tuple(float(grid.node_angles[i]) for i in worst_idx),
        branches=tuple(int(grid.node_branches[i]) for i in worst_idx),
    )
    return GridEvaluation(min_eig=min_eig, worst_point=worst, worst_nodes=tuple(merged))


@dataclass(frozen=True)
class BoundSearchResult:
    bound: SelfTestBound
    grid_step: float
    worst_point: JordanPoint
    min_eig: float
    refined: bool


def _refine_minimum(
    s: float,
    functional: BellFunctional,
    seeds: tuple,
    node_angles: np.ndarray,
    node_branches: np.ndarray,
    grid_step: float,
) -> tuple[float, JordanPoint]:
    """Local (step/4) sub-grid search around the worst coarse points."""
    offsets = np.arange(-2, 3) * (grid_step / 4.0)
    best_val = math.inf
    best_point = None
    for _, node_idx in seeds:
        centers = node_angles[list(node_idx)]
        seed_branches = node_branches[list(node_idx)]
        axes = [np.clip(c + offsets, 0.0, HALF_PI) for c in centers]
        local = np.array(list(itertools.product(*axes)))
        branches = np.where(local <= QUARTER_PI, 1, -1)
        at_quarter = np.abs(local - QUARTER_PI) <= 1e-15
        branches = np.where(at_quarter, seed_branches[None, :], branches)
        values = certificate_eigenvalues(s, local, branches, functional)
        i = int(np.argmin(values))
        if values[i] < best_val:
            best_val = float(values[i])
            best_point = JordanPoint(
                angles=tuple(float(a) for a in local[i]),
                branches=tuple(int(b) for b in branches[i]),
            )
    return best_val, best_point


def bound_search(
    functional: BellFunctional,
    grid_step: float = DEFAULT_GRID_STEP,
    slack: float = DEFAULT_SLACK,
    threads: int = 1,
    refine: bool = False,
) -> BoundSearchResult:
    """Smallest slope s passing the grid certificate, found exactly in one pass.

    s is the maximum over the grid of the per-point thresholds
    (:func:`slope_thresholds`). One :func:`evaluate_grid` pass at s, on the
    same workers, verifies it: the certificate's minimum eigenvalue must stay
    above −``slack`` at every grid point; μ is always 1 − s·β_Q. Raises
    :class:`BoundSearchError` when no slope in [0, 1] passes, which signals a
    wrong channel family or functional, or when s fails the verification.
    """
    with open_grid(functional, grid_step, threads) as grid:
        s = max(grid.map_chunks(_threshold_chunk))
        if not s <= 1.0:
            raise BoundSearchError(
                "certificate infeasible at s=1; channel family does not match the functional"
            )
        final = evaluate_grid(
            s, functional, grid_step, threads, keep_worst=100 if refine else 1, grid=grid
        )
    if final.min_eig < -slack:
        raise BoundSearchError(
            f"threshold slope {s!r} fails the grid certificate "
            f"(minimum eigenvalue {final.min_eig!r} below -{slack!r})"
        )
    min_eig, worst = final.min_eig, final.worst_point
    if refine:
        node_angles, node_branches = angle_nodes(grid_step)
        refined_val, refined_point = _refine_minimum(
            s, functional, final.worst_nodes, node_angles, node_branches, grid_step
        )
        if refined_val < min_eig:
            min_eig, worst = refined_val, refined_point
    return BoundSearchResult(
        bound=SelfTestBound.from_slope(s, functional),
        grid_step=grid_step,
        worst_point=worst,
        min_eig=min_eig,
        refined=refine,
    )
