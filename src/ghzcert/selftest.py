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
Both passes, and ``--refine``'s sub-grids, are tasks on one pool: each task
carries its node angles and node-index rows, the workers hold only the
functional, and every chunk returns its values in grid order. The parent takes every reduction (the
largest threshold, the first minimum, the seeds to refine), with ties in grid
order, so results do not depend on the worker count.

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
from contextlib import contextmanager
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
#: a grid pass splits the grid into at least SEARCH_CHUNKS chunks, so that small
#: grids still spread over the workers, of at most SEARCH_CHUNK_ROWS points,
#: which bounds the memory of a threshold chunk; chunks never depend on the
#: worker count
SEARCH_CHUNKS = 8
SEARCH_CHUNK_ROWS = 2048
#: a table entry off P's blocks, or an imaginary part, this small is rounding
BLOCK_TOL = 1e-12

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


def is_party_symmetric(functional: BellFunctional) -> bool:
    """True when terms and ideal settings are invariant under party relabeling."""
    pairs = functional.ideal_settings
    if not all(np.allclose(pair, pairs[0], atol=1e-12) for pair in pairs[1:]):
        return False
    terms = [(t.coefficient, tuple(-1 if s is None else s for s in t.settings))
             for t in functional.terms]  # -1 for None: sorting compares settings
    canonical = sorted(terms)
    return all(
        sorted((c, tuple(settings[p] for p in perm)) for c, settings in terms) == canonical
        for perm in itertools.permutations(range(functional.parties))
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


def _grid_indices(n_nodes: int, parties: int, symmetric: bool) -> np.ndarray:
    if symmetric:
        combos = itertools.combinations_with_replacement(range(n_nodes), parties)
    else:
        combos = itertools.product(range(n_nodes), repeat=parties)
    return np.fromiter(
        (i for combo in combos for i in combo), dtype=np.int32
    ).reshape(-1, parties)


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


def _threshold_chunk(task) -> np.ndarray:
    """Slope thresholds at the points of one (angles, rows) task, in row order."""
    return slope_thresholds(*_task_points(*task), _functional)


def _eigenvalue_chunk(task) -> np.ndarray:
    """Certificate minimum eigenvalues at the points of one (s, angles, rows) task,
    in row order."""
    s, *points = task
    return certificate_eigenvalues(s, *_task_points(*points), _functional)


@dataclass(frozen=True)
class Grid:
    """A functional's Jordan-angle grid, with the map that evaluates tasks on it.

    A task carries its own points (:func:`_task_points`), so ``map``'s workers
    hold only the functional. ``map`` is an order-preserving map over tasks:
    the builtin with one worker, a process pool's otherwise.
    """

    node_angles: np.ndarray
    indices: np.ndarray  # (points, parties) node-index rows, in grid order
    map: Callable

    def tasks(self, *head) -> list:
        """``(*head, angles, rows)`` for consecutive chunks of grid rows, in order,
        with ``angles`` the (parties, k) table of every party's nodes.

        The chunk size depends on the grid size only (see ``SEARCH_CHUNKS``).
        """
        size, parties = self.indices.shape
        rows = min(SEARCH_CHUNK_ROWS, -(-size // SEARCH_CHUNKS))
        angles = np.tile(self.node_angles, (parties, 1))
        return [(*head, angles, self.indices[i:i + rows]) for i in range(0, size, rows)]


@contextmanager
def open_grid(functional: BellFunctional, grid_step: float, threads: int):
    """The grid of ``functional`` at ``grid_step``, with ``threads`` workers for its
    tasks, capped at the CPUs this process may run on; each worker holds only
    the functional.

    The grid is the product of :func:`angle_nodes`, one angle per node, reduced
    to sorted tuples when the functional is party-symmetric (which leaves every
    extremum over the grid unchanged).
    """
    node_angles = angle_nodes(grid_step)
    indices = _grid_indices(len(node_angles), functional.parties, is_party_symmetric(functional))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)  # the pool forks all its workers at the first pass
    # Processes, not threads: batched eigh releases the GIL, and two threads ran
    # a pass 1.65-1.95x faster on 2 CPUs, but they hold both chunks in one
    # process. bound's peak RSS rose from 47.4 to 74.0 MB (zhao pi/12) and from
    # 39.8 to 57.2 MB (mermin pi/24); 32 chunks restored it at 1.4-1.9x the time.
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(functional,)
        ) as pool:
            yield Grid(node_angles, indices, pool.map)
    else:
        _init_worker(functional)
        yield Grid(node_angles, indices, map)


def evaluate_grid(s: float, grid: Grid) -> np.ndarray:
    """Certificate minimum eigenvalue at every point of an :func:`open_grid` grid,
    in grid order.

    Chunks fill one preallocated array, so the values, and every reduction the
    caller takes over them, are identical for any worker count.
    """
    values = np.empty(len(grid.indices))
    start = 0
    for chunk in grid.map(_eigenvalue_chunk, grid.tasks(s)):
        values[start:start + len(chunk)] = chunk
        start += len(chunk)
    return values


@dataclass(frozen=True)
class BoundSearchResult:
    bound: SelfTestBound
    worst_point: tuple[float, ...]  # one Jordan angle per party
    min_eig: float


def _refine_tasks(s: float, grid: Grid, seeds: np.ndarray, grid_step: float) -> list:
    """One (s, angles, rows) task per seed node-index row: the 5⁴ sub-grid at
    step/4 around it, clipped to [0, π/2], as a (parties, 5) angle table."""
    offsets = np.arange(-2, 3) * (grid_step / 4.0)
    angles = np.clip(grid.node_angles[seeds][..., None] + offsets, 0.0, HALF_PI)
    rows = _grid_indices(len(offsets), seeds.shape[1], symmetric=False)
    return [(s, table, rows) for table in angles]


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
    above −``slack`` at every grid point; μ is always 1 − s·β_Q. With
    ``refine``, step/4 sub-grids around the 100 lowest grid points, on the
    same workers, may lower the reported minimum and move the worst point.
    Raises :class:`BoundSearchError` when no slope in [0, 1] passes, which
    signals a wrong channel family or functional, or when s fails the
    verification, and ValueError for a ``slack`` that is negative or not
    finite or fewer than one thread.
    """
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    with open_grid(functional, grid_step, threads) as grid:
        s = max(float(chunk.max()) for chunk in grid.map(_threshold_chunk, grid.tasks()))
        if not s <= 1.0:
            raise BoundSearchError(
                "certificate infeasible at s=1; channel family does not match the functional"
            )
        values = evaluate_grid(s, grid)
        worst_row = int(np.argmin(values))  # the first in grid order among ties
        min_eig = float(values[worst_row])
        if min_eig < -slack:
            raise BoundSearchError(
                f"threshold slope {s!r} fails the grid certificate "
                f"(minimum eigenvalue {min_eig!r} below -{slack!r})"
            )
        worst = tuple(float(a) for a in grid.node_angles[grid.indices[worst_row]])
        if refine:
            seeds = grid.indices[np.argsort(values, kind="stable")[:100]]
            tasks = _refine_tasks(s, grid, seeds, grid_step)
            local = np.stack(list(grid.map(_eigenvalue_chunk, tasks)))
            seed, row = np.unravel_index(np.argmin(local), local.shape)
            if local[seed, row] < min_eig:
                min_eig = float(local[seed, row])
                worst = tuple(float(a) for a in _task_points(*tasks[seed][1:])[0][row])
    return BoundSearchResult(
        bound=SelfTestBound.from_slope(s, functional), worst_point=worst, min_eig=min_eig
    )
