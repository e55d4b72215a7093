"""Independent scalar oracles for the tests, kept out of the package.

The package assembles the self-testing certificate in batches from per-party
weight vectors (``node_weights``, ``certificate_operators``), as diagonal
blocks in a fixed basis U. ``dense_operators`` maps them back to the
computational basis as U·blockdiag·U†, and ``branch_weights`` builds the
vectors with each party's channel branch chosen freely instead of by its
angle. The scalar forms here follow Kaniewski's channel family (PRL 117,
070402, 2016) one Jordan angle and one party at a time, so the tests can
check the batched assembly against a second derivation. The
bisection on η and the integer scan for N invert the confidence bound a
second way, against the package's closed-form inversion. The full product
grid and every group element's image of a grid row check the grid that
keeps one point per symmetry orbit, and the two-pass search (every
threshold, then a full certificate pass) checks the lazy one.
``solve_conjugator`` finds the unitary that proves a symmetry candidate from
the table entries alone, by linear algebra, where the package builds an
explicit local Clifford, and ``corner_threshold`` gives the threshold at a
corner of the grid from diagonal entries, one at a time.
The violation at
arbitrary settings, the density-matrix check, the exhaustive classical bound,
the functional writer and the event-file writer serve the tests alone; no
pipeline calls them.
"""

import itertools
import json
import math

import numpy as np

from ghzcert.bell import BellFunctional, _validate_settings, term_operator
from ghzcert.certification import (
    CertificationQuery,
    CertificationReport,
    check_delta,
    confidence_bound,
    kl,
)
from ghzcert.quantum import (
    expectation,
    ghz_vector,
    hermitian_eigenvalues,
    is_hermitian,
    kron_all,
)
from ghzcert.replay import FIELDS, Events
from ghzcert.selftest import (
    HALF_PI,
    QUARTER_PI,
    SEARCH_CHUNK_ROWS,
    BoundSearchError,
    BoundSearchResult,
    KERNEL_TOL,
    SelfTestBound,
    SymmetryGroup,
    _certificate_tables,
    angle_nodes,
    certificate_eigenvalues,
    certificate_operators,
    channel_weight,
    evaluate_grid,
    node_weights,
    open_grid,
    sigma_basis,
    slope_thresholds,
    symmetry_group,
)
from ghzcert.simulate import Transcript

TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# spec'd accuracy is 1e-6; bisect well past it so the N <-> eta round trip
# stays exact at integer granularity even where d(delta)/d(eta) is steep
ETA_TOL = 1e-12
#: a pass rate above p_QM by at most this much is rounding, not an impossible rate
EPSILON1_TOL = 1e-9
#: relative to the largest, an eigenvalue of the conjugator system's normal
#: matrix, or a singular value of its solution, this small is zero
NULL_TOL = 1e-9
WINDOW_SPAN_PS = 15_000_000_000_000  # 15 s acquisition per input


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

    Γ is σ₊ on [0, π/4] and σ₋ on (π/4, π/2]; ``branch`` overrides the choice.
    At π/4, g = 1 and both branches give the identity. The channel is unital,
    trace preserving and self-adjoint, so applying it to a projector is the
    same as applying its adjoint.
    """
    if not 0.0 <= alpha <= HALF_PI:
        raise ValueError(f"Jordan angle {alpha!r} outside [0, pi/2]")
    plus, minus = basis
    if branch is None:
        branch = 1 if alpha <= QUARTER_PI else -1
    gamma = plus if branch == 1 else minus
    g = channel_weight(math.cos(alpha), math.sin(alpha))
    return 0.5 * (1.0 + g) * rho + 0.5 * (1.0 - g) * (gamma @ rho @ gamma)


def branch_weights(angles, branches) -> tuple[np.ndarray, np.ndarray]:
    """(K, B) weight vectors as ``node_weights`` lays them out, each
    ``angles.shape + (3,)``, with each angle's channel branch taken from
    ``branches`` (+1 for σ₊, −1 for σ₋) instead of from the angle."""
    angles = np.asarray(angles, dtype=float)
    plus = np.asarray(branches) == 1
    g = channel_weight(np.cos(angles), np.sin(angles))
    p_w, q_w = 0.5 * (1.0 + g), 0.5 * (1.0 - g)
    k_vectors = np.stack([p_w, np.where(plus, q_w, 0.0), np.where(plus, 0.0, q_w)], axis=-1)
    b_vectors = np.stack([np.ones_like(angles), np.cos(angles), np.sin(angles)], axis=-1)
    return k_vectors, b_vectors


def certificate_min_eig(s: float, angles, functional: BellFunctional) -> float:
    """Certificate minimum eigenvalue at one angle tuple."""
    return float(certificate_eigenvalues(
        s, *node_weights(np.array([angles], dtype=float)), functional)[0])


def dense_operators(k_vectors, b_vectors, functional: BellFunctional) -> tuple[np.ndarray, ...]:
    """(K, B) of ``certificate_operators`` at (n, 4, 3) weight pairs as
    (n, 16, 16) computational-basis matrices: U·blockdiag(blocks)·U† per point."""
    u = _certificate_tables(functional)[0]
    n = len(k_vectors)
    dense = []
    for blocks in certificate_operators(k_vectors, b_vectors, functional):
        blocks = blocks.reshape(n, -1, *blocks.shape[1:])
        d = blocks.shape[-1]
        diag = np.zeros((n, 16, 16), dtype=complex)
        for b in range(blocks.shape[1]):
            diag[:, b * d:(b + 1) * d, b * d:(b + 1) * d] = blocks[:, b]
        dense.append(u @ diag @ u.conj().T)
    return tuple(dense)


def build_K(angles, functional: BellFunctional) -> np.ndarray:
    """Extraction channels applied factor-wise to the GHZ projector."""
    k_op, _ = dense_operators(*node_weights(np.array([angles], dtype=float)), functional)
    return k_op[0]


def _evaluate(s: float, functional: BellFunctional, step: float):
    """Certificate minimum eigenvalues at slope ``s`` on a grid opened for it, in
    grid order (one :func:`evaluate_grid` pass)."""
    return evaluate_grid(s, open_grid(functional, step))


def two_pass_bound_search(functional: BellFunctional, grid_step: float,
                          slack: float = 1e-9) -> BoundSearchResult:
    """The bound search as two full passes, in one process: every grid point's
    threshold, then the certificate minimum of every grid point at their
    maximum, whose least value and first worst point are the result. Both
    passes take the grid in consecutive chunks of SEARCH_CHUNK_ROWS points,
    the last one shorter."""
    grid = open_grid(functional, grid_step)
    size = len(grid.indices)
    nodes = angle_nodes(grid_step)
    chunks = [node_weights(nodes[grid.indices[i:i + SEARCH_CHUNK_ROWS]])
              for i in range(0, size, SEARCH_CHUNK_ROWS)]
    s = max(float(slope_thresholds(*points, functional).max()) for points in chunks)
    if not s <= 1.0:
        raise BoundSearchError(
            "certificate infeasible at s=1; channel family does not match the functional"
        )
    values = np.concatenate([certificate_eigenvalues(s, *points, functional)
                             for points in chunks])
    worst_row = int(np.argmin(values))
    min_eig = float(values[worst_row])
    if min_eig < -slack:
        raise BoundSearchError(
            f"threshold slope {s!r} fails the grid certificate "
            f"(minimum eigenvalue {min_eig!r} below -{slack!r})"
        )
    worst = tuple(float(a) for a in nodes[grid.indices[worst_row]])
    return BoundSearchResult(
        bound=SelfTestBound.from_slope(s, functional), points=size,
        group_order=symmetry_group(functional).order, worst_point=worst, min_eig=min_eig,
    )


def product_grid(grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The full product grid before any reduction, with π/4 resolved on both
    branches as it once was: (angles, branches), each (points, 4)."""
    nodes = angle_nodes(grid_step)
    mid = len(nodes) // 2
    angles = np.insert(nodes, mid + 1, nodes[mid])
    branches = np.where(np.arange(len(angles)) <= mid, 1, -1)
    rows = np.indices((len(angles),) * 4).reshape(4, -1).T
    return angles[rows], branches[rows]


def product_grid_extrema(functional: BellFunctional, grid_step: float) -> tuple[float, float]:
    """(largest threshold, certificate minimum at it) over :func:`product_grid`,
    in batches of at most 4096 points."""
    angles, branches = product_grid(grid_step)
    parts = -(-len(angles) // 4096)
    batches = [branch_weights(a, b) for a, b in
               zip(np.array_split(angles, parts), np.array_split(branches, parts))]
    s = max(slope_thresholds(*w, functional).max() for w in batches)
    return s, min(certificate_eigenvalues(s, *w, functional).min() for w in batches)


def group_images(rows: np.ndarray, group: SymmetryGroup, n_nodes: int) -> np.ndarray:
    """Every element's image of every node-index row: (rows, order, parties)."""
    perms, flips = group.perms, group.flips
    moved = np.where(flips, n_nodes - 1 - rows[:, None, :], rows[:, None, :])
    images = np.empty_like(moved)
    images[:, np.arange(len(perms))[:, None], perms] = moved
    return images


def _generic(n: int) -> np.ndarray:
    """n fixed numbers in (−1/2, 1/2) with no rational relation among them up to
    rounding (a golden-ratio Weyl sequence)."""
    return np.arange(1, n + 1) * ((math.sqrt(5.0) - 1.0) / 2.0) % 1.0 - 0.5


def solve_conjugator(tables: np.ndarray, image: np.ndarray) -> np.ndarray | None:
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


def corner_threshold(corner, functional: BellFunctional) -> float:
    """The smallest slope passing the certificate at one corner of {0, π/2}⁴.

    At α = 0 a party's observables are both σ₊ and its channel, with g = 0,
    dephases in σ₊'s eigenbasis; at π/2 they are ±σ₋ and the channel dephases
    in σ₋'s. So K and B are diagonal in the product of those eigenbases: K's
    entry is |⟨x|GHZ⟩|², B's is Σ_t c_t·Π_p (party p's factor's eigenvalue at
    x_p). The threshold is the largest (1 − K_x)/(β_Q − B_x), and ∞ where
    β_Q − B_x vanishes and 1 − K_x does not.
    """
    bases = []
    for alpha, pair in zip(corner, functional.ideal_settings):
        plus, minus = sigma_basis(pair)
        values, vectors = np.linalg.eigh(plus if alpha == 0.0 else minus)
        # each setting's factor, 𝟙 for a party outside the term: its eigenvalues
        factors = {None: np.ones(2), 0: values, 1: values if alpha == 0.0 else -values}
        bases.append((vectors, factors))
    threshold = -math.inf
    for x in itertools.product(range(2), repeat=4):
        vector = kron_all([vectors[:, i] for (vectors, _), i in zip(bases, x)])
        k = abs(vector.conj() @ ghz_vector()) ** 2
        b = sum(t.coefficient * math.prod(factors[s][i] for (_, factors), s, i
                                          in zip(bases, t.settings, x))
                for t in functional.terms)
        gap = functional.beta_q - b
        if gap > KERNEL_TOL * functional.beta_q:
            threshold = max(threshold, (1.0 - k) / gap)
        elif abs(1.0 - k) > KERNEL_TOL:
            return math.inf
    return threshold


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


def _bisection_delta(query: CertificationQuery, eta: float) -> float:
    p2 = max(query.p_qm - query.bound.c * eta, 0.0)
    if p2 >= query.pass_rate:  # no statistical gap: only the trivial bound holds
        return 1.0
    return confidence_bound(query.n, query.mu_meas, query.pass_rate, p2)


def bisect_certified_extractability(query: CertificationQuery) -> CertificationReport:
    """Largest 1−η certified at confidence 1−δ, by bisection on η.

    η must satisfy both c·η > ε₁ = p_QM − P and confidence_bound ≤ δ. The
    bound decreases in η, so the smallest feasible η is bracketed to ETA_TOL
    and the bracket's upper end is reported; when even η = 1 fails, the
    report is infeasible.
    """
    epsilon1 = query.p_qm - query.pass_rate
    c = query.bound.c
    eta_lo = max(epsilon1 / c, 0.0)
    if eta_lo >= 1.0 or _bisection_delta(query, 1.0) > query.delta:
        return CertificationReport(
            certified_extractability=0.0,
            eta=1.0,
            epsilon1=epsilon1,
            epsilon2=c,
            achieved_delta=_bisection_delta(query, 1.0) if eta_lo < 1.0 else 1.0,
            feasible=False,
        )
    lo, hi = eta_lo, 1.0
    while hi - lo > ETA_TOL:
        mid = (lo + hi) / 2.0
        if _bisection_delta(query, mid) <= query.delta:
            hi = mid
        else:
            lo = mid
    return CertificationReport(
        certified_extractability=1.0 - hi,
        eta=hi,
        epsilon1=epsilon1,
        epsilon2=c * hi,
        achieved_delta=_bisection_delta(query, hi),
        feasible=True,
    )


def min_samples(
    delta: float,
    eta: float,
    pass_rate: float,
    p_qm: float,
    bound: SelfTestBound,
) -> int:
    """Smallest N with confidence_bound(N, (N−1)/N, P, p_QM − c·η) ≤ δ.

    Scans integers upward from the continuous estimate ln δ / ln(e^{−D}),
    which ignores the held-out copy and therefore starts slightly low.
    """
    check_delta(delta)
    epsilon1 = p_qm - pass_rate
    epsilon2 = bound.c * eta
    if epsilon2 <= epsilon1:
        raise ValueError(
            f"epsilon2={epsilon2!r} must exceed epsilon1={epsilon1!r}; "
            "requested extractability is not reachable at this pass rate"
        )
    if epsilon1 < -EPSILON1_TOL:
        raise ValueError(f"pass rate {pass_rate!r} exceeds p_QM={p_qm!r}")
    p2 = p_qm - epsilon2
    divergence = kl(pass_rate, p2)
    if divergence == math.inf:
        start = 2
    else:
        start = max(2, math.ceil(math.log(delta) / -divergence) - 2)
    n = start
    while confidence_bound(n, (n - 1) / n, pass_rate, p2) > delta:
        n += 1
    return n


def events_from_transcript(transcript: Transcript) -> Events:
    """Synthetic event file content from a simulated transcript: each measured
    round becomes a window of ``WINDOW_SPAN_PS`` holding one event at its start
    (held-out rounds, never measured, leave none)."""
    measured = ~transcript.held_out
    n = int(np.count_nonzero(measured))
    return Events(
        window_id=np.arange(n, dtype=np.uint64),
        t_ps=np.array([k * WINDOW_SPAN_PS for k in range(n)], dtype=np.uint64),  # raises past 2**64
        inputs=transcript.inputs[measured],
        outcomes=transcript.outcomes[measured],
    )


def events_to_jsonl(events: Events) -> str:
    """Events in the canonical spelling that ``parse_events`` reads by its fast path."""
    columns = (events.window_id, events.inputs, events.t_ps, events.outcomes)
    return "\n".join(
        json.dumps(dict(zip(FIELDS, row))) for row in zip(*(c.tolist() for c in columns))
    ) + "\n"
