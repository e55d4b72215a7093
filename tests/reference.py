"""Independent scalar oracles for the tests, kept out of the package.

The package assembles the self-testing certificate in batches
(``certificate_operators``), as diagonal blocks in a fixed basis U.
``dense_operators`` maps them back to the computational basis as
U·blockdiag·U†. The scalar forms here follow Kaniewski's channel family
(PRL 117, 070402, 2016) one Jordan angle and one party at a time, so the
tests can check the batched assembly against a second derivation. The
bisection on η and the integer scan for N invert the confidence bound a
second way, against the package's closed-form inversion. The full product
grid and every group element's image of a grid row check the grid that
keeps one point per symmetry orbit, and the two-pass search (every
threshold, then a full certificate pass) checks the lazy one. The violation at
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
from ghzcert.quantum import expectation, hermitian_eigenvalues, is_hermitian
from ghzcert.replay import FIELDS, Events
from ghzcert.selftest import (
    HALF_PI,
    QUARTER_PI,
    SEARCH_CHUNK_ROWS,
    SEARCH_CHUNKS,
    BoundSearchError,
    BoundSearchResult,
    SelfTestBound,
    SymmetryGroup,
    _certificate_tables,
    _chunk,
    _refine_tasks,
    _task_points,
    angle_nodes,
    certificate_eigenvalues,
    certificate_operators,
    channel_weight,
    evaluate_grid,
    open_grid,
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


def two_pass_bound_search(functional: BellFunctional, grid_step: float, slack: float = 1e-9,
                          refine: bool = False) -> BoundSearchResult:
    """The bound search as two full passes, in one process: every grid point's
    threshold, then the certificate minimum of every grid point at their
    maximum, whose least value and first worst point are the result;
    ``refine`` as in ``bound_search``. Both passes split the grid into at least
    SEARCH_CHUNKS chunks of at most SEARCH_CHUNK_ROWS points."""
    with open_grid(functional, grid_step, 1) as grid:
        size = len(grid.indices)
        step = min(SEARCH_CHUNK_ROWS, -(-size // SEARCH_CHUNKS))
        chunks = [_task_points(np.tile(grid.node_angles, (4, 1)), grid.indices[i:i + step])
                  for i in range(0, size, step)]
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
        worst = tuple(float(a) for a in grid.node_angles[grid.indices[worst_row]])
        if refine:
            seeds = grid.indices[np.argsort(values, kind="stable")[:100]]
            tasks = _refine_tasks(s, grid, seeds, grid_step)
            local = np.stack([_chunk(task) for task in tasks])
            seed, row = np.unravel_index(np.argmin(local), local.shape)
            if local[seed, row] < min_eig:
                min_eig = float(local[seed, row])
                worst = tuple(float(a) for a in _task_points(*tasks[seed][2:])[0][row])
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
    batches = list(zip(np.array_split(angles, parts), np.array_split(branches, parts)))
    s = max(slope_thresholds(a, b, functional).max() for a, b in batches)
    return s, min(certificate_eigenvalues(s, a, b, functional).min() for a, b in batches)


def group_images(rows: np.ndarray, group: SymmetryGroup, n_nodes: int) -> np.ndarray:
    """Every element's image of every node-index row: (rows, order, parties)."""
    perms, flips = group.perms, group.flips
    moved = np.where(flips, n_nodes - 1 - rows[:, None, :], rows[:, None, :])
    images = np.empty_like(moved)
    images[:, np.arange(len(perms))[:, None], perms] = moved
    return images


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
