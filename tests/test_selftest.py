"""Jordan certificate machinery and the self-testing bound search."""

import dataclasses
import importlib
import itertools
import math
import os

import numpy as np
import pytest

from ghzcert.bell import (
    BellTerm,
    baccari_functional,
    functional_from_json,
    get_functional,
    mermin_functional,
    term_operator,
    zhao_functional,
)
from ghzcert.quantum import I2, X, Y, Z, expectation, ghz_state, hermitian_eigenvalues, kron_all
from ghzcert.selftest import (
    LAZY_MARGIN,
    SEARCH_CHUNK_ROWS,
    BoundSearchError,
    SelfTestBound,
    _certificate_tables,
    _conjugates,
    _dense,
    _solve_conjugator,
    _table_image,
    angle_nodes,
    bound_search,
    channel_weight,
    certificate_eigenvalues,
    certificate_operators,
    extractability_bound,
    open_grid,
    published_bound,
    sigma_basis,
    slope_thresholds,
    snap_grid_step,
    symmetry_group,
)
from reference import (
    _evaluate,
    branches_of,
    build_K,
    certificate_min_eig,
    dense_operators,
    extraction_channel,
    functional_to_json,
    group_images,
    jordan_observable,
    product_grid_extrema,
    two_pass_bound_search,
    violation_at,
)

QUARTER = math.pi / 4
MERMIN_BASIS = sigma_basis((X, Y))


def test_sigma_basis_mermin():
    plus, minus = MERMIN_BASIS
    assert np.allclose(plus, (X + Y) / math.sqrt(2), atol=1e-14)
    assert np.allclose(minus, (X - Y) / math.sqrt(2), atol=1e-14)


def test_jordan_observable_ideal_point():
    assert np.allclose(jordan_observable(QUARTER, 0, MERMIN_BASIS), X, atol=1e-12)
    assert np.allclose(jordan_observable(QUARTER, 1, MERMIN_BASIS), Y, atol=1e-12)


def test_jordan_observable_always_dichotomic():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0, math.pi / 2, size=20):
        for setting in (0, 1):
            eigs = hermitian_eigenvalues(jordan_observable(alpha, setting, MERMIN_BASIS))
            assert np.allclose(sorted(eigs), [-1.0, 1.0], atol=1e-12)


def test_jordan_observable_validation():
    with pytest.raises(ValueError):
        jordan_observable(-0.1, 0, MERMIN_BASIS)
    with pytest.raises(ValueError):
        jordan_observable(0.3, 2, MERMIN_BASIS)


def test_channel_weight_special_points():
    assert channel_weight(QUARTER) == pytest.approx(1.0, abs=1e-12)
    assert channel_weight(0.0) == pytest.approx(0.0, abs=1e-15)
    assert channel_weight(math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def _random_qubit_state(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_extraction_channel_identity_at_quarter():
    rng = np.random.default_rng(5)
    rho = _random_qubit_state(rng)
    assert np.allclose(extraction_channel(QUARTER, rho, MERMIN_BASIS), rho, atol=1e-12)


def test_extraction_channel_equal_mixture_at_zero():
    rng = np.random.default_rng(6)
    rho = _random_qubit_state(rng)
    plus, _ = MERMIN_BASIS
    expected = 0.5 * (rho + plus @ rho @ plus)
    assert np.allclose(extraction_channel(0.0, rho, MERMIN_BASIS), expected, atol=1e-12)


def test_extraction_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = _random_qubit_state(rng)
        alpha = rng.uniform(0, math.pi / 2)
        out = extraction_channel(alpha, rho, MERMIN_BASIS)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, out.conj().T, atol=1e-12)


def test_build_K_at_ideal_point_is_ghz_projector():
    assert np.max(np.abs(build_K((QUARTER,) * 4, mermin_functional()) - ghz_state())) < 1e-12


def test_build_K_trace_and_spectrum():
    rng = np.random.default_rng(9)
    for _ in range(10):
        k = build_K(tuple(rng.uniform(0, math.pi / 2, size=4)), mermin_functional())
        assert np.trace(k).real == pytest.approx(1.0, abs=1e-10)
        eigs = hermitian_eigenvalues(k)
        assert eigs[0] >= -1e-10 and eigs[-1] <= 1 + 1e-10


def _on_party(op, party):
    return kron_all([op if q == party else I2 for q in range(4)])


def _reference_operators(point, point_branches, f):
    """(K, B) from the scalar Jordan observables and channels, party by party."""
    bases = [sigma_basis(pair) for pair in f.ideal_settings]
    b_ref = sum(
        t.coefficient * kron_all(
            I2 if setting is None else jordan_observable(point[p], setting, bases[p])
            for p, setting in enumerate(t.settings)
        )
        for t in f.terms
    )
    k_ref = ghz_state()
    for p, (alpha, branch) in enumerate(zip(point, point_branches)):
        on_party = tuple(_on_party(op, p) for op in bases[p])
        k_ref = extraction_channel(alpha, k_ref, on_party, int(branch))
    return k_ref, b_ref


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_certificate_operators_match_scalar_reference(operator):
    """The batched contraction against the scalar Jordan observables and
    channels: B = Σ c_t ⊗ observables, K = channels applied party by party."""
    f = get_functional(operator)
    rng = np.random.default_rng(21)
    angles = np.vstack(
        [rng.uniform(0, math.pi / 2, size=(50, 4)), np.zeros(4), np.full((2, 4), QUARTER)]
    )
    branches = np.where(angles <= QUARTER, 1, -1)
    branches[-1] = -1  # π/4 on the σ₋ branch
    k_ops, b_ops = dense_operators(angles, branches, f)
    for point, point_branches, k_op, b_op in zip(angles, branches, k_ops, b_ops):
        k_ref, b_ref = _reference_operators(point, point_branches, f)
        assert np.max(np.abs(b_op - b_ref)) <= 1e-12
        assert np.max(np.abs(k_op - k_ref)) <= 1e-12


def _random_points(rng, n):
    """Angles in [0, π/2] with branches drawn independently of them."""
    return rng.uniform(0, math.pi / 2, size=(n, 4)), rng.choice([-1, 1], size=(n, 4))


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_builtin_tables_are_two_real_parity_blocks(operator):
    """P = ⊗ₚ σ₋σ₊ commutes with K and B at 100 random points, whose per-party
    weights span all 81 table entries; the tables' basis U splits P into its
    −1 and +1 eigenspaces, and the stored tables are two real 8×8 blocks."""
    f = get_functional(operator)
    parity = kron_all(minus @ plus for plus, minus in map(sigma_basis, f.ideal_settings))
    u, k_table, b_table = _certificate_tables(f)
    assert np.max(np.abs(u.conj().T @ parity @ u - np.diag([-1.0] * 8 + [1.0] * 8))) <= 1e-12
    for table in (k_table, b_table):
        assert table.dtype == np.float64 and table.shape == (81, 2, 8, 8)
    angles, branches = _random_points(np.random.default_rng(23), 100)
    for point, point_branches in zip(angles, branches):
        for op in _reference_operators(point, point_branches, f):
            assert np.max(np.abs(parity @ op - op @ parity)) <= 1e-12


def test_odd_body_off_plane_functional_keeps_one_complex_block():
    """Mermin plus a 1-body and a 3-body term, with O₁ = cos 0.3·Y + sin 0.3·Z:
    one complex 16×16 block, whose thresholds and certificate minima match
    dense solves on the scalar reference operators."""
    o1 = math.cos(0.3) * Y + math.sin(0.3) * Z
    mermin = mermin_functional()
    f = dataclasses.replace(
        mermin, name="odd", beta_q=8.75, beta_alg=8.75, ideal_settings=((X, o1),) * 4,
        terms=mermin.terms
        + (BellTerm(0.5, (0, None, None, None)), BellTerm(-0.25, (1, 0, 1, None))),
    )
    _, k_table, b_table = _certificate_tables(f)
    for table in (k_table, b_table):
        assert table.dtype == np.complex128 and table.shape == (81, 1, 16, 16)
    angles, branches = _random_points(np.random.default_rng(24), 30)
    s = 0.3
    thresholds = slope_thresholds(angles, branches, f)
    minima = certificate_eigenvalues(s, angles, branches, f)
    for point, point_branches, threshold, minimum in zip(angles, branches, thresholds, minima):
        k_ref, b_ref = _reference_operators(point, point_branches, f)
        lam, vec = np.linalg.eigh(f.beta_q * np.eye(16) - b_ref)
        whiten = vec / np.sqrt(lam)
        pencil = whiten.conj().T @ (np.eye(16) - k_ref) @ whiten
        assert abs(threshold - np.linalg.eigvalsh(pencil)[-1]) <= 1e-12
        cert = k_ref - s * b_ref - (1.0 - s * f.beta_q) * np.eye(16)
        assert abs(minimum - np.linalg.eigvalsh(cert)[0]) <= 1e-12


def test_certificate_at_ideal_point():
    """Spectrum oracle: P - s*B + (8s-1) has eigenvalues {0, 16s-1, 8s-1}."""
    f = mermin_functional()
    point = (QUARTER,) * 4
    s = 0.1875
    assert certificate_min_eig(s, point, f) == pytest.approx(0.0, abs=1e-12)
    # below the ideal-point threshold 1/8 the kernel goes negative: 8s-1
    assert certificate_min_eig(0.1, point, f) == pytest.approx(-0.2, abs=1e-12)


def test_certificate_negative_below_published_slope():
    """A slope below the ideal-point threshold 1/8 fails somewhere on the grid."""
    f = mermin_functional()
    assert _evaluate(0.1, f, math.pi / 12, 1).min() < 0


def test_certificate_permutation_invariant_for_mermin():
    f = mermin_functional()
    rng = np.random.default_rng(12)
    angles = tuple(rng.uniform(0, math.pi / 2, size=4))
    reference = certificate_min_eig(0.2, angles, f)
    for perm in itertools.permutations(range(4)):
        value = certificate_min_eig(0.2, tuple(angles[p] for p in perm), f)
        assert value == pytest.approx(reference, abs=1e-9)


def test_biseparable_witness_floors_mermin_slope():
    """A 1|3 product state at violation 4√2 forces every slope ≥ (2+√2)/16.

    At (0, π/4, π/4, π/4) party 1 measures σ₊ for both settings, so
    B = σ₊ ⊗ M₃. The product of σ₊'s +1 eigenstate and M₃'s top eigenvector
    reaches 4√2; local channels keep it biseparable, so its extractability is
    at most 1/2, and s·4√2 + 1 − 8s ≤ 1/2 gives the floor.
    """
    f = mermin_functional()
    point = (0.0, QUARTER, QUARTER, QUARTER)
    settings = tuple(
        (jordan_observable(a, 0, MERMIN_BASIS), jordan_observable(a, 1, MERMIN_BASIS))
        for a in point
    )
    plus, _ = MERMIN_BASIS
    _, plus_vecs = np.linalg.eigh(plus)
    e_plus = plus_vecs[:, -1]
    bell_op = sum(t.coefficient * term_operator(t, settings) for t in f.terms)
    m3 = np.einsum("a,aibj,b->ij", e_plus.conj(), bell_op.reshape(2, 8, 2, 8), e_plus)
    _, m3_vecs = np.linalg.eigh(m3)
    psi = np.kron(e_plus, m3_vecs[:, -1])
    rho = np.outer(psi, psi.conj())

    beta = violation_at(rho, f, settings)
    assert beta == pytest.approx(4 * math.sqrt(2), abs=1e-9)
    assert expectation(rho, build_K(point, f)) <= 0.5 + 1e-12

    floor = (2 + math.sqrt(2)) / 16
    assert floor * beta + 1 - 8 * floor == pytest.approx(0.5, abs=1e-9)
    assert certificate_min_eig(0.1875, point, f) < 0
    assert certificate_min_eig(floor, point, f) == pytest.approx(0.0, abs=1e-9)


def test_certificate_at_zero_corner_is_4s_minus_7_8():
    """All-zero corner: B = −4·σ₊^⊗4 and K is GHZ dephased in σ₊, so the
    minimum eigenvalue is 4s − 7/8, zero at 7/32 and −1/8 at 3/16."""
    f = mermin_functional()
    corner = (0.0,) * 4
    for s in (0.1875, 7 / 32, 0.25):
        assert certificate_min_eig(s, corner, f) == pytest.approx(4 * s - 7 / 8, abs=1e-9)


def test_feasibility_monotone_in_slope():
    """Larger s never hurts: certificate values are nondecreasing in s (mermin)."""
    f = mermin_functional()
    rng = np.random.default_rng(14)
    angles = rng.uniform(0, math.pi / 2, size=(10, 4))
    branches = np.where(angles <= QUARTER, 1, -1)
    for s1, s2 in ((0.05, 0.1), (0.1, 0.19), (0.19, 0.5), (0.5, 1.0)):
        v1 = certificate_eigenvalues(s1, angles, branches, f)
        v2 = certificate_eigenvalues(s2, angles, branches, f)
        assert np.all(v2 >= v1 - 1e-12)


def test_party_symmetry_detection():
    """mermin's parties are all interchangeable; baccari's and zhao's party 1
    is not, and zhao's party 2 is interchangeable with no other."""
    assert symmetry_group(mermin_functional()).classes == ((0, 1, 2, 3),)
    assert symmetry_group(baccari_functional()).classes == ((0,), (1, 2, 3))
    assert symmetry_group(zhao_functional()).classes == ((0,), (1,), (2, 3))


#: reflection sets (party 1 the most significant bit) and group orders that
#: 400 random points agree with to 1e-9
GROUPS = {
    "mermin": ((0, 3, 5, 6, 9, 10, 12, 15), 192),  # even sets
    "baccari": (tuple(range(8)), 48),  # any set of parties 2-4
    "zhao": (tuple(range(8)), 16),
}


def _reflection_sets(group):
    """The masks of the elements that permute no party."""
    unmoved = (group.perms == np.arange(4)).all(axis=1)
    return tuple(sorted(group.flips[unmoved] @ (1 << np.arange(3, -1, -1))))


@pytest.mark.parametrize("operator", sorted(GROUPS))
def test_symmetry_group_reflections_and_order(operator):
    group = symmetry_group(get_functional(operator))
    assert (_reflection_sets(group), group.order) == GROUPS[operator]
    assert (group.perms[0] == np.arange(4)).all() and not group.flips[0].any()


def _image_points(angles, perm, flips):
    """Random points moved by one element: party p's angle, reflected to
    π/2 − α where flips[p], goes to party perm[p]; branches follow the angles."""
    moved = np.empty_like(angles)
    moved[:, perm] = np.where(flips, math.pi / 2 - angles, angles)
    return moved, np.where(moved <= QUARTER, 1, -1)


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_group_elements_keep_thresholds_and_minima(operator):
    """Every accepted element maps 200 random points to points with the same
    threshold and certificate minimum at s = 0.5."""
    f = get_functional(operator)
    rng = np.random.default_rng(31)
    angles = rng.uniform(0, math.pi / 2, size=(200, 4))
    branches = np.where(angles <= QUARTER, 1, -1)
    group = symmetry_group(f)
    perms, flips = group.perms, group.flips
    moved = [_image_points(angles, perm, flip) for perm, flip in zip(perms, flips)]
    images = tuple(np.concatenate(parts) for parts in zip(*moved))
    for value in (slope_thresholds, lambda *a: certificate_eigenvalues(0.5, *a)):
        before = value(angles, branches, f)
        after = value(*images, f).reshape(len(perms), -1)
        assert np.max(np.abs(after - before)) <= 1e-9


def _proves(f, perm, k_flips, b_flips):
    """The proof check on one candidate whose K rows move with ``k_flips`` and
    B rows with ``b_flips``: a unitary from the conjugator system maps them."""
    tables = np.concatenate(_certificate_tables(f)[1:])
    image = np.concatenate([_table_image(perm, k_flips), _table_image(perm, b_flips) + 81])
    return _conjugates(_solve_conjugator(tables, image), _dense(tables), image)


@pytest.mark.parametrize("operator, flips", [
    ("mermin", [True, True, False, False]),
    ("baccari", [False, True, False, False]),
    ("zhao", [False, False, True, True]),
])
def test_reflection_without_branch_flip_fails_proof(operator, flips):
    """α ↦ π/2 − α swaps B's σ₊ and σ₋ weights; K's swap only with the branch.
    The reflection is proven with both swaps and rejected with B's alone."""
    f = get_functional(operator)
    identity, flips, still = np.arange(4), np.array(flips), np.zeros(4, dtype=bool)
    assert _proves(f, identity, flips, flips)
    assert not _proves(f, identity, still, flips)


def test_changed_coefficient_loses_broken_symmetries():
    """A file's mermin with the (1, 1, 0, 0) term at −1.5 keeps exactly the
    signed permutations, of all 4!·2⁴, that leave the certificate minima at
    s = 0.5 unchanged at 50 random points."""
    mermin = mermin_functional()
    terms = tuple(dataclasses.replace(t, coefficient=-1.5) if t.settings == (1, 1, 0, 0) else t
                  for t in mermin.terms)
    f = functional_from_json(functional_to_json(
        dataclasses.replace(mermin, terms=terms, beta_alg=8.5)))
    group = symmetry_group(f)
    assert group.order < symmetry_group(mermin).order
    kept = {(tuple(perm), tuple(flips)) for perm, flips in zip(group.perms, group.flips)}
    angles = np.random.default_rng(32).uniform(0, math.pi / 2, size=(50, 4))
    before = certificate_eigenvalues(0.5, angles, np.where(angles <= QUARTER, 1, -1), f)
    for perm in itertools.permutations(range(4)):
        for flips in itertools.product((False, True), repeat=4):
            after = certificate_eigenvalues(0.5, *_image_points(angles, perm, flips), f)
            moved = np.max(np.abs(after - before))
            assert moved <= 1e-9 if (perm, flips) in kept else moved > 1e-6


def test_angle_nodes_hold_quarter_pi_once():
    angles = angle_nodes(math.pi / 24)
    assert np.all(np.diff(angles) > 0)
    assert np.isclose(angles, QUARTER).sum() == 1
    assert angles[0] == 0.0 and angles[-1] == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_branch_at_quarter_pi_leaves_operators_unchanged(operator):
    """g(π/4) = 1 makes the channel the identity on either branch: flipping the
    branches of the parties at the π/4 node moves K by rounding and leaves B equal."""
    f = get_functional(operator)
    rng = np.random.default_rng(25)
    angles, branches = _random_points(rng, 200)
    at_quarter = rng.random(angles.shape) < 0.5
    angles[at_quarter] = angle_nodes(math.pi / 12)[3]
    flipped = np.where(at_quarter, -branches, branches)
    (k_op, b_op), (k_flip, b_flip) = (
        certificate_operators(angles, b, f) for b in (branches, flipped)
    )
    assert np.max(np.abs(k_op - k_flip)) <= 1e-15
    assert np.array_equal(b_op, b_flip)


@pytest.mark.parametrize(
    "operator, pi_over, size",
    [
        ("mermin", 24, 1820),
        ("zhao", 12, 2401),
        ("mermin", 60, 46376),
        ("zhao", 60, 923521),
        ("baccari", 60, 923521),
    ],
)
def test_open_grid_sizes(operator, pi_over, size):
    """The grid's orbits are disjoint and cover the ``size`` points that the grid
    held before the symmetry reduction: the product of the nodes, or its
    sorted tuples for mermin, whose parties are all interchangeable."""
    f = get_functional(operator)
    with open_grid(f, math.pi / pi_over, 1) as grid:
        rows, n = grid.indices, len(grid.node_angles)
    group = symmetry_group(f)
    images = group_images(rows, group, n)
    keys = np.sort(images @ n ** np.arange(4), axis=1)
    orbit_sizes = (np.diff(keys, axis=1) != 0).sum(axis=1) + 1
    assert len(np.unique(keys)) == orbit_sizes.sum() == n**4
    if len(group.classes) == 1:
        keys = np.sort(images, axis=2) @ n ** np.arange(4)
    assert len(np.unique(keys)) == size


#: orbits per grid, the Burnside counts of ``GROUPS``
ORBITS = {
    ("mermin", 24): 336, ("baccari", 24): 1092, ("zhao", 24): 2548,
    ("mermin", 60): 6936, ("baccari", 60): 25296, ("zhao", 60): 67456,
}


@pytest.mark.parametrize("operator, pi_over", sorted(ORBITS))
def test_grid_holds_one_point_per_orbit(operator, pi_over):
    with open_grid(get_functional(operator), math.pi / pi_over, 1) as grid:
        assert grid.indices.shape == (ORBITS[operator, pi_over], 4)
        assert np.array_equal(grid.indices, np.unique(grid.indices, axis=0))  # sorted, distinct


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_every_product_point_maps_into_the_grid(operator):
    """At π/12, some element maps each of the 7⁴ product points onto a grid row."""
    f = get_functional(operator)
    with open_grid(f, math.pi / 12, 1) as grid:
        rows, n = grid.indices, len(grid.node_angles)
    product = np.indices((n,) * 4).reshape(4, -1).T
    keys = group_images(product, symmetry_group(f), n) @ n ** np.arange(4)
    assert np.isin(keys, rows @ n ** np.arange(4)).any(axis=1).all()


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
@pytest.mark.parametrize("grid_step", [math.pi / 12, math.pi / 24], ids=["pi/12", "pi/24"])
def test_grid_matches_branch_resolved_grid(operator, grid_step):
    """The largest threshold over one point per orbit, and the certificate
    minimum at it, are those of the full product grid with π/4 on both
    branches, up to rounding."""
    f = get_functional(operator)
    result = bound_search(f, grid_step=grid_step, threads=2)
    s, minimum = product_grid_extrema(f, grid_step)
    assert abs(result.bound.s - s) <= 1e-14
    assert abs(result.min_eig - minimum) <= 1e-14


def test_snap_grid_step_accepts_rounded_values():
    step, intervals = snap_grid_step(0.05236)  # pi/60 quoted to 4 places
    assert intervals == 30
    assert step == pytest.approx(math.pi / 60, abs=1e-15)
    with pytest.raises(ValueError):
        snap_grid_step(math.pi / 6 + 1e-9)  # odd interval count, pi/4 off grid


def test_grid_evaluation_thread_count_invariant():
    """mermin's 6,936 π/60 points: more than one chunk holds, so the pool runs."""
    f = mermin_functional()
    ref = _evaluate(0.2, f, math.pi / 60, 1)
    for threads in (2, 3):
        assert np.array_equal(_evaluate(0.2, f, math.pi / 60, threads), ref)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs each task in this process, and
    records each pool's worker count and each map's task count."""

    workers: list = []
    maps: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.maps.append(len(tasks))
        return map(fn, tasks)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(importlib.import_module("ghzcert.selftest"), "ProcessPoolExecutor",
                        _InlinePool)
    monkeypatch.setattr(_InlinePool, "workers", [])
    monkeypatch.setattr(_InlinePool, "maps", [])
    return _InlinePool


def test_grid_pool_capped_at_usable_cpus(inline_pool, monkeypatch):
    """``threads`` above the usable CPU count starts one worker per CPU, no more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    f = mermin_functional()
    ref = _evaluate(0.2, f, math.pi / 60, 1)
    for threads in (2, 3, 10_000):
        assert np.array_equal(_evaluate(0.2, f, math.pi / 60, threads), ref)
    assert inline_pool.workers == [2, 3, 3]


def test_small_grid_forks_no_worker(monkeypatch):
    """Grids whose points fit one chunk (mermin π/24, zhao π/12) run in this
    process: forking a worker fails the test."""
    def refuse(**kwargs):
        raise AssertionError("a pool was forked")

    selftest = importlib.import_module("ghzcert.selftest")
    for operator, pi_over in (("mermin", 24), ("zhao", 12)):
        f = get_functional(operator)
        ref = bound_search(f, grid_step=math.pi / pi_over, threads=1)
        assert ref.points <= SEARCH_CHUNK_ROWS
        monkeypatch.setattr(selftest, "ProcessPoolExecutor", refuse)
        assert bound_search(f, grid_step=math.pi / pi_over, threads=2) == ref
        monkeypatch.undo()


def test_refine_maps_over_the_pool(inline_pool):
    """mermin π/8's 20 grid points are searched in this process, and --refine's
    20 sub-grids of 625 points each on the pool, forked once."""
    f = mermin_functional()
    result = bound_search(f, grid_step=math.pi / 8, threads=2, refine=True)
    assert (inline_pool.workers, inline_pool.maps) == ([2], [result.points]) == ([2], [20])
    assert result == bound_search(f, grid_step=math.pi / 8, threads=1, refine=True)


def test_self_test_bound_saturation():
    f = mermin_functional()
    b = SelfTestBound.from_slope(0.2, f)
    assert b.s * f.beta_q + b.mu == pytest.approx(1.0, abs=1e-12)
    assert b.c == pytest.approx(1.0 / (2 * 0.2 * 8.0), abs=1e-15)
    with pytest.raises(ValueError):
        SelfTestBound(s=0.2, mu=0.0, beta_q=8.0, beta_alg=8.0)


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_published_bounds_saturate(operator):
    b = published_bound(operator)
    assert b.s * b.beta_q + b.mu == pytest.approx(1.0, abs=2e-4)
    assert b.c > 0


def test_published_mermin_game_constant():
    assert published_bound("mermin").c == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_extractability_bound_values():
    b = published_bound("mermin")
    assert extractability_bound(8.0, b) == pytest.approx(1.0, abs=1e-12)
    # oracle: 0.1875*7.568 - 0.5
    assert extractability_bound(7.568, b) == pytest.approx(0.919, abs=1e-9)
    assert extractability_bound(4.0, b) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        extractability_bound(8.5, b)


def test_bound_search_coarse_grid():
    """On any grid containing the all-zero corner the search lands at 7/32.

    The corner's minimum eigenvalue is 4s − 7/8; the published 3/16 is not
    certifiable (see the acceptance suite's module docstring and
    ``test_biseparable_witness_floors_mermin_slope``).
    """
    f = mermin_functional()
    result = bound_search(f, grid_step=math.pi / 12)
    assert 0.21 <= result.bound.s <= 0.23
    assert result.bound.mu == pytest.approx(1 - 8 * result.bound.s, abs=1e-12)
    assert result.min_eig >= -1e-9


def test_bound_search_refinement_reports_lower_minimum():
    f = mermin_functional()
    plain = bound_search(f, grid_step=math.pi / 8)
    refined = bound_search(f, grid_step=math.pi / 8, refine=True)
    assert refined.bound.s == plain.bound.s
    assert refined.min_eig <= plain.min_eig + 1e-15


def _threshold(angles, functional):
    return float(
        slope_thresholds(np.array([angles]), np.array([branches_of(angles)]), functional)[0]
    )


@pytest.mark.parametrize(
    "angles, expected",
    [
        ((QUARTER,) * 4, 1 / 8),  # ideal point: C is singular on the GHZ vector
        ((0.0,) * 4, 7 / 32),
        ((0.0, QUARTER, QUARTER, QUARTER), (2 + math.sqrt(2)) / 16),
    ],
)
def test_slope_threshold_closed_forms(angles, expected):
    """Per-point thresholds equal the spectrum (8s − 1), corner (4s − 7/8)
    and biseparable-witness oracles above."""
    assert _threshold(angles, mermin_functional()) == pytest.approx(expected, abs=1e-12)


def test_slope_threshold_infinite_when_kernel_misses_ghz():
    """Negated Mermin: C vanishes on GHZ⁻, where 𝟙 − K = 1, so no slope passes."""
    f = mermin_functional()
    negated = dataclasses.replace(
        f, terms=tuple(dataclasses.replace(t, coefficient=-t.coefficient) for t in f.terms)
    )
    assert _threshold((QUARTER,) * 4, negated) == math.inf
    with pytest.raises(BoundSearchError, match="infeasible at s=1"):
        bound_search(negated, grid_step=math.pi / 8)


def _bisected_slope(functional, grid_step, tol=1e-4, slack=1e-9):
    """Reference search: bisection on [0, 1] over full certificate passes."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if _evaluate(mid, functional, grid_step, 1).min() >= -slack:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
def test_bound_search_returns_exact_grid_threshold(operator):
    f = get_functional(operator)
    step = math.pi / 12
    s = bound_search(f, grid_step=step).bound.s
    assert _evaluate(s, f, step, 1).min() >= -1e-9
    assert _evaluate(s - 1e-6, f, step, 1).min() < 0
    assert abs(s - _bisected_slope(f, step)) <= 1e-4


def test_bound_search_rejects_slope_failing_verification(monkeypatch):
    """The returned slope is checked by a certificate pass: thresholds 1e-3 too
    low put the all-zero corner at 4s − 7/8 = −4e-3, which fails it."""
    selftest = importlib.import_module("ghzcert.selftest")
    exact = selftest.slope_thresholds
    monkeypatch.setattr(selftest, "slope_thresholds", lambda *args: exact(*args) - 1e-3)
    with pytest.raises(BoundSearchError, match="fails the grid certificate"):
        bound_search(mermin_functional(), grid_step=math.pi / 8)


def test_builtin_functional_is_one_instance():
    """One instance per built-in name, so its tables and group are derived once
    per process, and repeated searches agree."""
    f = get_functional("zhao")
    assert get_functional("zhao") is f
    assert symmetry_group(get_functional("zhao")) is symmetry_group(f)
    first = bound_search(get_functional("zhao"), grid_step=math.pi / 12)
    assert bound_search(get_functional("zhao"), grid_step=math.pi / 12) == first


def test_bound_search_thread_count_invariant():
    """A certificate pass of eight chunks of 319 rows (zhao's 2,548 π/24 orbit
    points) on one shared pool per search."""
    f = zhao_functional()
    ref = bound_search(f, grid_step=math.pi / 24, threads=1)
    assert ref.points == 2548
    for threads in (2, 3):
        assert bound_search(f, grid_step=math.pi / 24, threads=threads) == ref


#: the grids on which bound's output stays as the two-pass search had it
SEARCH_GRIDS = [
    ("mermin", 24), ("mermin", 60), pytest.param("mermin", 120, marks=pytest.mark.slow),
    ("baccari", 12), ("baccari", 24), ("baccari", 60),
    ("zhao", 12), pytest.param("zhao", 60, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("operator, pi_over", SEARCH_GRIDS)
def test_lazy_search_matches_two_pass_search(operator, pi_over):
    """Slope, minimum and worst point are the bits of every threshold's maximum
    and a full certificate pass at it, for 1, 2 and 3 workers."""
    f = get_functional(operator)
    step = math.pi / pi_over
    ref = two_pass_bound_search(f, step)
    for threads in (1, 2, 3):
        assert bound_search(f, grid_step=step, threads=threads) == ref


@pytest.mark.parametrize("operator, pi_over", [("baccari", 12), ("baccari", 24)])
def test_lazy_refine_matches_two_pass_search(operator, pi_over, monkeypatch):
    """--refine seeds from the 100 lowest minima at s, as the full pass at s
    orders them: at baccari's seed slopes, below s, 2 (π/12) and 16 (π/24) of
    the 100 would differ."""
    selftest = importlib.import_module("ghzcert.selftest")
    seeds, exact = [], selftest._refine_tasks
    monkeypatch.setattr(selftest, "_refine_tasks",
                        lambda s, grid, rows, step: seeds.append(rows) or exact(s, grid, rows, step))
    f = get_functional(operator)
    step = math.pi / pi_over
    lazy = bound_search(f, grid_step=step, threads=2, refine=True)
    assert lazy == two_pass_bound_search(f, step, refine=True)
    with open_grid(f, step, 1) as grid:
        lowest = np.argsort(_evaluate(lazy.bound.s, f, step, 1), kind="stable")[:100]
        assert np.array_equal(seeds[0], grid.indices[lowest])


@pytest.mark.parametrize("operator", ["mermin", "baccari", "zhao"])
@pytest.mark.parametrize("pi_over", [12, 24])
def test_larger_lazy_margin_changes_nothing(operator, pi_over, monkeypatch):
    f = get_functional(operator)
    ref = bound_search(f, grid_step=math.pi / pi_over)
    monkeypatch.setattr(importlib.import_module("ghzcert.selftest"), "LAZY_MARGIN",
                        100 * LAZY_MARGIN)
    assert bound_search(f, grid_step=math.pi / pi_over) == ref


def test_flagged_thresholds_raise_the_seed_slope(monkeypatch):
    """baccari π/24 seeds s₀ on its nested π/12 rows, whose largest threshold is
    π/12's slope and below π/24's: a flagged point's threshold sets s."""
    selftest = importlib.import_module("ghzcert.selftest")
    passes, exact = [], selftest.evaluate_grid
    monkeypatch.setattr(selftest, "evaluate_grid",
                        lambda s, grid: passes.append((s, exact(s, grid))) or passes[-1][1])
    f = baccari_functional()
    result = bound_search(f, grid_step=math.pi / 24)
    [(seed, values)] = passes
    assert seed == pytest.approx(bound_search(f, grid_step=math.pi / 12).bound.s, abs=1e-12)
    assert seed < result.bound.s
    assert (values < LAZY_MARGIN).sum() >= 1


def test_threshold_above_one_raises_at_the_seed_or_a_flagged_point(monkeypatch):
    """Thresholds above 1 on the seed rows, or only on the flagged rows (every
    call after the first), fail the search with one message."""
    selftest = importlib.import_module("ghzcert.selftest")
    exact, calls = selftest.slope_thresholds, []
    monkeypatch.setattr(selftest, "slope_thresholds",
                        lambda *args: exact(*args) + (calls.append(1) or len(calls) > 1))
    with pytest.raises(BoundSearchError, match="certificate infeasible at s=1; channel family"):
        bound_search(mermin_functional(), grid_step=math.pi / 8)
    assert len(calls) == 2
    monkeypatch.setattr(selftest, "slope_thresholds", lambda *args: exact(*args) + 1.0)
    with pytest.raises(BoundSearchError, match="certificate infeasible at s=1; channel family"):
        bound_search(mermin_functional(), grid_step=math.pi / 8)


def test_worst_point_is_the_first_among_ties(monkeypatch):
    """Every minimum 0: all points are flagged and tie, and the first grid row wins."""
    monkeypatch.setattr(importlib.import_module("ghzcert.selftest"), "certificate_eigenvalues",
                        lambda s, angles, *rest: np.zeros(len(angles)))
    result = bound_search(mermin_functional(), grid_step=math.pi / 8)
    with open_grid(mermin_functional(), math.pi / 8, 1) as grid:
        first = tuple(grid.node_angles[grid.indices[0]])
    assert (result.worst_point, result.min_eig, result.bound.s) == (first, 0.0, 7 / 32)


def test_search_with_no_flagged_point_raises(monkeypatch):
    """The seed's own largest threshold is tight at s₀, so a pass that flags
    nothing is a fault, not a result."""
    monkeypatch.setattr(importlib.import_module("ghzcert.selftest"), "certificate_eigenvalues",
                        lambda s, angles, *rest: np.ones(len(angles)))
    with pytest.raises(BoundSearchError, match="no grid point is tight"):
        bound_search(mermin_functional(), grid_step=math.pi / 8)
