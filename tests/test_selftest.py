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
    get_functional,
    mermin_functional,
    term_operator,
    zhao_functional,
)
from ghzcert.quantum import I2, X, Y, Z, expectation, ghz_state, hermitian_eigenvalues, kron_all
from ghzcert.selftest import (
    BoundSearchError,
    SelfTestBound,
    _certificate_tables,
    angle_nodes,
    bound_search,
    channel_weight,
    certificate_eigenvalues,
    extractability_bound,
    is_party_symmetric,
    published_bound,
    sigma_basis,
    slope_thresholds,
    snap_grid_step,
)
from reference import (
    _evaluate,
    branches_of,
    build_K,
    certificate_min_eig,
    dense_operators,
    extraction_channel,
    jordan_observable,
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
    assert is_party_symmetric(mermin_functional())
    assert not is_party_symmetric(baccari_functional())
    assert not is_party_symmetric(zhao_functional())


def test_angle_nodes_duplicate_quarter_pi():
    angles, branches = angle_nodes(math.pi / 24)
    at_quarter = np.isclose(angles, QUARTER)
    assert at_quarter.sum() == 2
    assert sorted(branches[at_quarter]) == [-1, 1]
    assert angles[0] == 0.0 and angles[-1] == pytest.approx(math.pi / 2)


def test_snap_grid_step_accepts_rounded_values():
    step, intervals = snap_grid_step(0.05236)  # pi/60 quoted to 4 places
    assert intervals == 30
    assert step == pytest.approx(math.pi / 60, abs=1e-15)
    with pytest.raises(ValueError):
        snap_grid_step(math.pi / 6 + 1e-9)  # odd interval count, pi/4 off grid


def test_grid_evaluation_thread_count_invariant():
    f = mermin_functional()
    ref = _evaluate(0.2, f, math.pi / 12, 1)
    for threads in (2, 3):
        assert np.array_equal(_evaluate(0.2, f, math.pi / 12, threads), ref)


def test_grid_pool_capped_at_usable_cpus(monkeypatch):
    """``threads`` above the usable CPU count starts one worker per CPU, no more."""
    seen = []

    class InlinePool:  # records the worker count and runs each task in this process
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(importlib.import_module("ghzcert.selftest"), "ProcessPoolExecutor",
                        InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    f = mermin_functional()
    ref = _evaluate(0.2, f, math.pi / 12, 1)
    for threads in (2, 3, 10_000):
        assert np.array_equal(_evaluate(0.2, f, math.pi / 12, threads), ref)
    assert seen == [2, 3, 3]


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


def test_bound_search_thread_count_invariant():
    """Two threshold chunks (4096 zhao points) and one shared pool per search."""
    f = zhao_functional()
    ref = bound_search(f, grid_step=math.pi / 12, threads=1)
    for threads in (2, 3):
        assert bound_search(f, grid_step=math.pi / 12, threads=threads) == ref
