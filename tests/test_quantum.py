"""Contract tests for the dense matrix layer."""

import numpy as np
import pytest

from ghzcert.quantum import (
    DICHOTOMIC_TOL,
    I2,
    X,
    Y,
    Z,
    expectation,
    ghz_state,
    ghz_vector,
    is_dichotomic,
    kron_all,
    maximally_mixed,
    noisy_ghz,
)
from reference import check_density_matrix


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_kron_identity():
    assert np.array_equal(kron_all([I2, I2]), np.eye(4, dtype=complex))


def test_kron_double_bitflip():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(kron_all([X, X]) @ ket00, ket11)


def test_kron_zz_eigenvalues():
    # oracle: ZZ is diag(1, -1, -1, 1) by direct construction
    oracle = np.diag([1.0, -1.0, -1.0, 1.0])
    expected = np.sort(np.linalg.eigvalsh(oracle))
    got = np.linalg.eigvalsh(kron_all([Z, Z]))
    assert np.allclose(got, expected, atol=1e-12)


def test_kron_associative_and_dims():
    # integer entries keep float products exact, so equality is bitwise
    rng = np.random.default_rng(7)
    a, b, c = (
        rng.integers(-5, 6, size=(d, d)) + 1j * rng.integers(-5, 6, size=(d, d))
        for d in (2, 2, 4)
    )
    left = kron_all([kron_all([a, b]), c])
    right = kron_all([a, kron_all([b, c])])
    assert left.shape == (16, 16)
    assert np.array_equal(left, right)


def test_min_eigenvalue_identity():
    assert np.linalg.eigvalsh(np.eye(16, dtype=complex))[0] == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_z():
    assert np.linalg.eigvalsh(Z)[0] == pytest.approx(-1.0, abs=1e-12)


def test_min_eigenvalue_mermin_operator():
    """The full Mermin operator with X/Y settings reaches -beta_alg = -8."""
    # oracle built from scratch with numpy.kron, independent of package helpers
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    obs = {0: x, 1: y}
    signs_settings = [
        (+1, (0, 0, 0, 0)), (-1, (1, 1, 0, 0)), (-1, (1, 0, 1, 0)),
        (-1, (1, 0, 0, 1)), (+1, (1, 1, 1, 1)), (-1, (0, 1, 1, 0)),
        (-1, (0, 1, 0, 1)), (-1, (0, 0, 1, 1)),
    ]
    op = np.zeros((16, 16), dtype=complex)
    for sign, settings in signs_settings:
        term = np.array([[1.0]], dtype=complex)
        for s in settings:
            term = np.kron(term, obs[s])
        op += sign * term
    assert np.linalg.eigvalsh(op)[0] == pytest.approx(-8.0, abs=1e-9)
    assert np.max(np.linalg.eigvalsh(op)) == pytest.approx(8.0, abs=1e-9)


def test_ghz_trace_one():
    assert np.trace(ghz_state()).real == pytest.approx(1.0, abs=1e-12)


def test_ghz_stabilizer_expectations():
    rho = ghz_state()
    assert expectation(rho, kron_all([X, X, X, X])) == pytest.approx(1.0, abs=1e-10)
    assert expectation(rho, kron_all([Z, Z, I2, I2])) == pytest.approx(1.0, abs=1e-10)


def test_ghz_yyxx_expectation():
    # oracle: direct trace with an independently assembled operator
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    op = np.kron(np.kron(y, y), np.kron(x, x))
    oracle = np.trace(ghz_state() @ op).real
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    assert expectation(ghz_state(), kron_all([Y, Y, X, X])) == pytest.approx(oracle, abs=1e-12)


def test_noisy_ghz_endpoints():
    assert np.allclose(noisy_ghz(0.0), ghz_state(), atol=1e-14)
    assert np.allclose(noisy_ghz(1.0), maximally_mixed(16), atol=1e-14)


def test_noisy_ghz_fidelity():
    # oracle: <GHZ|rho|GHZ> = (1-a) + a/16 by direct inner product
    alpha = 0.05
    v = ghz_vector()
    oracle = float((v.conj() @ noisy_ghz(alpha) @ v).real)
    assert oracle == pytest.approx(0.953125, abs=1e-12)
    assert expectation(noisy_ghz(alpha), ghz_state()) == pytest.approx(oracle, abs=1e-14)


def test_noisy_ghz_rejects_out_of_range():
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            noisy_ghz(bad)


def test_expectation_traceless_pauli_on_mixed():
    rho = maximally_mixed(16)
    for string in ([X, Y, Z, X], [Z, I2, I2, I2], [Y, Y, Y, Y]):
        assert expectation(rho, kron_all(string)) == pytest.approx(0.0, abs=1e-12)


def test_expectation_noisy_linear_in_alpha():
    xxxx = kron_all([X, X, X, X])
    for alpha in (0.0, 0.05, 0.3, 1.0):
        assert expectation(noisy_ghz(alpha), xxxx) == pytest.approx(1.0 - alpha, abs=1e-10)


def test_expectation_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        expectation(ghz_state(), Z)


def test_expectation_bilinear():
    """Linearity in both arguments on random Hermitian pairs."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = random_hermitian(rng, 16), random_hermitian(rng, 16)
        rho1, rho2 = random_density(rng, 16), random_density(rng, 16)
        c1, c2 = rng.normal(), rng.normal()
        lhs = expectation(rho1, c1 * a + c2 * b)
        rhs = c1 * expectation(rho1, a) + c2 * expectation(rho1, b)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        mix = 0.5 * rho1 + 0.5 * rho2
        assert expectation(mix, a) == pytest.approx(
            0.5 * expectation(rho1, a) + 0.5 * expectation(rho2, a), abs=1e-9
        )


def test_min_eigenvalue_below_rayleigh_quotients():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 16)
    lam = np.linalg.eigvalsh(h)[0]
    for _ in range(100):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        rayleigh = float((v.conj() @ h @ v).real)
        assert lam <= rayleigh + 1e-9


def test_constructed_density_matrices_valid():
    rng = np.random.default_rng(17)
    states = [ghz_state(), noisy_ghz(0.3), maximally_mixed(16)]
    states += [random_density(rng, 16) for _ in range(10)]
    for rho in states:
        check_density_matrix(rho)


def test_check_density_matrix_rejects():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(16, dtype=complex))  # trace 16
    with pytest.raises(ValueError):
        check_density_matrix(Z)  # negative eigenvalue


def _with_entry(matrix, value):
    out = np.array(matrix, dtype=complex)
    out[0, 1] = value
    return out


#: name -> (matrix, is_dichotomic); the anti-Hermitian part i·t·Z moves M − M† by 2t
DICHOTOMIC_CASES = {
    "identity": (I2, True),
    "minus_identity": (-I2, True),
    "pauli_x": (X, True),
    "rotated_xz": ((X + Z) / np.sqrt(2), True),
    "four_by_four": (kron_all([X, Z]), True),
    "half_x": (0.5 * X, False),
    "nilpotent": (np.array([[0, 1], [0, 0]], dtype=complex), False),
    "anti_hermitian_half_tol": (X + 0.25j * DICHOTOMIC_TOL * Z, True),
    "anti_hermitian_twice_tol": (X + 1j * DICHOTOMIC_TOL * Z, False),
    "nan_entry": (_with_entry(X, np.nan), False),
    "inf_entry": (_with_entry(X, np.inf), False),
    "empty": (np.zeros((0, 0), dtype=complex), False),
    "one_dimensional": (np.array([1.0, -1.0]), False),
    "two_by_three": (np.ones((2, 3), dtype=complex), False),
}


@pytest.mark.parametrize("name", DICHOTOMIC_CASES)
def test_is_dichotomic(name):
    matrix, expected = DICHOTOMIC_CASES[name]
    assert is_dichotomic(matrix) is expected
