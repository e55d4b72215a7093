"""Dense complex-matrix layer for few-qubit states and observables.

Everything here is a plain ``numpy.ndarray``: the Pauli matrices, the 4-qubit
GHZ and white-noise states, Kronecker products, expectation values and the one
dichotomic (Hermitian, ±1-valued) check that the Bell functionals and the
self-test apply to measurement settings. The dimensions in play are 2, 4, 8
and 16, so no sparsity or cleverness is needed. All functions are pure.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

IMAG_TOL = 1e-10
DICHOTOMIC_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (I2, X, Y, Z):
    _m.setflags(write=False)


def kron_all(matrices) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence (party 1 leftmost)."""
    return reduce(np.kron, matrices)


def ghz_vector() -> np.ndarray:
    """State vector (|0000⟩ + |1111⟩)/√2 of the 4-qubit GHZ state."""
    v = np.zeros(16, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def ghz_state() -> np.ndarray:
    """Density matrix of the pure 4-qubit GHZ state."""
    v = ghz_vector()
    return np.outer(v, v.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def noisy_ghz(alpha: float) -> np.ndarray:
    """Convex mixture (1−α)·GHZ + α·𝟙/16 of the 4-qubit GHZ state with white noise."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * ghz_state() + alpha * maximally_mixed(16)


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Tr(ρ·O) as a real number; trips if the imaginary part is not negligible."""
    rho = np.asarray(rho, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if rho.shape != obs.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs observable {obs.shape}")
    value = np.trace(rho @ obs)
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"expectation value has imaginary part {value.imag:g}")
    return float(value.real)


def is_dichotomic(obs: np.ndarray) -> bool:
    """True when the observable is a non-empty square matrix that is Hermitian and
    has every eigenvalue ±1, both within ``DICHOTOMIC_TOL``; the eigenvalues are
    those of its Hermitian part, so round-off cannot leak into the eigensolver."""
    m = np.asarray(obs, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    if not np.max(np.abs(m - m.conj().T)) <= DICHOTOMIC_TOL:  # NaN fails too
        return False
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(np.max(np.abs(np.abs(eigs) - 1.0)) <= DICHOTOMIC_TOL)
