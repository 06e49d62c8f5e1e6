"""Dense complex linear algebra for one- and two-qubit operators.

Basis convention used everywhere in this package: index 0 is the excited
state |e>, index 1 is the ground state |g>, so sigma_z = diag(+1, -1) is
literally |e><e| - |g><g|.  Two-qubit states are ordered system (x) ancilla:
|ee>, |eg>, |ge>, |gg>.
"""

from __future__ import annotations

import math

import numpy as np

# Density-matrix validity tolerances. The eigenvalue floor is negative on
# purpose: fixed-step integration leaves harmless negative roundoff.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


def pauli(which: str) -> np.ndarray:
    """Return a fresh copy of sigma_z ("z"), sigma_+ ("plus") or sigma_- ("minus")."""
    try:
        return {"z": _SIGMA_Z, "plus": _SIGMA_PLUS, "minus": _SIGMA_MINUS}[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli operator {which!r}; expected 'z', 'plus' or 'minus'")


def qubit_thermal_state(omega: float, temperature: float) -> np.ndarray:
    """Gibbs state diag(p_e, p_g) of a qubit with level splitting omega
    (energies +-omega/2), p proportional to exp(-E / T).

    T = 0, and a T so small that 1/T overflows, put all weight on the
    ground level (split evenly where omega/2 rounds to 0). Negative
    temperatures are out of scope and rejected.
    """
    if omega <= 0:
        raise ValueError(f"qubit frequency must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"negative temperature {temperature} not supported")
    beta = math.inf if temperature == 0 else 1.0 / temperature
    energies = np.array([omega / 2.0, -omega / 2.0])
    if math.isinf(beta):
        weights = (energies == energies.min()).astype(float)
    else:
        # shift by the minimum before exponentiating to avoid overflow; a
        # beta * E beyond the float range is -inf, and its weight 0
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (energies - energies.min()))
    rho = np.diag(weights / weights.sum()).astype(complex)
    validate_density_matrix(rho, "thermal state")
    return rho


def partial_trace(rho: np.ndarray) -> np.ndarray:
    """Trace the ancilla (second tensor factor) out of a 4x4 two-qubit
    density matrix, or out of each matrix of a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects 4x4 matrices, got shape {rho.shape}")
    return np.einsum("...ijkj->...ik", rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))


def unitary_propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Eigendecomposition is exact to roundoff for the small Hermitian matrices
    used here and keeps the result unitary by construction.
    """
    H = np.asarray(hamiltonian, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {H.shape}")
    if np.abs(H - H.conj().T).max() > HERMITICITY_ATOL:
        raise ValueError("Hamiltonian is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of (a - b); in [0, 1] for states."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def validate_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Check finite entries, Hermiticity, unit trace and positivity of a
    density matrix, or of each matrix of a (..., d, d) stack, whose error
    message then names the index of the first bad state; return rho
    unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name}: not a square matrix, shape {rho.shape}")
    if rho.shape[-1] not in (2, 4):
        raise ValueError(f"{name}: dimension {rho.shape[-1]} not supported (2 or 4)")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if rho.ndim == 2 and not finite:
        i, j = np.argwhere(~np.isfinite(rho))[0]
        raise ValueError(f"{name}: entry ({i}, {j}) is {rho[i, j]}, not finite")
    # a non-finite state of a stack is checked as the zero matrix, whose trace fails
    values = rho if finite.all() else np.where(finite[..., None, None], rho, 0.0)
    herm = np.abs(values - values.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(values, axis1=-2, axis2=-1)
    lo = np.linalg.eigvalsh(values).min(axis=-1)
    if rho.ndim > 2:
        bad = (herm > HERMITICITY_ATOL) | (abs(tr - 1.0) > TRACE_ATOL) | (lo < EIGENVALUE_FLOOR)
        for index in map(tuple, np.argwhere(bad).tolist()):
            validate_density_matrix(rho[index], f"{name} {', '.join(map(str, index))}")
        return rho
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"{name}: not Hermitian, max |rho - rho^dag| = {float(herm):.3e}")
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name}: trace {complex(tr)} differs from 1 by more than 1e-12")
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{name}: negative eigenvalue {float(lo):.3e} below floor {EIGENVALUE_FLOOR}")
    return rho


def ground_state() -> np.ndarray:
    """|g><g| as a density matrix."""
    return np.diag([0.0, 1.0]).astype(complex)


def random_density_matrix(rng: np.random.Generator, dim: int = 2, size: tuple = ()) -> np.ndarray:
    """Random full-rank state A A^dag / Tr(A A^dag) with Gaussian A, or a
    (*size, dim, dim) stack of them from two draws in all."""
    shape = (*size, dim, dim)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
