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


def gibbs_state(energies, beta: float) -> np.ndarray:
    """Thermal equilibrium state diag(p_k) with p_k proportional to exp(-beta E_k).

    beta is the inverse temperature (>= 0); math.inf selects the zero
    temperature limit, where all weight sits on the lowest level (split
    evenly across degenerate minima).  Negative beta is rejected: negative
    bath temperatures are out of scope.
    """
    if beta < 0:
        raise ValueError(f"negative inverse temperature beta={beta} not supported")
    energies = np.asarray(energies, dtype=float)
    if math.isinf(beta):
        weights = (energies == energies.min()).astype(float)
    else:
        # shift by the minimum before exponentiating to avoid overflow; a
        # beta * E beyond the float range is -inf, and its weight 0
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (energies - energies.min()))
    rho = np.diag(weights / weights.sum()).astype(complex)
    validate_density_matrix(rho, "gibbs_state output")
    return rho


def qubit_thermal_state(omega: float, temperature: float) -> np.ndarray:
    """Gibbs state of a qubit with level splitting omega (energies +-omega/2)."""
    if omega <= 0:
        raise ValueError(f"qubit frequency must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"negative temperature {temperature} not supported")
    beta = math.inf if temperature == 0 else 1.0 / temperature
    return gibbs_state((omega / 2.0, -omega / 2.0), beta)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace a 4x4 two-qubit density matrix down to the kept qubit.

    keep="system" keeps the first tensor factor, keep="ancilla" the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "system":
        return np.einsum("ijkj->ik", r)
    if keep == "ancilla":
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 'system' or 'ancilla', got {keep!r}")


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
    """Check Hermiticity, unit trace and positivity; return rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name}: not a square matrix, shape {rho.shape}")
    if rho.shape[0] not in (2, 4):
        raise ValueError(f"{name}: dimension {rho.shape[0]} not supported (2 or 4)")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"{name}: not Hermitian, max |rho - rho^dag| = {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name}: trace {tr} differs from 1 by more than 1e-12")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{name}: negative eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}")
    return rho


def ground_state() -> np.ndarray:
    """|g><g| as a density matrix."""
    return np.diag([0.0, 1.0]).astype(complex)


def random_density_matrix(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank state A A^dag / Tr(A A^dag) with Gaussian A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
