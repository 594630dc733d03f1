"""Qubit states in Bloch and density-matrix form, and channels applied to them directly.

The library works on Bloch matrices (M, c) and Kraus operators only.
These are the definitions the tests check that machinery against: the
Bloch-vector / density-matrix correspondence, the Helstrom trace norm
of two qubit states in Bloch form, and the evolution of a state through
a channel's operator sum or its affine Bloch action.
"""

from __future__ import annotations

import numpy as np

from qdiscrim import linalg
from qdiscrim.channels import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    AffineChannel,
    KrausChannel,
)
from qdiscrim.discrim import PriorPair
from qdiscrim.errors import DimensionMismatch

BLOCH_NORM_TOL = 1e-12


def as_bloch(r) -> np.ndarray:
    """Return r as a float array, or raise if it is not a Bloch vector.

    Checks, in this order: shape (3,) (ValueError), finite entries
    (NotFinite) and a norm at most 1 + 1e-12 (ValueError).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"expected a real 3-vector, got shape {r.shape}")
    linalg.require_finite(r, "Bloch vector")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return r


def bloch_to_density(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 of the Bloch vector r."""
    r = as_bloch(r)
    return (PAULI_I + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2.0


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = linalg.as_complex_matrix(rho)
    smallest = linalg.hermitian_eig(rho).eigenvalues[-1]
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"density matrix has trace {trace}, expected 1")
    if smallest < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
    return rho


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector r_k = Tr(sigma_k rho) of a qubit density matrix."""
    rho = validate_density(rho)
    if rho.shape[0] != 2:
        raise DimensionMismatch(f"Bloch vectors require dimension 2, got {rho.shape[0]}")
    return np.array([float(np.trace(sigma @ rho).real) for sigma in PAULIS[1:]])


def helstrom_trace_norm(r1, r2, priors: PriorPair) -> float:
    """||p1 rho1 - p2 rho2||_1 for qubit states with Bloch vectors r1, r2.

    Equals max{|p1 - p2|, ||p1 r1 - p2 r2||}; the Bloch form avoids any
    eigenvalue computation.
    """
    r1, r2 = as_bloch(r1), as_bloch(r2)
    return max(priors.bias, float(np.linalg.norm(priors.p1 * r1 - priors.p2 * r2)))


def apply_kraus(channel: KrausChannel, rho) -> np.ndarray:
    """Evolve a matrix through the operator sum sum_i E_i rho E_i^dagger."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("kij,jl,kml->im", channel.ops, rho, channel.ops.conj())


def apply_affine(channel: AffineChannel, r) -> np.ndarray:
    """Bloch vector m r + c of the image of the state with Bloch vector r."""
    return channel.m @ np.asarray(r, dtype=float) + channel.c
