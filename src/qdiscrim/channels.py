"""Qubit states and channel representations.

Covers Kraus (operator-sum) channels, their affine Bloch-ball action
r -> M r + c and the conversion between the two, the six standard named
qubit channels, and mixtures of trace-orthogonal unitaries (Pauli
channels and their qudit generalization).
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import (
    BasisNotOrthogonal,
    BasisNotPauli,
    BlochBallViolation,
    DimensionMismatch,
    NotTracePreserving,
    ParamOutOfRange,
    UnknownName,
    UnsupportedDimension,
)
from .sphereopt import coerce_affine

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
_PAULI_STACK = np.stack(PAULIS)

COMPLETENESS_TOL = 1e-9
_CHOI_TOL = 1e-9
# Row 4i + j is sigma_j^T (x) sigma_i / 2, so T.ravel() @ _CHOI_BASIS is the Choi matrix.
# The rows are orthonormal, so conj(_CHOI_BASIS) @ choi.ravel() gives T.ravel() back.
_CHOI_BASIS = np.stack([np.kron(sj.T, si) for si in PAULIS for sj in PAULIS]).reshape(16, 16) / 2.0


def bloch_to_ket(r) -> np.ndarray:
    """Ket cos(theta/2)|0> + e^(i phi) sin(theta/2)|1> with the unit Bloch vector r."""
    theta = np.arccos(np.clip(r[2], -1.0, 1.0))
    phi = np.arctan2(r[1], r[0])
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)])


def maximally_entangled(d: int) -> np.ndarray:
    """The state sum_k |k>|k> / sqrt(d) as a d^2 vector."""
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return psi


class KrausChannel:
    """Trace-preserving operator-sum map rho -> sum_i E_i rho E_i^dagger."""

    def __init__(self, ops):
        arr = np.array(ops, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] == 0 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a nonempty stack of square operators, got shape {arr.shape}")
        linalg.require_finite(arr, "Kraus operators")
        stacked = arr.reshape(-1, arr.shape[2])  # the operators one above the other
        completeness = stacked.conj().T @ stacked
        defect = float(np.max(np.abs(completeness - np.eye(arr.shape[1]))))
        if defect > COMPLETENESS_TOL:
            raise NotTracePreserving(f"sum E^dag E deviates from identity by {defect:.3e}")
        self.ops = arr
        self.dim = int(arr.shape[1])


def _choi_matrix(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij T_ij sigma_j^T (x) sigma_i / 2 of r -> m r + c, T = [[1, 0], [c, m]]."""
    transfer = np.zeros((4, 4))
    transfer[0, 0] = 1.0
    transfer[1:, 0] = c
    transfer[1:, 1:] = m
    return (transfer.ravel() @ _CHOI_BASIS).reshape(4, 4)


class AffineChannel:
    """Bloch-ball action r -> m r + c of a qubit channel.

    The map is accepted when it is completely positive: its Choi matrix has
    no eigenvalue below -1e-9 (Ruskai, Szarek & Werner 2002).  Such a map
    sends the ball into itself.
    """

    def __init__(self, m, c=None):
        m, c = coerce_affine(m, c)
        smallest = float(np.linalg.eigvalsh(_choi_matrix(m, c))[0])
        if smallest < -_CHOI_TOL:
            raise BlochBallViolation(
                f"map is not completely positive: its Choi matrix has eigenvalue {smallest:.3e}")
        self.m = m
        self.c = c


def kraus_to_affine(ch: KrausChannel) -> AffineChannel:
    """Affine Bloch representation (M, c) computed from the operator sum.

    M_kl = Tr(sigma_k sum_i E_i sigma_l E_i^dag) / 2 and
    c_k = Tr(sigma_k sum_i E_i E_i^dag) / 2.
    """
    if ch.dim != 2:
        raise DimensionMismatch(f"affine Bloch form requires dimension 2, got {ch.dim}")
    # Row 2i + a is column a of E_i, so cols^dag cols is the conjugate of the
    # Choi matrix, and _CHOI_BASIS takes it to the conjugate of the real T.
    cols = ch.ops.transpose(0, 2, 1).reshape(-1, 4)
    transfer = (_CHOI_BASIS @ (cols.conj().T @ cols).ravel()).real.reshape(4, 4)
    return AffineChannel(transfer[1:, 1:], transfer[1:, 0])


def affine_to_kraus(aff: AffineChannel) -> KrausChannel:
    """Kraus operators sqrt(lambda_k) unvec(v_k) read off the Choi matrix (Choi 1975).

    Eigenvalues up to 1e-12 are rounding: their ~1e-8 operators would pass
    the deciders' 1e-10 rank tests.  Dropping them moves S = sum K^dag K off
    the identity by up to the -1e-9 Choi tolerance, hence the S^(-1/2).
    """
    evals, evecs = np.linalg.eigh(_choi_matrix(aff.m, aff.c))
    keep = evals > 1e-12
    # Block a of the eigenvector v is column a of K: v = sum_a |a> (x) K|a>.
    ops = (np.sqrt(evals[keep]) * evecs[:, keep]).T.reshape(-1, 2, 2).swapaxes(1, 2)
    w, u = np.linalg.eigh(np.einsum("kij,kil->jl", ops.conj(), ops))
    return KrausChannel(ops @ (u / np.sqrt(w)) @ u.conj().T)


_NAMED_CHANNELS = ("bit_flip", "phase_flip", "bit_phase_flip",
                   "depolarizing", "phase_damping", "amplitude_damping")


def named_channel(name: str, param: float) -> KrausChannel:
    """Standard single-qubit channel by name, with parameter in [0, 1]."""
    if name not in _NAMED_CHANNELS:
        raise UnknownName(f"unknown channel {name!r}; choose from {_NAMED_CHANNELS}")
    real = (int, float, np.integer, np.floating)
    if isinstance(param, bool) or not isinstance(param, real) or not 0.0 <= param <= 1.0:
        raise ParamOutOfRange(f"channel parameter must be a number in [0, 1], got {param!r}")
    # A float32 or float16 param would keep its precision through np.sqrt, and
    # the Kraus operators would then fail the 1e-9 completeness check.
    p = float(param)
    if name == "bit_flip":
        ops = [np.sqrt(p) * PAULI_I, np.sqrt(1.0 - p) * PAULI_X]
    elif name == "phase_flip":
        ops = [np.sqrt(p) * PAULI_I, np.sqrt(1.0 - p) * PAULI_Z]
    elif name == "bit_phase_flip":
        ops = [np.sqrt(p) * PAULI_I, np.sqrt(1.0 - p) * PAULI_Y]
    elif name == "depolarizing":
        ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * PAULI_I,
               np.sqrt(p / 4.0) * PAULI_X,
               np.sqrt(p / 4.0) * PAULI_Y,
               np.sqrt(p / 4.0) * PAULI_Z]
    elif name == "phase_damping":
        ops = [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex),
               np.array([[0.0, 0.0], [0.0, np.sqrt(p)]], dtype=complex)]
    else:  # amplitude_damping
        ops = [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex),
               np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)]
    return KrausChannel(ops)


def gpc_basis(d: int) -> list[np.ndarray]:
    """Shift/clock unitary basis X^a Z^b with Tr(U^dag U') = d * delta.

    X|k> = |k+1 mod d>, Z|k> = w^k |k> with w = exp(2 pi i / d).  For
    d = 2 this reproduces the Pauli set up to global phase.
    """
    if not 2 <= d <= 4:
        raise UnsupportedDimension(f"basis defined for 2 <= d <= 4, got {d}")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for b in range(d) for a in range(d)]


@functools.lru_cache(maxsize=16)
def _check_basis(d: int, data: bytes) -> None:
    """Raise unless the d^2 stacked d x d matrices in data are trace-orthogonal unitaries.

    Keyed by the bytes, so each distinct basis is checked once per process;
    a failed check raises and is not cached.
    """
    stack = np.frombuffer(data, dtype=complex).reshape(d * d, d, d)
    for u in stack:
        linalg.require_unitary(u, "basis element")
    flat = stack.reshape(d * d, -1)
    gram = flat.conj() @ flat.T
    if float(np.max(np.abs(gram - d * np.eye(d * d)))) > 1e-9:
        raise BasisNotOrthogonal("basis is not trace-orthogonal: Tr(U_m^dag U_n) != d delta_mn")


class GpcChannel:
    """Mixture of trace-orthogonal unitaries rho -> sum_n q_n U_n rho U_n^dag."""

    def __init__(self, d: int, q, basis):
        if d < 2:
            raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
        q = linalg.require_distribution(q, d * d, "probabilities q")
        ops = [linalg.as_complex_matrix(u) for u in basis]
        if len(ops) != d * d or any(u.shape != (d, d) for u in ops):
            raise ValueError(f"basis must hold {d * d} unitaries of dimension {d}")
        stack = np.stack(ops)
        _check_basis(int(d), stack.tobytes())
        self.d = int(d)
        self.q = q
        self.basis = stack


def pauli_channel(q) -> GpcChannel:
    """Qubit Pauli channel sum_i q_i sigma_i rho sigma_i."""
    return GpcChannel(2, q, _PAULI_STACK)


def gpc_channel(d: int, q) -> GpcChannel:
    """Generalized Pauli channel over the shift/clock basis of dimension d."""
    return GpcChannel(d, q, gpc_basis(d))


def pauli_to_affine(g: GpcChannel) -> AffineChannel:
    """Diagonal Bloch action diag(2(q0+q1)-1, 2(q0+q2)-1, 2(q0+q3)-1) of a Pauli channel."""
    if g.d != 2:
        raise DimensionMismatch(f"Pauli form requires dimension 2, got {g.d}")
    if float(np.max(np.abs(g.basis - _PAULI_STACK))) > 1e-9:
        raise BasisNotPauli("channel basis is not (I, X, Y, Z)")
    deltas = np.array([2.0 * (g.q[0] + g.q[i]) - 1.0 for i in (1, 2, 3)])
    return AffineChannel(np.diag(deltas), np.zeros(3))


def characteristic_vector(g: GpcChannel) -> np.ndarray:
    """Unit vector (sqrt(q_0), ..., sqrt(q_{d^2-1})) identifying the channel."""
    return np.sqrt(g.q)


def gpc_to_kraus(g: GpcChannel) -> KrausChannel:
    """Operator-sum elements {sqrt(q_n) U_n} of a generalized Pauli channel."""
    return KrausChannel(np.sqrt(g.q)[:, None, None] * g.basis)
