"""Deciders for perfect (zero-error) distinguishability of two channels.

Two channels are perfectly distinguishable exactly when the cross
operators E_i^(1)dag E_j^(2) (tensored with the identity for entangled
probes) share a vector on which all their expectation values vanish.
No efficient exact test is known in general, so this module stratifies:
unitary pairs, single-qubit product probes and generalized Pauli
channels are decided exactly, and a seeded numeric search covers the
rest with verdicts restricted to {yes, unknown}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    GpcChannel,
    KrausChannel,
    PAULIS,
    bloch_to_ket,
    characteristic_vector,
    maximally_entangled,
)
from .errors import BasisMismatch, DimensionMismatch
from .linalg import as_complex_matrix, hermitian_eig, hull_origin_weights, require_unitary

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

STRATEGY_PRODUCT = "product"
STRATEGY_ENTANGLED = "entangled"

METHOD_UNITARY_POLYGON = "unitary_polygon"
METHOD_GPC_ORTHOGONALITY = "gpc_orthogonality"
METHOD_QUBIT_BLOCH = "qubit_bloch_exhaustion"
METHOD_NUMERIC_SEARCH = "numeric_search"

_RANK_TOL = 1e-10
_LOSS_SUCCESS = 1e-16
_CHAR_ORTHOGONALITY_TOL = 1e-12


@dataclass(eq=False)
class PerfectVerdict:
    """Decision record: verdict, strategy, optional certificate state."""

    distinguishable: str
    strategy: str
    certificate: np.ndarray | None
    method: str


def _fix_phase(psi: np.ndarray) -> np.ndarray:
    """Normalize and fix the global phase.

    The first component of largest magnitude is made real positive so
    certificates are reproducible.
    """
    psi = psi / np.linalg.norm(psi)
    pivot = psi[int(np.argmax(np.abs(psi)))]
    return psi * (np.conj(pivot) / abs(pivot))


def cross_operators(e1: KrausChannel, e2: KrausChannel) -> list[np.ndarray]:
    """All products E_i^(1)dag E_j^(2) in row-major (i, j) order."""
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"channel dimensions differ: {e1.dim} vs {e2.dim}")
    return [a.conj().T @ b for a in e1.ops for b in e2.ops]


def _normal_eigensystem(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a normal matrix.

    Diagonalizes the Hermitian part, then re-diagonalizes the
    anti-Hermitian part inside each degenerate eigenspace; the two parts
    commute for normal w, so the result is a joint eigenbasis.
    """
    h_re = (w + w.conj().T) / 2.0
    h_im = (w - w.conj().T) / 2j
    res = hermitian_eig(h_re)
    vecs = res.eigenvectors.copy()
    values = res.eigenvalues
    start = 0
    n = len(values)
    while start < n:
        stop = start + 1
        while stop < n and abs(values[stop] - values[start]) < 1e-8:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = block.conj().T @ h_im @ block
            rot = hermitian_eig((sub + sub.conj().T) / 2.0).eigenvectors
            vecs[:, start:stop] = block @ rot
        start = stop
    eigvals = np.array([vecs[:, j].conj() @ w @ vecs[:, j] for j in range(n)])
    return eigvals, vecs


def unitary_perfect(u1, u2) -> PerfectVerdict:
    """Polygon criterion for two unitaries.

    Perfect discrimination is possible iff the convex hull of the
    eigenvalues of U1^dag U2 contains the origin; the certificate mixes
    the matching eigenvectors with the convex weights.
    """
    u1 = as_complex_matrix(u1)
    u2 = as_complex_matrix(u2)
    if u1.shape != u2.shape:
        raise DimensionMismatch(f"unitary dimensions differ: {u1.shape[0]} vs {u2.shape[0]}")
    for u in (u1, u2):
        require_unitary(u, "matrix")
    w = u1.conj().T @ u2
    mus, vecs = _normal_eigensystem(w)
    found = hull_origin_weights(mus)
    if found is None:
        return PerfectVerdict(NO, STRATEGY_PRODUCT, None, METHOD_UNITARY_POLYGON)
    indices, weights = found
    psi = np.zeros(u1.shape[0], dtype=complex)
    for idx, weight in zip(indices, weights):
        psi += np.sqrt(weight) * vecs[:, idx]
    return PerfectVerdict(YES, STRATEGY_PRODUCT, _fix_phase(psi), METHOD_UNITARY_POLYGON)


def qubit_product_perfect(e1: KrausChannel, e2: KrausChannel) -> PerfectVerdict:
    """Exact decision for single-qubit channels and product probes.

    Each cross operator K imposes <psi|K|psi> = 0, which in Bloch form is
    the affine-linear condition Tr(K)/2 + sum_k Tr(K sigma_k)/2 r_k = 0
    (two real equations).  The joint linear system is intersected with
    the unit sphere.
    """
    if e1.dim != 2 or e2.dim != 2:
        raise DimensionMismatch("product-probe decision implemented for qubit channels only")
    rows = []
    rhs = []
    for op in cross_operators(e1, e2):
        const = complex(np.trace(op)) / 2.0
        coeffs = [complex(np.trace(op @ sigma)) / 2.0 for sigma in PAULIS[1:]]
        rows.append([z.real for z in coeffs])
        rhs.append(const.real)
        rows.append([z.imag for z in coeffs])
        rhs.append(const.imag)
    g = np.array(rows)
    h = np.array(rhs)

    # Rank comes from the singular values of g itself: squaring them into
    # Gram eigenvalues would lift a rounding-level null value of ~1e-17
    # to ~3e-9 after the square root, above the rank tolerance.
    left, sing, right = np.linalg.svd(g)
    keep = np.zeros(3, dtype=bool)
    keep[:sing.size] = sing > _RANK_TOL
    r0 = np.zeros(3)
    for i in np.flatnonzero(keep):
        r0 -= (left[:, i] @ h / sing[i]) * right[i]
    if float(np.max(np.abs(g @ r0 + h))) > _RANK_TOL:
        return PerfectVerdict(NO, STRATEGY_PRODUCT, None, METHOD_QUBIT_BLOCH)

    null_dims = np.flatnonzero(~keep)
    base_norm = float(np.linalg.norm(r0))
    if null_dims.size == 0:
        if abs(base_norm - 1.0) > _RANK_TOL:
            return PerfectVerdict(NO, STRATEGY_PRODUCT, None, METHOD_QUBIT_BLOCH)
        r = r0 / base_norm
    else:
        if base_norm > 1.0 + _RANK_TOL:
            return PerfectVerdict(NO, STRATEGY_PRODUCT, None, METHOD_QUBIT_BLOCH)
        spare = np.sqrt(max(0.0, 1.0 - base_norm * base_norm))
        r = r0 + spare * right[null_dims[0]]
        r = r / np.linalg.norm(r)
    psi = _fix_phase(bloch_to_ket(r))
    return PerfectVerdict(YES, STRATEGY_PRODUCT, psi, METHOD_QUBIT_BLOCH)


def gpc_perfect_entangled(g1: GpcChannel, g2: GpcChannel) -> PerfectVerdict:
    """Entangled-probe decision for two generalized Pauli channels.

    Perfect discrimination is possible iff the characteristic vectors
    (sqrt(q_n)) are orthogonal, in which case any maximally entangled
    state works as the probe.
    """
    if g1.d != g2.d:
        raise DimensionMismatch(f"channel dimensions differ: {g1.d} vs {g2.d}")
    if float(np.max(np.abs(g1.basis - g2.basis))) > 1e-9:
        raise BasisMismatch("channels are defined over different unitary bases")
    overlap = float(characteristic_vector(g1) @ characteristic_vector(g2))
    if overlap < _CHAR_ORTHOGONALITY_TOL:
        return PerfectVerdict(YES, STRATEGY_ENTANGLED, maximally_entangled(g1.d),
                              METHOD_GPC_ORTHOGONALITY)
    return PerfectVerdict(NO, STRATEGY_ENTANGLED, None, METHOD_GPC_ORTHOGONALITY)


def _expectations(stack: np.ndarray, psi: np.ndarray
                  ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """<psi|K_m|psi>, the loss sum |<psi|K_m|psi>|^2, K_m psi and K_m^dag psi."""
    expectations = np.einsum("i,mij,j->m", psi.conj(), stack, psi)
    loss = float(np.sum(np.abs(expectations) ** 2))
    forward = stack @ psi
    backward = np.einsum("mji,j->mi", stack.conj(), psi)
    return expectations, loss, forward, backward


def _gauss_newton(stack: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """At most 12 Gauss-Newton steps on the residuals (Re, Im of each expectation).

    Each step solves the linearised residuals in the least-squares sense
    and renormalises psi.  Returns the final iterate if it improved on
    the start, else the start.
    """
    dim = psi.size
    start = psi
    expectations, loss, forward, backward = _expectations(stack, psi)
    start_loss = loss
    for _ in range(12):
        if loss < _LOSS_SUCCESS * 1e-4:
            break
        plus = backward.conj() + forward
        minus = backward.conj() - forward
        jac = np.block([[plus.real, -minus.imag], [plus.imag, minus.real]])
        resid = np.concatenate([expectations.real, expectations.imag])
        update, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        cand = psi + update[:dim] + 1j * update[dim:]
        norm = float(np.linalg.norm(cand))
        if not np.isfinite(norm) or norm < 1e-300:
            break
        psi = cand / norm
        expectations, loss, forward, backward = _expectations(stack, psi)
    if loss < start_loss:
        return psi, loss
    return start, start_loss


def numeric_isotropic_search(ops, entangled: bool, seed: int = 0,
                             restarts: int = 16) -> PerfectVerdict:
    """Seeded search for a joint isotropic vector of the given operators.

    Minimizes sum |<psi|K|psi>|^2 over unit psi (operators tensored with
    the identity when entangled) by Gauss-Newton iteration from each of
    `restarts` independent seeded starts.
    Returns yes with a certificate when the loss drops below 1e-16 and
    unknown otherwise; it never returns no.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    mats = [as_complex_matrix(op) for op in ops]
    if entangled:
        dim = mats[0].shape[0]
        mats = [np.kron(op, np.eye(dim)) for op in mats]
    stack = np.stack(mats)
    dim = stack.shape[1]
    strategy = STRATEGY_ENTANGLED if entangled else STRATEGY_PRODUCT
    for index in range(restarts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))
        raw = rng.standard_normal(2 * dim)
        psi = raw[0::2] + 1j * raw[1::2]
        psi = psi / np.linalg.norm(psi)
        psi, loss = _gauss_newton(stack, psi)
        if loss < _LOSS_SUCCESS:
            return PerfectVerdict(YES, strategy, _fix_phase(psi), METHOD_NUMERIC_SEARCH)
    return PerfectVerdict(UNKNOWN, strategy, None, METHOD_NUMERIC_SEARCH)
