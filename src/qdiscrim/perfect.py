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
from .linalg import (
    as_complex_matrix,
    hermitian_eig,
    hull_origin_weights,
    require_finite,
    require_unitary,
)

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
# Restarts advanced together by the numeric search: the default `restarts`.
# A larger `restarts` runs in blocks of this size, which bounds the memory.
_RESTART_BLOCK = 16
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
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of psi (R, dim): <psi|K_m|psi>, the loss sum_m |<psi|K_m|psi>|^2,
    K_m psi and (K_m^dag psi)^*."""
    forward = np.einsum("mij,rj->rmi", stack, psi)
    backward_conj = np.einsum("rj,mji->rmi", psi.conj(), stack)
    expectations = np.einsum("ri,rmi->rm", psi.conj(), forward)
    loss = np.sum(np.abs(expectations) ** 2, axis=1)
    return expectations, loss, forward, backward_conj


def _gauss_newton(stack: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At most 12 Gauss-Newton steps on each row's residuals (Re, Im of each expectation).

    The rows of psi (R, dim) advance in lockstep.  Each step solves every
    live row's linearised residuals for the minimum-norm least-squares
    update, from one stacked SVD, and renormalises the row.  A row
    freezes once its loss is below 1e-20 or its update has a non-finite
    or vanishing norm.  Rows after the first frozen row that succeeded
    freeze with it, since the search reads only that row.  Returns, per
    row, the final iterate if it improved on the start, else the start.
    """
    dim = psi.shape[1]
    start = psi
    expectations, loss, forward, backward_conj = _expectations(stack, psi)
    start_loss = loss
    psi, loss = psi.copy(), loss.copy()
    live = np.ones(len(psi), dtype=bool)
    for _ in range(12):
        live &= loss >= _LOSS_SUCCESS * 1e-4
        succeeded = np.flatnonzero(~live & (np.minimum(loss, start_loss) < _LOSS_SUCCESS))
        if succeeded.size:
            live[succeeded[0]:] = False
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        plus = backward_conj[rows] + forward[rows]
        minus = backward_conj[rows] - forward[rows]
        jac = np.concatenate([np.concatenate([plus.real, -minus.imag], axis=2),
                              np.concatenate([plus.imag, minus.real], axis=2)], axis=1)
        resid = np.concatenate([expectations[rows].real, expectations[rows].imag], axis=1)
        # Minimum-norm solution with lstsq's default cutoff: singular values
        # up to eps * max(jac.shape) * s_max count as zero.
        left, sing, right = np.linalg.svd(jac, full_matrices=False)
        cutoff = np.finfo(float).eps * max(jac.shape[1:]) * sing[:, :1]
        inverse = np.divide(1.0, sing, out=np.zeros_like(sing), where=sing > cutoff)
        coeffs = np.einsum("rmk,rm->rk", left, -resid) * inverse
        update = np.einsum("rkj,rk->rj", right, coeffs)
        cand = psi[rows] + update[:, :dim] + 1j * update[:, dim:]
        norm = np.linalg.norm(cand, axis=1)
        moved = np.isfinite(norm) & (norm >= 1e-300)
        live[rows[~moved]] = False
        rows = rows[moved]
        psi[rows] = cand[moved] / norm[moved, None]
        (expectations[rows], loss[rows], forward[rows],
         backward_conj[rows]) = _expectations(stack, psi[rows])
    improved = loss < start_loss
    return np.where(improved[:, None], psi, start), np.where(improved, loss, start_loss)


def numeric_isotropic_search(ops, entangled: bool, seed: int = 0,
                             restarts: int = 16) -> PerfectVerdict:
    """Seeded search for a joint isotropic vector of the given operators.

    Minimizes sum |<psi|K|psi>|^2 over unit psi (operators tensored with
    the identity when entangled) by Gauss-Newton iteration from each of
    `restarts` independent seeded starts.  The restarts run as one
    stacked iteration, in blocks of 16 taken in index order, and the
    first successful restart in index order gives the certificate.
    Returns yes with a certificate when the loss drops below 1e-16 and
    unknown otherwise; it never returns no.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    stack = require_finite(np.stack([as_complex_matrix(op) for op in ops]), "operators")
    if entangled:
        stack = np.stack([np.kron(op, np.eye(stack.shape[1])) for op in stack])
    dim = stack.shape[1]
    strategy = STRATEGY_ENTANGLED if entangled else STRATEGY_PRODUCT
    for first in range(0, restarts, _RESTART_BLOCK):
        starts = []
        for index in range(first, min(first + _RESTART_BLOCK, restarts)):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))
            raw = rng.standard_normal(2 * dim)
            psi = raw[0::2] + 1j * raw[1::2]
            starts.append(psi / np.linalg.norm(psi))
        psi, loss = _gauss_newton(stack, np.stack(starts))
        succeeded = np.flatnonzero(loss < _LOSS_SUCCESS)
        if succeeded.size:
            return PerfectVerdict(YES, strategy, _fix_phase(psi[succeeded[0]]), METHOD_NUMERIC_SEARCH)
    return PerfectVerdict(UNKNOWN, strategy, None, METHOD_NUMERIC_SEARCH)
