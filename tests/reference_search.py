"""One-restart-at-a-time Gauss-Newton isotropic search: the reference for the stacked one.

`perfect.numeric_isotropic_search` advances all restarts of a block
together. This module runs the same iteration one restart after
another, with one `np.linalg.lstsq` per step, so the tests can compare
verdicts and certificates against it.
"""

from __future__ import annotations

import numpy as np

from qdiscrim.linalg import as_complex_matrix
from qdiscrim.perfect import (
    METHOD_NUMERIC_SEARCH,
    STRATEGY_ENTANGLED,
    STRATEGY_PRODUCT,
    UNKNOWN,
    YES,
    PerfectVerdict,
    _LOSS_SUCCESS,
    _fix_phase,
)


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


def sequential_isotropic_search(ops, entangled: bool, seed: int = 0,
                                restarts: int = 16) -> PerfectVerdict:
    """`numeric_isotropic_search`, one restart after another."""
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
