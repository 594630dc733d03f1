"""Dense linear algebra for small complex matrices.

Everything here targets operators of dimension <= 16 (qubits, qudits up
to d = 4 and their pairwise tensor products).  The eigensolver is
LAPACK's, behind a fixed sort and phase convention that makes its
output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistribution, NotFinite, NotHermitian, NotUnitary

HERMITIAN_TOL = 1e-9
UNITARY_TOL = 1e-9
DISTRIBUTION_SUM_TOL = 1e-12

_PHASE_TOL = 1e-12
_HULL_DIST_TOL = 1e-10
_HULL_DEDUP_TOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix (copy)."""
    mat = np.array(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def hermiticity_defect(a) -> float:
    """Largest absolute entry of a - a^dagger."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Spectrum of a Hermitian matrix; eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j pairs with eigenvalues[j]


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return arr unchanged, or raise NotFinite if it holds a NaN or an infinity.

    Tolerance checks of the form `x > tol` are false for NaN, so every
    numeric input is passed through here before it is validated.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NotFinite(f"{what} must be finite; entry {list(index)} is {arr[index]}")
    return arr


def require_distribution(q, size: int, what: str) -> np.ndarray:
    """Return q as a float array, or raise if it is not a probability vector.

    Checks, in this order: shape (size,) (InvalidDistribution), finite
    entries (NotFinite), nonnegative entries and a sum within 1e-12 of 1
    (both InvalidDistribution).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (size,):
        raise InvalidDistribution(f"expected {size} {what}, got shape {q.shape}")
    require_finite(q, what)
    if np.any(q < 0.0):
        raise InvalidDistribution(f"{what} must be nonnegative")
    total = float(np.sum(q))
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        raise InvalidDistribution(f"{what} sum to {total}, expected 1")
    return q


def require_unitary(u: np.ndarray, what: str) -> np.ndarray:
    """Return the square matrix u unchanged, or raise NotUnitary."""
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > UNITARY_TOL:
        raise NotUnitary(f"{what} deviates from unitary by {defect:.3e}")
    return u


def hermitian_eig(a) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The solve runs on the symmetrised matrix (a + a^dagger) / 2.
    Eigenvalues are returned in descending order, by a stable sort; each
    eigenvector is phased so its first component of magnitude > 1e-12 is
    real positive.  Identical input gives identical output on a given
    numpy/BLAS build.
    """
    mat = require_finite(as_complex_matrix(a), "matrix")
    defect = hermiticity_defect(mat)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {defect:.3e}")
    evals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]
    # A unit column always has a component above 1e-12, so every pivot exists.
    first = np.argmax(np.abs(vecs) > _PHASE_TOL, axis=0)
    pivots = vecs[first, np.arange(vecs.shape[1])]
    return EigenResult(evals, vecs * (pivots.conj() / np.abs(pivots)))


def trace_norm_hermitian(a) -> float:
    """Trace norm of a Hermitian matrix: sum of |eigenvalues|."""
    return float(np.sum(np.abs(hermitian_eig(a).eigenvalues)))


def _dedup_points(xy: np.ndarray) -> np.ndarray:
    kept: list[np.ndarray] = []
    for point in xy:
        if not any(np.hypot(*(point - other)) < _HULL_DEDUP_TOL for other in kept):
            kept.append(point)
    return np.array(kept)


def _monotone_chain(xy: np.ndarray) -> np.ndarray:
    pts = sorted(map(tuple, xy))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple] = []
    for point in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], point) <= 0:
            lower.pop()
        lower.append(point)
    upper: list[tuple] = []
    for point in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], point) <= 0:
            upper.pop()
        upper.append(point)
    return np.array(lower[:-1] + upper[:-1])


def _point_segment_distance(a: np.ndarray, b: np.ndarray) -> float:
    seg = b - a
    seg_len2 = seg @ seg
    if seg_len2 == 0.0:
        return float(np.hypot(*a))
    t = min(1.0, max(0.0, -(a @ seg) / seg_len2))
    return float(np.hypot(*(a + t * seg)))


def hull_contains_origin(points) -> bool:
    """True iff 0 lies in the convex hull of the given complex points.

    Boundary counts as contained, with tolerance 1e-10 on signed
    distances to the hull edges.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    xy = _dedup_points(np.column_stack([pts.real, pts.imag]))
    if len(xy) == 1:
        return float(np.hypot(*xy[0])) <= _HULL_DIST_TOL
    hull = _monotone_chain(xy)
    if len(hull) <= 2:
        # Degenerate (collinear) hull: treat as the extreme segment.
        lo = min(map(tuple, xy))
        hi = max(map(tuple, xy))
        return _point_segment_distance(np.array(lo), np.array(hi)) <= _HULL_DIST_TOL
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        edge = b - a
        cross = edge[0] * (-a[1]) - edge[1] * (-a[0])
        if cross / np.hypot(*edge) < -_HULL_DIST_TOL:
            return False
    return True
