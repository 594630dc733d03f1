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
    """Return the square matrix u unchanged, or raise NotFinite or NotUnitary."""
    require_finite(u, what)
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


def _nearest_on_segment(pts: np.ndarray, i: int, j: int) -> tuple[list[int], np.ndarray]:
    """Indices (i, j) and the convex weights of the point of [p_i, p_j] nearest to 0.

    For an antipodal pair the weights are |p_j|/(|p_i|+|p_j|) and
    |p_i|/(|p_i|+|p_j|), which sum the pair to 0.
    """
    p, seg = pts[i], pts[j] - pts[i]
    seg_len2 = abs(seg) ** 2
    t = 0.0 if seg_len2 == 0.0 else min(1.0, max(0.0, -(p.conjugate() * seg).real / seg_len2))
    return [i, j], np.array([1.0 - t, t])


def _residual(pts: np.ndarray, choice: tuple[list[int], np.ndarray]) -> float:
    indices, weights = choice
    return float(abs(weights @ pts[indices]))


def hull_origin_weights(points) -> tuple[list[int], np.ndarray] | None:
    """Convex weights on at most three of the points that sum to 0, or None.

    0 lies outside the convex hull exactly when the arguments of the
    points leave a gap wider than pi.  The hull still counts as holding 0
    when it passes within 1e-10 of it: through a point, or through the
    segment between two points that comes nearest.  Otherwise 0 lies in
    the triangle of the first point by argument and the two points whose
    arguments bracket its antipode, and the weights are the
    lowest-residual choice among that triangle and its edges.  Returns
    (indices, weights) with distinct indices, or None when 0 is outside.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    nearest = int(np.argmin(np.abs(pts)))
    if abs(pts[nearest]) <= _HULL_DIST_TOL:
        return [nearest], np.ones(1)
    angles = np.angle(pts)
    order = np.argsort(angles, kind="stable")
    gaps = np.diff(angles[order], append=angles[order[0]] + 2.0 * np.pi)
    if gaps.max() > np.pi:
        edges = [_nearest_on_segment(pts, i, j)
                 for i in range(pts.size) for j in range(i + 1, pts.size)]
        best = min(edges, key=lambda edge: _residual(pts, edge), default=None)
        return best if best is not None and _residual(pts, best) <= _HULL_DIST_TOL else None
    # The last point at most pi past the first one, and the next, with wrap-around.
    above = int(np.searchsorted(angles[order], angles[order[0]] + np.pi, side="right"))
    a, b, c = int(order[0]), int(order[above - 1]), int(order[above % pts.size])
    choices = [_nearest_on_segment(pts, i, j) for i, j in ((a, b), (b, c), (c, a)) if i != j]
    if len({a, b, c}) == 3:
        # Barycentric weights from the signed areas of the triangles with corner 0.
        areas = np.array([(pts[j].conjugate() * pts[k]).imag
                          for j, k in ((b, c), (c, a), (a, b))]).clip(0.0)
        if areas.sum() > 0.0:
            choices.append(([a, b, c], areas / areas.sum()))
    return min(choices, key=lambda choice: _residual(pts, choice))


def hull_contains_origin(points) -> bool:
    """True iff 0 lies in the convex hull of the given complex points.

    The boolean form of hull_origin_weights, with the same 1e-10 tolerance.
    """
    return hull_origin_weights(points) is not None
