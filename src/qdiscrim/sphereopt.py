"""Global maximization of ||m r + c|| over the unit sphere ||r|| = 1.

Stationary points of the Lagrangian satisfy (m^T m) r + m^T c = lam * r.
In the eigenbasis of A = m^T m (eigenvalues d1 >= d2 >= d3, coordinates
b = Q^T m^T c) this becomes r_i = b_i / (lam - d_i) together with the
secular equation sum_i b_i^2 / (lam - d_i)^2 = 1, and the global maximum
is the unique root with lam >= d1.  That one formula, over the nonzero
b_i, covers every case: when b has no component along the top
eigenspace (the hard case) and the other components alone stay inside
the sphere, the root is lam = d1 and the top eigenspace supplies the
missing norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_finite

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

_DEGENERACY_TOL = 1e-10
_HARD_CASE_TOL = 1e-12
_SECULAR_VALUE_TOL = 1e-13
_SECULAR_BRACKET_TOL = 1e-15
_SIGN_TOL = 1e-12


@functools.lru_cache(maxsize=4)
def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly equidistributed points on the unit sphere.

    Built once per n and shared by every caller, so the array is read-only.
    """
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = _GOLDEN_ANGLE * k
    pts = np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True, eq=False)
class SphereMaxResult:
    """Maximum of ||m r + c|| on the unit sphere with its certificate."""

    value: float
    argmax: np.ndarray
    multiplier: float
    hard_case: bool


def _real_array(x, what: str) -> np.ndarray:
    # np.asarray(..., dtype=float) would drop an imaginary part with only a warning.
    if np.iscomplexobj(x):
        raise ValueError(f"expected a real {what}, got complex entries")
    return np.asarray(x, dtype=float)


def coerce_affine(m, c) -> tuple[np.ndarray, np.ndarray]:
    """m as a finite real 3x3 matrix and c as a finite real 3-vector (zeros when c is None).

    Complex input and both shapes are checked (ValueError) before the
    entries (NotFinite).
    """
    m = _real_array(m, "3x3 matrix")
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    c = np.zeros(3) if c is None else _real_array(c, "3-vector offset")
    if c.shape != (3,):
        raise ValueError(f"expected a 3-vector offset, got shape {c.shape}")
    return require_finite(m, "affine matrix m"), require_finite(c, "affine offset c")


def _secular_root(gaps: np.ndarray, b: np.ndarray) -> float:
    """Unique root t > 0 of sum b_i^2 / (t + gaps_i)^2 = 1, with gaps_i = d[0] - d[i].

    The multiplier is lam = d[0] + t.  Solving for the shift t keeps its
    full relative precision when the root crowds the top eigenvalue.
    Safeguarded bisection-Newton: the function is convex decreasing on
    (0, inf), so Newton steps are kept inside a shrinking bracket.  The
    sums run over the (at most three) nonzero terms in plain floats.
    """
    terms = [(float(bi) ** 2, float(gap)) for bi, gap in zip(b, gaps) if bi != 0.0]

    def g(t: float) -> float:
        return sum(bsq / (t + gap) ** 2 for bsq, gap in terms)

    lo = 1e-14
    # The gaps are >= 0, so g(hi) <= ||b||^2 / hi^2 < 1: hi brackets the root.
    hi = math.sqrt(sum(bsq for bsq, _ in terms)) + 1.0
    if g(lo) < 1.0:
        return lo
    t = 0.5 * (lo + hi)
    for _ in range(200):
        h = g(t) - 1.0
        if abs(h) < _SECULAR_VALUE_TOL:
            break
        if h > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo < _SECULAR_BRACKET_TOL:
            break
        slope = sum(-2.0 * bsq / (t + gap) ** 3 for bsq, gap in terms)
        newton = t - h / slope if slope != 0.0 else t
        t = newton if lo < newton < hi else 0.5 * (lo + hi)
    return t


def maximize_on_sphere(m, c=None) -> SphereMaxResult:
    """Global maximum of ||m r + c|| over unit vectors r.

    Solves the secular equation exactly, by the one formula of the module
    docstring; in the hard case (offset orthogonal to the top eigenspace
    of m^T m) the missing norm may be supplied along the top eigenspace.
    The returned argmax follows a deterministic sign convention: whenever
    both signs achieve the maximum to a relative 1e-12, the first component
    of magnitude > 1e-12 is made positive.
    """
    m, c = coerce_affine(m, c)
    # m^T m is real symmetric and m is already checked, so LAPACK's real
    # eigh runs on it directly.  The stable sort keeps tied eigenvalues in
    # LAPACK's order.
    d, basis = np.linalg.eigh(m.T @ m)
    order = np.argsort(-d, kind="stable")
    d, basis = d[order], basis[:, order]
    b = basis.T @ (m.T @ c)
    # u = b / (t + gaps) is unchanged when d, b and t share one factor.  Dividing
    # them by a power of two is exact, and makes the tolerances below relative.
    scale = math.frexp(max(float(d[0]), *map(abs, b.tolist())))[1]
    d, b = np.ldexp(d, -scale), np.ldexp(b, -scale)
    gaps = d[0] - d

    top = gaps < _DEGENERACY_TOL
    hard = float(np.linalg.norm(b[top])) < _HARD_CASE_TOL
    if hard:
        b = np.where(top, 0.0, b)
    nonzero = b != 0.0
    # In the hard case the root may sit at t = 0, when the offset alone
    # stays inside the sphere; the top eigenspace then makes up the norm.
    stays_inside = hard and float(np.sum(b[nonzero] ** 2 / gaps[nonzero] ** 2)) < 1.0
    t = 0.0 if stays_inside else _secular_root(gaps, b)
    u = np.divide(b, t + gaps, out=np.zeros(3), where=nonzero)
    if stays_inside:
        # Oriented so the eigenvector's first component above 1e-12 is positive.
        fill = np.flatnonzero(top)[-1]
        lead = basis[np.argmax(np.abs(basis[:, fill]) > _SIGN_TOL), fill]
        u[fill] = math.copysign(math.sqrt(max(0.0, 1.0 - float(u @ u))), lead)
    r = basis @ u
    norm_r = float(np.linalg.norm(r))
    r = r / norm_r if norm_r > 0.0 else np.array([0.0, 0.0, 1.0])

    value = float(np.linalg.norm(m @ r + c))
    flipped = float(np.linalg.norm(m @ -r + c))
    if abs(flipped - value) <= _SIGN_TOL * value:
        nz = np.flatnonzero(np.abs(r) > _SIGN_TOL)
        if nz.size and r[nz[0]] < 0.0:
            r = -r
    return SphereMaxResult(value=value, argmax=r, multiplier=math.ldexp(float(d[0] + t), scale),
                           hard_case=bool(hard))


def _polish(m: np.ndarray, c: np.ndarray, r: np.ndarray) -> float:
    """||m r + c|| after up to 20 projected-gradient ascent steps from the unit vector r.

    The step adapts (doubled after a success, halved on backtracking), so
    the result is a deterministic function of (m, c, r).
    """
    best = float(np.linalg.norm(m @ r + c))
    gram = m.T @ m
    drift = m.T @ c
    step = 1.0
    for _ in range(20):
        grad = 2.0 * (gram @ r + drift)
        trial = step
        accepted = None
        for _ in range(60):
            cand = r + trial * grad
            norm_cand = float(np.linalg.norm(cand))
            if norm_cand > 1e-300:
                cand = cand / norm_cand
                val = float(np.linalg.norm(m @ cand + c))
                if val > best:
                    accepted = (cand, val, trial)
                    break
            trial /= 2.0
        if accepted is None:
            break
        r, best, used = accepted
        step = used * 2.0
    return best


def grid_oracle(m, c=None, n: int = 10000) -> float:
    """Sampled maximum of ||m r + c||, independent of the secular solver.

    Takes the best of n Fibonacci-sphere points and polishes it, and its
    antipode, by projected-gradient ascent, keeping the better of the two.
    With a small offset the maxima near +v and -v (v the top right
    singular vector of m) nearly tie, and the grid point may sit on the
    slope of the lower one.  The procedure is deterministic for fixed n.
    """
    m, c = coerce_affine(m, c)
    if n < 100:
        raise ValueError("grid oracle needs n >= 100 sample points")
    pts = fibonacci_sphere(n)
    vals = np.linalg.norm(pts @ m.T + c, axis=1)
    r = pts[int(np.argmax(vals))]
    return max(_polish(m, c, r), _polish(m, c, -r))
