import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdiscrim.errors import InvalidDistribution, NotFinite, NotHermitian, NotUnitary
from qdiscrim.linalg import (
    hermitian_eig,
    hermiticity_defect,
    hull_contains_origin,
    hull_origin_weights,
    require_distribution,
    require_unitary,
    trace_norm_hermitian,
)


def eig2x2_closed_form(a):
    """Independent oracle: eigenvalues of a 2x2 Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    mean = (a[0, 0].real + a[1, 1].real) / 2.0
    radius = np.hypot((a[0, 0].real - a[1, 1].real) / 2.0, abs(a[0, 1]))
    return mean + radius, mean - radius


def test_eig_identity():
    res = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0])


def test_eig_diagonal_sigma_z():
    res = hermitian_eig(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(res.eigenvalues, [1.0, -1.0])
    np.testing.assert_allclose(res.eigenvectors, np.eye(2), atol=1e-15)


def test_eig_sigma_y_matches_closed_form():
    sigma_y = np.array([[0.0, 1j], [-1j, 0.0]])
    res = hermitian_eig(sigma_y)
    np.testing.assert_allclose(res.eigenvalues, eig2x2_closed_form(sigma_y), atol=1e-12)


def test_eig_random_reconstruction_and_orthonormality(rng):
    for n in (2, 3, 4, 9, 16):
        for _ in range(10):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (z + z.conj().T) / 2.0
            res = hermitian_eig(h)
            assert np.all(np.diff(res.eigenvalues) <= 1e-12)
            q = res.eigenvectors
            np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-10)
            rebuilt = q @ np.diag(res.eigenvalues) @ q.conj().T
            assert np.linalg.norm(rebuilt - h) < 1e-9


def test_eig_deterministic_and_phase_convention(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (z + z.conj().T) / 2.0
    first = hermitian_eig(h)
    second = hermitian_eig(h)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(4):
        col = first.eigenvectors[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert pivot.real > 0.0 and abs(pivot.imag) < 1e-12


@st.composite
def hermitian_matrices(draw):
    """Real symmetric or complex Hermitian matrices of size 1 to 16, entries in [-1, 1]."""
    n = draw(st.integers(1, 16))
    entries = arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
    z = draw(entries) + (1j * draw(entries) if draw(st.booleans()) else 0.0)
    return (z + z.conj().T) / 2.0


@settings(deadline=None)
@given(hermitian_matrices())
def test_eig_contract_property(h):
    n = h.shape[0]
    res = hermitian_eig(h)
    vals, q = res.eigenvalues, res.eigenvectors
    assert np.all(np.diff(vals) <= 0.0)
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-12
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.max(np.abs(q @ np.diag(vals) @ q.conj().T - h)) <= 1e-12 * scale
    for j in range(n):
        pivot = q[np.flatnonzero(np.abs(q[:, j]) > 1e-12)[0], j]
        assert pivot.real > 0.0 and abs(pivot.imag) <= 1e-12
    again = hermitian_eig(h)
    assert np.array_equal(again.eigenvalues, vals) and np.array_equal(again.eigenvectors, q)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0


def test_eig_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFinite):
            hermitian_eig(np.array([[1.0, 0.0], [0.0, bad]]))


def test_require_unitary_checks_finiteness_first():
    np.testing.assert_array_equal(require_unitary(np.eye(2), "u"), np.eye(2))
    # A NaN defect fails the `defect > tol` test, so NaN passed as unitary.
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFinite, match=r"u must be finite; entry \[1, 0\]"):
            require_unitary(np.array([[1.0, 0.0], [bad, 1.0]]), "u")
    with pytest.raises(NotUnitary):
        require_unitary(np.diag([1.0, 2.0]), "u")


def test_require_distribution_checks_in_order():
    np.testing.assert_array_equal(require_distribution([0.25, 0.75], 2, "q"), [0.25, 0.75])
    # Shape comes first, then finiteness, then sign and sum.
    with pytest.raises(InvalidDistribution, match="expected 3 q"):
        require_distribution([np.nan, -1.0], 3, "q")
    with pytest.raises(NotFinite):
        require_distribution([np.nan, -1.0], 2, "q")
    with pytest.raises(InvalidDistribution, match="nonnegative"):
        require_distribution([-0.5, 1.5], 2, "q")
    with pytest.raises(InvalidDistribution, match="sum to"):
        require_distribution([0.5, 0.5 + 1e-11], 2, "q")


def test_trace_norm_trivial_cases():
    assert trace_norm_hermitian(np.zeros((2, 2))) == 0.0
    assert trace_norm_hermitian(np.diag([0.5, -0.5])) == pytest.approx(1.0)


def test_trace_norm_projector_difference():
    ket0 = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    diff = 0.5 * (np.outer(ket0, ket0) - np.outer(plus, plus))
    expected = sum(abs(v) for v in eig2x2_closed_form(diff))
    assert expected == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
    assert trace_norm_hermitian(diff) == pytest.approx(expected, abs=1e-12)


def test_trace_norm_equals_singular_values(rng):
    for _ in range(50):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (z + z.conj().T) / 2.0
        singulars = np.sqrt(np.linalg.eigvalsh(h.conj().T @ h))
        assert abs(trace_norm_hermitian(h) - singulars.sum()) < 1e-9


def convex_grid_hits_origin(points, steps=400):
    """Independent oracle: scan convex combinations of point pairs."""
    points = np.asarray(points, dtype=complex)
    weights = np.linspace(0.0, 1.0, steps)
    resolution = 2.0 * np.max(np.abs(points)) / steps
    for i in range(len(points)):
        for j in range(len(points)):
            if np.min(np.abs(weights * points[i] + (1 - weights) * points[j])) < resolution:
                return True
    return False


@pytest.mark.parametrize("points,expected", [
    ([1, 1j, -1, -1j], True),
    ([1, 1j], False),
    ([1j, -1j], True),
    ([1.0], False),
    ([0.0], True),
    ([1, 1, 1j], False),
    # Three points on one ray, all at least 0.84 from the origin.
    (np.exp(0.3j) * np.array([0.87054205, 1.72103134, 0.84075928]), False),
    # The chord across the empty half-plane misses 0 by 3e-10, but the edges
    # through the point near 0 pass within 1e-10 of it.
    ([1 + 3e-10j, -1 + 3e-10j, 1.05e-10 * np.exp(1j * np.pi / 3)], True),
    ([1 + 3e-10j, -1 + 3e-10j], False),
])
def test_hull_contains_origin(points, expected):
    assert hull_contains_origin(points) is expected


@st.composite
def point_sets(draw):
    """1 to 9 complex points, with repeats and antipodes, scaled by 1e-6 to 1e3."""
    base = draw(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                            allow_infinity=False), min_size=1, max_size=9))
    stretch = draw(st.floats(0.1, 10.0))
    pool = base + [-stretch * z for z in base]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    return scale * np.array([pool[k] for k in picks], dtype=complex)


@settings(deadline=None)
@given(point_sets())
def test_hull_origin_weights_certify_or_separate(pts):
    found = hull_origin_weights(pts)
    if found is not None:
        indices, weights = found
        assert len(set(indices)) == len(indices) <= 3
        assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
        assert abs(weights @ pts[indices]) <= 2e-10 * max(1.0, float(np.max(np.abs(pts))))
        return
    angles = np.sort(np.angle(pts))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    away = -np.exp(1j * (angles[widest] + gaps[widest] / 2.0))
    assert np.all((away.conjugate() * pts).real > 0.0)


def test_hull_segment_matches_grid_oracle():
    assert convex_grid_hits_origin([1j, -1j])
    assert not convex_grid_hits_origin([1, 1j])


def test_hull_invariant_under_global_phase(rng):
    for _ in range(50):
        pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert hull_contains_origin(pts) == hull_contains_origin(phase * pts)
