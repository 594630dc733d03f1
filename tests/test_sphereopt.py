import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdiscrim.channels import AffineChannel
from qdiscrim.errors import NotFinite
from qdiscrim.sphereopt import fibonacci_sphere, grid_oracle, maximize_on_sphere


def test_fibonacci_sphere_points_are_unit():
    pts = fibonacci_sphere(500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # The grid is built once per n and shared, so no caller may write to it.
    again = fibonacci_sphere(500)
    assert again.tobytes() == pts.tobytes()
    with pytest.raises(ValueError):
        again[0, 0] = 2.0


def test_pure_operator_norm_case():
    # With c = 0 (a unital pair) the maximum is the largest singular value of m.
    res = maximize_on_sphere(np.diag([2.0, 1.0, 1.0]))
    assert res.value == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(res.argmax, [1.0, 0.0, 0.0], atol=1e-12)
    assert res.multiplier == pytest.approx(4.0, abs=1e-10)
    assert res.hard_case
    for m, expected in ((np.eye(3), 1.0), (np.diag([2.0, 1.0, 0.5]), 2.0), (np.ones((3, 3)), 3.0)):
        res = maximize_on_sphere(m, np.zeros(3))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.value == pytest.approx(np.linalg.norm(m, 2), abs=1e-12)
        assert abs(np.linalg.norm(m @ res.argmax) - res.value) < 1e-12


def test_zero_matrix_offset_only():
    res = maximize_on_sphere(np.zeros((3, 3)), [0.0, 0.0, 0.5])
    assert res.value == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(res.argmax, [0.0, 0.0, 1.0])
    res = maximize_on_sphere(np.zeros((3, 3)), np.zeros(3))
    assert res.value == 0.0
    np.testing.assert_allclose(res.argmax, [0.0, 0.0, 1.0])


def test_hard_case_with_transverse_offset():
    # f = 4x^2 + (y + 0.5)^2 + z^2 on the sphere peaks at sqrt(39)/3.
    res = maximize_on_sphere(np.diag([2.0, 1.0, 1.0]), [0.0, 0.5, 0.0])
    assert res.hard_case
    assert res.multiplier == pytest.approx(4.0, abs=1e-10)
    assert res.value == pytest.approx(np.sqrt(39.0) / 3.0, abs=1e-12)
    np.testing.assert_allclose(res.argmax, [np.sqrt(35.0) / 6.0, 1.0 / 6.0, 0.0], atol=1e-12)
    assert res.value == pytest.approx(grid_oracle(np.diag([2.0, 1.0, 1.0]), [0.0, 0.5, 0.0], 10000),
                                      abs=1e-6)


def test_colinear_alignment():
    res = maximize_on_sphere(np.eye(3), [1.0, 0.0, 0.0])
    assert res.value == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(res.argmax, [1.0, 0.0, 0.0], atol=1e-10)
    assert not res.hard_case


def test_result_invariants(rng):
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        c = rng.standard_normal(3) * rng.uniform(0.0, 1.5)
        res = maximize_on_sphere(m, c)
        assert abs(np.linalg.norm(res.argmax) - 1.0) < 1e-12
        assert abs(res.value - np.linalg.norm(m @ res.argmax + c)) < 1e-10
        stationarity = m.T @ (m @ res.argmax + c) - res.multiplier * res.argmax
        assert np.linalg.norm(stationarity) < 1e-8
        top = np.linalg.eigvalsh(m.T @ m)[-1]
        assert res.multiplier >= top - 1e-10


def _kkt_residual(m, c, res):
    return float(np.linalg.norm(m.T @ (m @ res.argmax + c) - res.multiplier * res.argmax))


def test_near_hard_case_keeps_kkt_residual():
    # The offset barely touches the top eigenspace, so the multiplier sits
    # within ~1e-11 of the top eigenvalue of m^T m.
    m = np.diag([1.0, 0.5, 0.5])
    for along_top in (5e-12, 3e-11, 1e-10, 1e-9):
        c = np.array([along_top, 0.3, 0.0])
        res = maximize_on_sphere(m, c)
        assert not res.hard_case
        assert _kkt_residual(m, c, res) < 1e-9
        assert abs(res.value - np.linalg.norm(m @ res.argmax + c)) < 1e-12


@settings(deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
def test_kkt_residual_property(m, c):
    res = maximize_on_sphere(m, c)
    assert abs(float(np.linalg.norm(res.argmax)) - 1.0) < 1e-12
    assert _kkt_residual(m, c, res) < 1e-9


def test_global_optimality_sampled(rng):
    for _ in range(500):
        m = rng.standard_normal((3, 3))
        c = rng.standard_normal(3)
        value = maximize_on_sphere(m, c).value
        probes = rng.standard_normal((10000, 3))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        assert value >= np.linalg.norm(probes @ m.T + c, axis=1).max() - 1e-9


def test_grid_oracle_examples():
    assert grid_oracle(np.diag([2.0, 1.0, 1.0]), None, 10000) == pytest.approx(2.0, abs=1e-6)
    assert grid_oracle(np.zeros((3, 3)), [0.0, 0.0, 0.5], 100) == 0.5
    with pytest.raises(ValueError):
        grid_oracle(np.eye(3), None, 50)


@pytest.mark.parametrize("solve", [maximize_on_sphere, grid_oracle])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_m_or_c_is_rejected_by_name(solve, bad):
    # A NaN max drops out of the grid's argmax and an inf offset gives inf,
    # so the grid returned a number; the solver blamed an internal "matrix".
    m = np.eye(3) * 0.5
    m[2, 0] = bad
    with pytest.raises(NotFinite, match=r"affine matrix m must be finite; entry \[2, 0\]"):
        solve(m, np.zeros(3))
    with pytest.raises(NotFinite, match=r"affine offset c must be finite; entry \[1\]"):
        solve(np.eye(3) * 0.5, [0.0, bad, 0.0])


@pytest.mark.parametrize("solve", [maximize_on_sphere, grid_oracle, AffineChannel])
def test_complex_m_or_c_is_rejected(solve):
    # The imaginary part was dropped with only a warning: the solver
    # returned 0.5 for a matrix whose largest singular value is 0.707.
    with pytest.raises(ValueError, match="expected a real 3x3 matrix"):
        solve(np.eye(3) * (0.5 + 0.5j), np.zeros(3))
    with pytest.raises(ValueError, match="expected a real 3-vector offset"):
        solve(np.eye(3) * 0.5, np.array([0.0, 0.1j, 0.0]))


def test_grid_oracle_deterministic():
    m = np.array([[0.3, -0.8, 0.1], [0.5, 0.2, -0.4], [0.0, 0.6, 0.7]])
    c = np.array([0.1, -0.2, 0.3])
    assert grid_oracle(m, c, 5000) == grid_oracle(m, c, 5000)


def test_oracle_agreement_quick(rng):
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        c = rng.standard_normal(3) * 0.8
        assert abs(maximize_on_sphere(m, c).value - grid_oracle(m, c, 100000)) < 1e-5


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_rotation_covariance(rng):
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        c = rng.standard_normal(3)
        rot_left = _random_rotation(rng)
        rot_right = _random_rotation(rng)
        base = maximize_on_sphere(m, c)
        moved = maximize_on_sphere(rot_left @ m @ rot_right, rot_left @ c)
        assert abs(base.value - moved.value) < 1e-10

        # argmax covariance only when the maximizer is unique
        pts = fibonacci_sphere(2000)
        vals = np.linalg.norm(pts @ m.T + c, axis=1)
        best = int(np.argmax(vals))
        far = pts @ pts[best] < np.cos(0.3)
        if far.any() and vals[best] - vals[far].max() > 1e-6:
            np.testing.assert_allclose(moved.argmax, rot_right.T @ base.argmax, atol=1e-6)
