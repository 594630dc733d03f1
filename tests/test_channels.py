import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdiscrim.channels import (
    AffineChannel,
    GpcChannel,
    KrausChannel,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    affine_to_kraus,
    bloch_to_density,
    density_to_bloch,
    gpc_basis,
    gpc_channel,
    gpc_to_kraus,
    characteristic_vector,
    kraus_to_affine,
    named_channel,
    pauli_channel,
    pauli_to_affine,
    validate_density,
)
from qdiscrim.errors import (
    BasisNotOrthogonal,
    BasisNotPauli,
    BlochBallViolation,
    DimensionMismatch,
    InvalidDistribution,
    NotFinite,
    NotHermitian,
    NotTracePreserving,
    NotUnitary,
    ParamOutOfRange,
    UnknownName,
    UnsupportedDimension,
)
from qdiscrim.sphereopt import fibonacci_sphere, maximize_on_sphere


def test_bloch_to_density_poles_and_mixed():
    np.testing.assert_allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(bloch_to_density([0, 0, 0]), np.eye(2) / 2.0)
    np.testing.assert_allclose(bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5))


def test_bloch_to_density_rejects_long_vectors():
    with pytest.raises(ValueError):
        bloch_to_density([1.0, 1.0, 0.0])
    # A NaN fails every norm test and would give an all-NaN matrix.
    with pytest.raises(NotFinite):
        bloch_to_density([np.nan, 0.0, 0.0])


def test_validate_density_checks_in_order():
    np.testing.assert_allclose(validate_density(np.eye(2) / 2.0), np.eye(2) / 2.0)
    # Hermiticity is checked before the trace.
    with pytest.raises(NotHermitian):
        validate_density(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotFinite):
        validate_density(np.diag([np.inf, 0.0]))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(np.diag([1.5, -0.5]))


def test_density_to_bloch_examples():
    np.testing.assert_allclose(density_to_bloch(np.eye(2) / 2.0), [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(density_to_bloch(np.diag([0.0, 1.0])), [0, 0, -1])
    rho = (PAULI_I + 0.6 * PAULI_X + 0.8 * PAULI_Z) / 2.0
    np.testing.assert_allclose(density_to_bloch(rho), [0.6, 0.0, 0.8], atol=1e-15)
    with pytest.raises(DimensionMismatch):
        density_to_bloch(np.eye(3) / 3.0)


def test_bloch_round_trip(rng):
    for _ in range(200):
        r = rng.standard_normal(3)
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
        np.testing.assert_allclose(density_to_bloch(bloch_to_density(r)), r, atol=1e-12)


def test_kraus_channel_rejects_incomplete_sets():
    with pytest.raises(NotTracePreserving):
        KrausChannel([0.5 * PAULI_I])


def test_kraus_to_affine_identity_and_sigma_x():
    ident = kraus_to_affine(KrausChannel([PAULI_I]))
    np.testing.assert_allclose(ident.m, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(ident.c, np.zeros(3), atol=1e-15)
    conj_x = kraus_to_affine(KrausChannel([PAULI_X]))
    np.testing.assert_allclose(conj_x.m, np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_kraus_vs_direct_evolution(rng):
    # Affine action must match density-matrix evolution on pure states.
    from conftest import random_kraus_channel
    samples = fibonacci_sphere(200)
    for _ in range(10):
        ch = random_kraus_channel(rng)
        aff = kraus_to_affine(ch)
        for r in samples[::20]:
            evolved = density_to_bloch(ch.apply(bloch_to_density(r)))
            np.testing.assert_allclose(evolved, aff.apply(r), atol=1e-9)


def _affine_by_apply(apply):
    """Reference (M, c) from the definition, one apply and one trace per entry."""
    m = np.array([[np.trace(PAULIS[k] @ apply(PAULIS[l])).real / 2.0 for l in (1, 2, 3)]
                  for k in (1, 2, 3)])
    c = np.array([np.trace(PAULIS[k] @ apply(PAULI_I)).real / 2.0 for k in (1, 2, 3)])
    return m, c


@st.composite
def kraus_channels(draw):
    """1 to 4 qubit operators with entries in [-1, 1], made trace preserving."""
    k = draw(st.integers(1, 4))
    entries = arrays(np.float64, (k, 2, 2), elements=st.floats(-1.0, 1.0))
    raw = draw(entries) + 1j * draw(entries)
    gram = np.einsum("kij,kil->jl", raw.conj(), raw)
    evals, evecs = np.linalg.eigh(gram)
    assume(evals[0] > 1e-3)
    return KrausChannel(raw @ (evecs @ np.diag(evals ** -0.5) @ evecs.conj().T))


@settings(deadline=None)
@given(kraus_channels())
def test_kraus_to_affine_matches_apply_definition(ch):
    aff = kraus_to_affine(ch)
    m, c = _affine_by_apply(ch.apply)
    assert np.max(np.abs(aff.m - m)) <= 1e-14
    assert np.max(np.abs(aff.c - c)) <= 1e-14


_EQ14_LINES = {
    # name -> (diag of M as function of parameter, offset)
    "bit_flip": lambda p: ([1.0, 2 * p - 1, 2 * p - 1], [0, 0, 0]),
    "phase_flip": lambda p: ([2 * p - 1, 2 * p - 1, 1.0], [0, 0, 0]),
    "bit_phase_flip": lambda p: ([2 * p - 1, 1.0, 2 * p - 1], [0, 0, 0]),
    "depolarizing": lambda p: ([1 - p, 1 - p, 1 - p], [0, 0, 0]),
    "phase_damping": lambda p: ([np.sqrt(1 - p), np.sqrt(1 - p), 1.0], [0, 0, 0]),
    "amplitude_damping": lambda p: ([np.sqrt(1 - p), np.sqrt(1 - p), 1 - p], [0, 0, p]),
}


@pytest.mark.parametrize("name", sorted(_EQ14_LINES))
@pytest.mark.parametrize("param", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_named_channel_affine_table(name, param):
    aff = kraus_to_affine(named_channel(name, param))
    diag, offset = _EQ14_LINES[name](param)
    np.testing.assert_allclose(aff.m, np.diag(diag), atol=1e-12)
    np.testing.assert_allclose(aff.c, offset, atol=1e-12)


def test_named_channel_kraus_vs_affine_on_samples():
    for name in _EQ14_LINES:
        ch = named_channel(name, 0.3)
        aff = kraus_to_affine(ch)
        for r in fibonacci_sphere(200):
            evolved = density_to_bloch(ch.apply(bloch_to_density(r)))
            np.testing.assert_allclose(evolved, aff.apply(r), atol=1e-9)


def test_named_channel_rejections():
    with pytest.raises(UnknownName):
        named_channel("shear", 0.5)
    for param in (1.2, np.nan, None, "0.5", True):
        with pytest.raises(ParamOutOfRange, match="must be a number in"):
            named_channel("bit_flip", param)
    named_channel("bit_flip", np.float64(0.5))


@pytest.mark.parametrize("name", ["bit_flip", "phase_flip", "bit_phase_flip",
                                  "depolarizing", "phase_damping", "amplitude_damping"])
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_named_channel_accepts_narrow_float_params(name, dtype):
    for value in (0.0, 0.3, 0.5, 0.7, 1.0):
        param = dtype(value)
        got = named_channel(name, param)
        want = named_channel(name, float(param))
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, want.ops, strict=True))


def test_affine_channel_rejects_expanding_maps():
    with pytest.raises(BlochBallViolation):
        AffineChannel(1.5 * np.eye(3))
    with pytest.raises(BlochBallViolation):
        AffineChannel(np.eye(3), [0.0, 0.0, 0.5])


# About 0.17 rad from the nearest point of fibonacci_sphere(200).
_UNSAMPLED = np.array([-0.021, 0.383, -0.924])


@pytest.mark.parametrize("m", [
    np.diag([1.0, -1.0, 1.0]),  # the transpose map
    -np.eye(3),
    # Reach 1.0145, but at most 0.99993 on the 200 points a sampled ball check used.
    1.0145 * np.outer([1.0, 0.0, 0.0], _UNSAMPLED / np.linalg.norm(_UNSAMPLED)),
])
def test_affine_channel_rejects_maps_that_are_not_completely_positive(m):
    with pytest.raises(BlochBallViolation, match="not completely positive"):
        AffineChannel(m)


def _choi_by_definition(m, c):
    """sum_ab |a><b| (x) Phi(|a><b|), with Phi(X) = (Tr X I + (m r_X + Tr X c) . sigma) / 2."""
    choi = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            x = np.zeros((2, 2))
            x[a, b] = 1.0
            r = np.array([np.trace(sigma @ x) for sigma in PAULIS[1:]])
            out = m @ r + np.trace(x) * c
            image = (np.trace(x) * PAULI_I + sum(o * sigma for o, sigma in zip(out, PAULIS[1:]))) / 2
            choi += np.kron(x, image)
    return choi


def _check_choi_verdict(m, c) -> bool:
    """AffineChannel accepts (m, c) exactly when the Choi matrix by definition is PSD;
    an accepted map reaches at most radius 1 and has Kraus operators that give back (m, c)."""
    choi = _choi_by_definition(m, c)
    evals, evecs = np.linalg.eigh(choi)
    try:
        AffineChannel(m, c)
    except BlochBallViolation:
        assert evals[0] < -1e-9
        return False
    assert evals[0] >= -1e-9
    assert maximize_on_sphere(m, c).value <= 1.0 + 1e-9
    # Column a of K is block a of the eigenvector: v = sum_a |a> (x) K|a>.
    ops = [np.sqrt(max(lam, 0.0)) * v.reshape(2, 2).T for lam, v in zip(evals, evecs.T)]
    m_back, c_back = _affine_by_apply(lambda rho: sum(k @ rho @ k.conj().T for k in ops))
    assert np.max(np.abs(m_back - m)) <= 1e-9
    assert np.max(np.abs(c_back - c)) <= 1e-9
    return True


@settings(deadline=None)
@given(kraus_channels(), arrays(np.float64, (3, 4), elements=st.floats(-1.0, 1.0)),
       st.floats(0.0, 1.5))
def test_choi_check_accepts_exactly_the_qubit_channels(ch, entries, scale):
    aff = kraus_to_affine(ch)
    assert _check_choi_verdict(aff.m, aff.c)
    _check_choi_verdict(scale * entries[:, :3], scale * entries[:, 3])


_IDENTITY_ENTRIES = np.hstack([np.eye(3), np.zeros((3, 1))])


@settings(deadline=None)
@given(kraus_channels(), arrays(np.float64, (3, 4), elements=st.floats(-1.0, 1.0)),
       st.sampled_from([0.0, 1e-10, 1e-9, 3e-9, 1e-3, 0.3, 1.0]))
# (1 + 1.99e-9) I has three Choi eigenvalues at -9.95e-10, inside the tolerance.
@example(named_channel("bit_flip", 1.0), _IDENTITY_ENTRIES, 1.99e-9)
@example(named_channel("bit_flip", 1.0), -_IDENTITY_ENTRIES, 1.99e-9)
def test_affine_to_kraus_reads_back_every_accepted_map(ch, noise, size):
    # A channel's map, pushed off it by up to `size`: near the CP boundary for small sizes.
    aff = kraus_to_affine(ch)
    m, c = aff.m + size * noise[:, :3], aff.c + size * noise[:, 3]
    try:
        aff = AffineChannel(m, c)
    except BlochBallViolation:
        return
    back = kraus_to_affine(affine_to_kraus(aff))
    assert np.max(np.abs(back.m - m)) <= 1e-8
    assert np.max(np.abs(back.c - c)) <= 1e-8


@settings(deadline=None)
@given(kraus_channels())
def test_affine_to_kraus_round_trip_is_exact_on_channels(ch):
    aff = kraus_to_affine(ch)
    back = kraus_to_affine(affine_to_kraus(aff))
    assert np.max(np.abs(back.m - aff.m)) <= 1e-12
    assert np.max(np.abs(back.c - aff.c)) <= 1e-12


def test_affine_to_kraus_reads_a_unitary_as_one_operator(rng):
    for _ in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = np.linalg.qr(z)[0]
        ops = affine_to_kraus(kraus_to_affine(KrausChannel([u]))).ops
        assert ops.shape == (1, 2, 2)
        # Equal to u up to a global phase.
        assert abs(abs(np.trace(u.conj().T @ ops[0])) - 2.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_channels_reject_non_finite_numbers(bad):
    m = np.diag([0.5, 0.5, 0.5])
    m[1, 2] = bad
    with pytest.raises(NotFinite, match=r"entry \[1, 2\]"):
        AffineChannel(m)
    with pytest.raises(NotFinite):
        AffineChannel(np.eye(3) * 0.5, [0.0, bad, 0.0])
    with pytest.raises(NotFinite):
        KrausChannel([np.array([[1.0, 0.0], [0.0, bad]])])
    with pytest.raises(NotFinite):
        pauli_channel([bad, 0.0, 0.0, 0.0])
    with pytest.raises(NotFinite):
        gpc_channel(3, [bad] + [0.0] * 8)


def test_pauli_to_affine_examples():
    np.testing.assert_allclose(pauli_to_affine(pauli_channel([1, 0, 0, 0])).m, np.eye(3))
    np.testing.assert_allclose(
        pauli_to_affine(pauli_channel([0, 0, 0, 1])).m, np.diag([-1.0, -1.0, 1.0]))
    np.testing.assert_allclose(
        pauli_to_affine(pauli_channel([0.25, 0.25, 0.25, 0.25])).m, np.zeros((3, 3)))


def test_pauli_to_affine_matches_kraus_route(rng):
    for _ in range(50):
        q = rng.dirichlet(np.ones(4))
        g = pauli_channel(q)
        direct = pauli_to_affine(g)
        via_kraus = kraus_to_affine(gpc_to_kraus(g))
        np.testing.assert_allclose(direct.m, via_kraus.m, atol=1e-12)
        np.testing.assert_allclose(direct.c, via_kraus.c, atol=1e-12)


def test_pauli_to_affine_rejects_other_bases():
    g = gpc_channel(2, [0.4, 0.3, 0.2, 0.1])  # shift/clock basis, not (I, X, Y, Z)
    with pytest.raises(BasisNotPauli):
        pauli_to_affine(g)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gpc_basis_trace_orthogonal(d):
    basis = gpc_basis(d)
    assert len(basis) == d * d
    stack = np.stack(basis)
    gram = np.einsum("mij,nij->mn", stack.conj(), stack)
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-9)


def test_gpc_basis_d2_is_pauli_up_to_phase():
    basis = gpc_basis(2)
    for u, sigma in zip(basis, (PAULI_I, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z)):
        np.testing.assert_allclose(u, sigma, atol=1e-15)
    assert abs(np.trace(basis[1].conj().T @ basis[2])) < 1e-12


def test_gpc_basis_rejects_bad_dimension():
    with pytest.raises(UnsupportedDimension):
        gpc_basis(5)


def test_gpc_channel_validation():
    with pytest.raises(InvalidDistribution):
        gpc_channel(2, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InvalidDistribution):
        gpc_channel(2, [0.5, 0.1, 0.1, 0.1])
    with pytest.raises(BasisNotOrthogonal):
        GpcChannel(2, [0.25] * 4, [PAULI_I, PAULI_I, PAULI_X, PAULI_Y])
    with pytest.raises(NotUnitary):
        GpcChannel(2, [0.25] * 4, [PAULI_I, PAULI_X, PAULI_Y, 2.0 * PAULI_Z])


def test_characteristic_vector_examples():
    np.testing.assert_allclose(characteristic_vector(pauli_channel([1, 0, 0, 0])), [1, 0, 0, 0])
    np.testing.assert_allclose(
        characteristic_vector(pauli_channel([0.5, 0.5, 0, 0])),
        [np.sqrt(0.5), np.sqrt(0.5), 0, 0])
    quarter = characteristic_vector(pauli_channel([0.25] * 4))
    np.testing.assert_allclose(quarter, [0.5] * 4)
    assert np.linalg.norm(quarter) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_gpc_unitality(rng, d):
    q = rng.dirichlet(np.ones(d * d))
    ch = gpc_to_kraus(gpc_channel(d, q))
    maximally_mixed = np.eye(d) / d
    np.testing.assert_allclose(ch.apply(maximally_mixed), maximally_mixed, atol=1e-9)
