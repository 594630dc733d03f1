import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim.channels import (
    KrausChannel,
    PAULI_I,
    PAULI_X,
    bloch_to_density,
    gpc_to_kraus,
    kraus_to_affine,
    named_channel,
    pauli_channel,
    pauli_to_affine,
)
from qdiscrim.discrim import (
    REGIME_GUESS_PRIOR,
    REGIME_MEASURE,
    DiscriminationResult,
    PriorPair,
    helstrom_trace_norm,
    min_error_probability,
    pauli_closed_form,
    pauli_sacchi_form,
)
from qdiscrim.errors import InvalidDistribution, NotFinite
from qdiscrim.linalg import trace_norm_hermitian

HALF = PriorPair(0.5, 0.5)


def test_prior_pair_validation():
    PriorPair.from_p1(0.3)
    with pytest.raises(InvalidDistribution):
        PriorPair(0.6, 0.6)
    with pytest.raises(InvalidDistribution):
        PriorPair(-0.1, 1.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFinite):
            PriorPair.from_p1(bad)


def test_helstrom_trace_norm_examples():
    assert helstrom_trace_norm([0, 0, 1], [0, 0, -1], HALF) == pytest.approx(1.0)
    assert helstrom_trace_norm([0, 0, 1], [0, 0, 1], HALF) == 0.0
    skew = PriorPair(0.9, 0.1)
    assert helstrom_trace_norm([0, 0, 1], [0, 0, 1], skew) == pytest.approx(0.8)
    # max(bias, nan) would silently return the bias.
    with pytest.raises(NotFinite):
        helstrom_trace_norm([np.nan, 0, 0], [0, 0, 1], HALF)


def test_helstrom_trace_norm_matches_operator_form(rng):
    # Bloch formula vs direct trace norm of p1 rho1 - p2 rho2.
    for _ in range(1000):
        r1, r2 = rng.standard_normal((2, 3))
        r1 *= rng.uniform(0, 1) / np.linalg.norm(r1)
        r2 *= rng.uniform(0, 1) / np.linalg.norm(r2)
        p1 = rng.uniform(0, 1)
        priors = PriorPair.from_p1(p1)
        direct = trace_norm_hermitian(
            priors.p1 * bloch_to_density(r1) - priors.p2 * bloch_to_density(r2))
        assert abs(helstrom_trace_norm(r1, r2, priors) - direct) < 1e-10


def test_identical_channels_guess_prior():
    ident = kraus_to_affine(KrausChannel([PAULI_I]))
    res = min_error_probability(ident, ident, HALF)
    assert res.p_error == pytest.approx(0.5)
    assert res.regime == REGIME_GUESS_PRIOR
    assert res.optimal_bloch is None


def test_identity_vs_depolarizing():
    ident = kraus_to_affine(KrausChannel([PAULI_I]))
    for p in (0.3, 0.7, 1.0):
        dep = kraus_to_affine(named_channel("depolarizing", p))
        res = min_error_probability(ident, dep, HALF)
        assert res.p_error == pytest.approx((1.0 - p / 2.0) / 2.0, abs=1e-12)
    res = min_error_probability(ident, kraus_to_affine(named_channel("depolarizing", 1.0)), HALF)
    assert res.p_error == pytest.approx(0.25, abs=1e-12)


def test_identity_vs_sigma_x_perfectly_distinguishable():
    ident = kraus_to_affine(KrausChannel([PAULI_I]))
    conj_x = kraus_to_affine(KrausChannel([PAULI_X]))
    res = min_error_probability(ident, conj_x, HALF)
    assert res.p_error == pytest.approx(0.0, abs=1e-12)
    assert res.regime == REGIME_MEASURE
    # optimal probe lies in the y-z great circle
    assert abs(res.optimal_bloch[0]) < 1e-10


def test_lopsided_priors_guess_regime(rng):
    priors = PriorPair(0.99, 0.01)
    from conftest import random_kraus_channel
    for _ in range(20):
        e1 = kraus_to_affine(random_kraus_channel(rng, n_ops=3))
        e2 = kraus_to_affine(random_kraus_channel(rng, n_ops=3))
        res = min_error_probability(e1, e2, priors)
        if res.regime == REGIME_GUESS_PRIOR:
            assert res.p_error == 0.01
            assert res.optimal_bloch is None


def test_result_invariants(rng):
    from conftest import random_kraus_channel
    for _ in range(100):
        e1 = kraus_to_affine(random_kraus_channel(rng))
        e2 = kraus_to_affine(random_kraus_channel(rng))
        priors = PriorPair.from_p1(rng.uniform(0, 1))
        res = min_error_probability(e1, e2, priors)
        assert -1e-12 <= res.p_error <= min(priors.p1, priors.p2) + 1e-12
        assert (res.optimal_bloch is None) == (res.regime == REGIME_GUESS_PRIOR)
        if res.regime == REGIME_MEASURE:
            assert res.p_error == pytest.approx((1 - res.trace_norm_at_opt) / 2, abs=1e-12)
        # symmetry under swapping channels and priors
        mirrored = min_error_probability(e2, e1, PriorPair(priors.p2, priors.p1))
        assert mirrored.p_error == res.p_error


def _random_pair_and_priors(seed, p1):
    from conftest import random_kraus_channel
    rng = np.random.default_rng(seed)
    return rng, random_kraus_channel(rng), random_kraus_channel(rng), PriorPair.from_p1(p1)


def _p_error(ops1, ops2, priors):
    e1, e2 = (kraus_to_affine(KrausChannel(ops)) for ops in (ops1, ops2))
    return min_error_probability(e1, e2, priors).p_error


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_unitary_covariance(seed, p1):
    # Conjugating both channels by one unitary U rotates the optimal probe and
    # measurement with it: P_E is unchanged.
    rng, e1, e2, priors = _random_pair_and_priors(seed, p1)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    conjugated = [u @ e.ops @ u.conj().T for e in (e1, e2)]
    assert abs(_p_error(*conjugated, priors) - _p_error(e1.ops, e2.ops, priors)) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_data_processing(seed, p1):
    # A common channel N after both cannot make them easier to tell apart.
    from conftest import random_kraus_channel
    rng, e1, e2, priors = _random_pair_and_priors(seed, p1)
    common = random_kraus_channel(rng).ops
    processed = [np.einsum("aij,bjk->abik", common, e.ops).reshape(-1, 2, 2) for e in (e1, e2)]
    assert _p_error(*processed, priors) >= _p_error(e1.ops, e2.ops, priors) - 1e-12


def test_pauli_closed_form_examples():
    # identity vs sigma_x: difference matrix diag(0, 1, 1), so the y and z
    # axes tie at C = 1 (an x probe is useless: sigma_x fixes |+>).
    res = pauli_closed_form([1, 0, 0, 0], [0, 1, 0, 0], HALF)
    assert res.p_error == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(res.optimal_bloch, [0, 1, 0])
    res = pauli_closed_form([0.5, 0.5, 0, 0], [0.5, 0, 0.5, 0], HALF)
    assert res.p_error == pytest.approx(0.25, abs=1e-15)
    res = pauli_closed_form([0.2, 0.3, 0.4, 0.1], [0.2, 0.3, 0.4, 0.1], HALF)
    assert res.p_error == pytest.approx(0.5)
    assert res.regime == REGIME_GUESS_PRIOR
    # NaN fails every tolerance test, so it must be rejected by name.
    with pytest.raises(NotFinite):
        pauli_closed_form([np.nan, 0, 0, 0], [1, 0, 0, 0], HALF)


def test_pauli_axis_tie_breaking():
    # identity vs sigma_z ties the x and y rows at 1; x wins.
    result = pauli_closed_form([1, 0, 0, 0], [0, 0, 0, 1], HALF)
    np.testing.assert_array_equal(result.optimal_bloch, [1.0, 0.0, 0.0])
    result = pauli_closed_form([1, 0, 0, 0], [1, 0, 0, 0], HALF)
    assert result.optimal_bloch is None


def test_pauli_sacchi_form_examples():
    assert pauli_sacchi_form([0.5, 0.5, 0, 0], [0.5, 0, 0.5, 0], HALF) == pytest.approx(0.25)
    assert pauli_sacchi_form([1, 0, 0, 0], [1, 0, 0, 0], HALF) == pytest.approx(0.5)
    assert pauli_sacchi_form([1, 0, 0, 0], [0, 0, 0, 1], HALF) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InvalidDistribution):
        pauli_sacchi_form([1, 0, 0], [1, 0, 0, 0], HALF)


probability_4_vectors = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) >= 1e-6).map(lambda w: np.array(w) / sum(w))


@given(probability_4_vectors, probability_4_vectors, st.floats(0.0, 1.0))
def test_pauli_forms_agree(q1, q2, p1):
    # pauli_sacchi_form is the pairwise-sum rewrite of pauli_closed_form.
    priors = PriorPair.from_p1(p1)
    closed = pauli_closed_form(q1, q2, priors)
    assert abs(closed.p_error - pauli_sacchi_form(q1, q2, priors)) <= 1e-12


def test_pauli_matches_sphere_optimizer(rng):
    for _ in range(100):
        q1, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        priors = PriorPair.from_p1(rng.uniform(0, 1))
        closed = pauli_closed_form(q1, q2, priors)
        general = min_error_probability(
            pauli_to_affine(pauli_channel(q1)), pauli_to_affine(pauli_channel(q2)), priors)
        assert abs(closed.p_error - general.p_error) < 1e-10


def test_pauli_consistency_with_kraus_route(rng):
    # Lemma-2 matrices against the operator-sum route end to end.
    for _ in range(20):
        q1, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        e1 = kraus_to_affine(gpc_to_kraus(pauli_channel(q1)))
        e2 = kraus_to_affine(gpc_to_kraus(pauli_channel(q2)))
        res = min_error_probability(e1, e2, HALF)
        assert abs(res.p_error - pauli_closed_form(q1, q2, HALF).p_error) < 1e-10
