import numpy as np
import pytest

from qdiscrim.channels import (
    KrausChannel,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    bloch_to_ket,
    gpc_to_kraus,
    kraus_to_affine,
    named_channel,
    pauli_channel,
)
from qdiscrim.discrim import (
    REGIME_MEASURE,
    PriorPair,
    min_error_probability,
    pauli_closed_form,
)
from qdiscrim.errors import DimensionMismatch, NotFinite, NotNormalized
from qdiscrim.linalg import trace_norm_hermitian
from qdiscrim.oracle import (
    _batched_errors,
    _haar_states,
    helstrom_error_at,
    sampled_min_error,
    simulate_experiment,
)
from reference_states import apply_kraus

HALF = PriorPair(0.5, 0.5)
IDENT = KrausChannel([PAULI_I])
FLIP = KrausChannel([PAULI_X])


def test_helstrom_error_at_examples():
    assert helstrom_error_at(IDENT, IDENT, HALF, [1, 0]) == pytest.approx(0.5)
    assert helstrom_error_at(IDENT, FLIP, HALF, [1, 0]) == pytest.approx(0.0, abs=1e-12)
    dep = named_channel("depolarizing", 1.0)
    for psi in ([1, 0], [0, 1], np.array([1, 1j]) / np.sqrt(2)):
        assert helstrom_error_at(IDENT, dep, HALF, psi) == pytest.approx(0.25, abs=1e-12)


def test_helstrom_error_at_validation():
    with pytest.raises(NotNormalized):
        helstrom_error_at(IDENT, FLIP, HALF, [1, 1])
    with pytest.raises(DimensionMismatch):
        helstrom_error_at(IDENT, FLIP, HALF, [1, 0, 0])


def test_non_finite_probe_is_rejected_by_name():
    # A NaN norm passes the norm test, and the simulation then ran on NaN outputs.
    for psi in ([np.nan, np.nan], [1.0, np.inf], [np.nan, 0.0, 0.0, 0.0]):
        with pytest.raises(NotFinite, match="input state psi"):
            simulate_experiment(IDENT, FLIP, HALF, psi, 100, 0)
        with pytest.raises(NotFinite, match="input state psi"):
            helstrom_error_at(IDENT, FLIP, HALF, psi)


def test_helstrom_error_at_bipartite_input():
    maxent = np.array([1, 0, 0, 1]) / np.sqrt(2)
    g1 = gpc_to_kraus(pauli_channel([1, 0, 0, 0]))
    g2 = gpc_to_kraus(pauli_channel([0, 0.2, 0.3, 0.5]))
    assert helstrom_error_at(g1, g2, HALF, maxent) < 1e-10


def test_batched_errors_match_single_calls(rng):
    from conftest import random_kraus_channel
    priors = PriorPair.from_p1(0.3)
    # Qubit product probes take the closed-form 2x2 trace norm, bipartite
    # probes (d = 2, 3) take eigvalsh.  A fixed probe is a batch of one, so
    # also check against the operator sum of E x I applied to |psi><psi|.
    for dim, size in ((2, 2), (2, 4), (3, 9)):
        e1, e2 = random_kraus_channel(rng, dim), random_kraus_channel(rng, dim)
        states = _haar_states(50, size, 17)
        batch = _batched_errors(e1, e2, priors, states)
        singles = [helstrom_error_at(e1, e2, priors, psi) for psi in states]
        np.testing.assert_allclose(batch, singles, atol=1e-12)
        ancilla = np.eye(size // dim)
        k1, k2 = (KrausChannel([np.kron(op, ancilla) for op in ch.ops]) for ch in (e1, e2))
        for psi, error in zip(states, batch):
            rho = np.outer(psi, psi.conj())
            diff = priors.p1 * apply_kraus(k1, rho) - priors.p2 * apply_kraus(k2, rho)
            assert abs(error - (1.0 - trace_norm_hermitian(diff)) / 2.0) < 1e-12
    # Edge cases of the closed form: the zero matrix, a traceless difference
    # (|+><+| - |-><-|) / 2 and a rank-one difference -0.4 |+><+|.
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    phase_flip = KrausChannel([PAULI_Z])
    for e2, p1, expected in ((IDENT, 0.5, 0.5), (phase_flip, 0.5, 0.0), (IDENT, 0.3, 0.3)):
        error = _batched_errors(IDENT, e2, PriorPair.from_p1(p1), plus[None])[0]
        assert abs(error - expected) < 1e-12


def test_haar_states_reproducible_and_prefix_stable():
    a = _haar_states(100, 2, 9)
    b = _haar_states(100, 2, 9)
    assert np.array_equal(a, b)
    # row i depends only on (seed, i), not on how many rows are drawn
    c = _haar_states(40, 2, 9)
    assert np.array_equal(a[:40], c)


def test_sampled_min_error_includes_axis_states():
    est = sampled_min_error(IDENT, FLIP, HALF, 10, False, 0)
    assert est.p_error_estimate == pytest.approx(0.0, abs=1e-12)
    assert est.samples == 16
    np.testing.assert_allclose(est.best_input, [1, 0])


def test_sampled_min_error_matches_pauli_closed_form():
    q1, q2 = [0.5, 0.5, 0, 0], [0.5, 0, 0.5, 0]
    est = sampled_min_error(gpc_to_kraus(pauli_channel(q1)), gpc_to_kraus(pauli_channel(q2)),
                            HALF, 10000, False, 42)
    expected = pauli_closed_form(q1, q2, HALF).p_error
    assert est.p_error_estimate == pytest.approx(expected, abs=2e-3)
    assert est.p_error_estimate >= expected - 1e-9


def test_sampled_min_error_entangled_hits_maxent_certificate():
    g1 = gpc_to_kraus(pauli_channel([1, 0, 0, 0]))
    g2 = gpc_to_kraus(pauli_channel([0, 0.2, 0.3, 0.5]))
    est = sampled_min_error(g1, g2, HALF, 50, True, 0)
    assert est.p_error_estimate < 1e-10
    assert est.entangled


def test_entangled_estimate_never_worse_than_product(rng):
    # product extras are embedded as psi (x) |0>, so the bound holds whenever
    # the product best input is one of the deterministic extras
    for _ in range(10):
        q1, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        e1, e2 = gpc_to_kraus(pauli_channel(q1)), gpc_to_kraus(pauli_channel(q2))
        product = sampled_min_error(e1, e2, HALF, 200, False, 1)
        entangled = sampled_min_error(e1, e2, HALF, 200, True, 1)
        assert entangled.p_error_estimate <= product.p_error_estimate + 1e-12


def test_sampled_min_error_upper_bounds_analytic(rng):
    from conftest import random_kraus_channel
    for _ in range(20):
        e1, e2 = random_kraus_channel(rng), random_kraus_channel(rng)
        analytic = min_error_probability(kraus_to_affine(e1), kraus_to_affine(e2), HALF)
        est = sampled_min_error(e1, e2, HALF, 2000, False, 5)
        assert 0.0 <= est.p_error_estimate <= 0.5 + 1e-12
        assert est.p_error_estimate >= analytic.p_error - 1e-9
        assert est.p_error_estimate <= analytic.p_error + 2e-2


def test_simulate_experiment_zero_error_channel():
    assert simulate_experiment(IDENT, FLIP, HALF, [1, 0], 1000, 3) == 0.0


def test_simulate_experiment_identical_channels():
    freq = simulate_experiment(IDENT, IDENT, HALF, [1, 0], 10000, 5)
    assert abs(freq - 0.5) <= 3.0 / (2.0 * np.sqrt(10000))


def test_simulate_experiment_depolarizing():
    dep = named_channel("depolarizing", 1.0)
    freq = simulate_experiment(IDENT, dep, HALF, [1, 0], 100000, 11)
    assert abs(freq - 0.25) <= 3.0 * np.sqrt(0.25 * 0.75 / 100000)


def test_simulate_experiment_reproducible():
    dep = named_channel("depolarizing", 0.6)
    runs = {simulate_experiment(IDENT, dep, HALF, [0, 1], 5000, 21) for _ in range(3)}
    assert len(runs) == 1


def test_simulate_matches_helstrom_at_optimum(rng):
    from conftest import random_kraus_channel
    checked = 0
    for _ in range(10):
        e1, e2 = random_kraus_channel(rng), random_kraus_channel(rng)
        res = min_error_probability(kraus_to_affine(e1), kraus_to_affine(e2), HALF)
        if res.regime != REGIME_MEASURE:
            continue
        psi = bloch_to_ket(res.optimal_bloch)
        reference = helstrom_error_at(e1, e2, HALF, psi)
        assert reference == pytest.approx(res.p_error, abs=1e-9)
        freq = simulate_experiment(e1, e2, HALF, psi, 100000, checked)
        sigma = np.sqrt(max(reference * (1 - reference), 1e-12) / 100000)
        assert abs(freq - reference) <= 4.0 * sigma
        checked += 1
    assert checked > 0
