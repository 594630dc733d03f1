import numpy as np
import pytest

from qdiscrim.channels import (
    KrausChannel,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    gpc_channel,
    gpc_to_kraus,
    maximally_entangled,
    pauli_channel,
)
from qdiscrim.discrim import PriorPair
from qdiscrim.errors import BasisMismatch, DimensionMismatch, NotFinite, NotUnitary
from qdiscrim.oracle import helstrom_error_at
from qdiscrim.perfect import (
    METHOD_GPC_ORTHOGONALITY,
    METHOD_NUMERIC_SEARCH,
    METHOD_QUBIT_BLOCH,
    METHOD_UNITARY_POLYGON,
    NO,
    UNKNOWN,
    YES,
    cross_operators,
    gpc_perfect_entangled,
    numeric_isotropic_search,
    qubit_product_perfect,
    unitary_perfect,
)

HALF = PriorPair(0.5, 0.5)


def _max_cross_term(e1, e2, psi):
    ops = cross_operators(e1, e2)
    if psi.size == e1.dim ** 2:
        eye = np.eye(e1.dim)
        ops = [np.kron(op, eye) for op in ops]
    return max(abs(psi.conj() @ op @ psi) for op in ops)


def _haar_unitary(rng, d=2):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_cross_operators_examples():
    ident = KrausChannel([PAULI_I])
    ops = cross_operators(ident, ident)
    assert len(ops) == 1
    np.testing.assert_allclose(ops[0], PAULI_I)
    ops = cross_operators(KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]))
    np.testing.assert_allclose(ops[0], PAULI_X @ PAULI_Z)
    mixed = KrausChannel([np.sqrt(0.5) * PAULI_I, np.sqrt(0.5) * PAULI_X])
    ops = cross_operators(mixed, KrausChannel([PAULI_Z]))
    np.testing.assert_allclose(ops[0], np.sqrt(0.5) * PAULI_Z)
    np.testing.assert_allclose(ops[1], np.sqrt(0.5) * PAULI_X @ PAULI_Z)


def test_unitary_perfect_sigma_x_vs_sigma_z():
    verdict = unitary_perfect(PAULI_X, PAULI_Z)
    assert verdict.distinguishable == YES
    assert verdict.method == METHOD_UNITARY_POLYGON
    assert abs(np.linalg.norm(verdict.certificate) - 1.0) < 1e-12
    w = PAULI_X.conj().T @ PAULI_Z
    assert abs(verdict.certificate.conj() @ w @ verdict.certificate) < 1e-8


def test_unitary_perfect_negative_cases():
    assert unitary_perfect(PAULI_I, PAULI_I).distinguishable == NO
    phase = np.diag([1.0, np.exp(1j * np.pi / 2)])
    assert unitary_perfect(PAULI_I, phase).distinguishable == NO
    # a half-turn makes the eigenvalue chord pass through the origin
    assert unitary_perfect(PAULI_I, PAULI_Z).distinguishable == YES


def test_unitary_perfect_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        unitary_perfect(0.5 * PAULI_I, PAULI_I)


def test_unitary_perfect_random_certificates(rng):
    hits = 0
    for _ in range(100):
        u1, u2 = _haar_unitary(rng, 3), _haar_unitary(rng, 3)
        verdict = unitary_perfect(u1, u2)
        if verdict.distinguishable == YES:
            hits += 1
            w = u1.conj().T @ u2
            assert abs(verdict.certificate.conj() @ w @ verdict.certificate) < 1e-8
    assert hits > 0


def _surrounding_spectrum(rng, d):
    """d phases whose convex hull holds 0: an antipodal pair, or no gap above pi."""
    if rng.uniform() < 0.5:
        angles = rng.uniform(0.0, 2.0 * np.pi, d)
        angles[1] = angles[0] + np.pi
        return angles
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, d))
        if np.max(np.diff(angles, append=angles[0] + 2.0 * np.pi)) < np.pi:
            return angles


def _assert_unitary_certificate(u1, u2):
    verdict = unitary_perfect(u1, u2)
    assert verdict.distinguishable == YES
    psi = verdict.certificate
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert abs(psi.conj() @ u1.conj().T @ u2 @ psi) < 1e-8


def test_unitary_perfect_certifies_surrounding_spectra(rng):
    for _ in range(200):
        u1, v = _haar_unitary(rng), _haar_unitary(rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        spectrum = np.exp(1j * np.array([angle, angle + np.pi]))
        _assert_unitary_certificate(u1, u1 @ v @ np.diag(spectrum) @ v.conj().T)
    for d in (3, 4):
        for _ in range(100):
            u1, v = _haar_unitary(rng, d), _haar_unitary(rng, d)
            spectrum = np.exp(1j * _surrounding_spectrum(rng, d))
            _assert_unitary_certificate(u1, u1 @ v @ np.diag(spectrum) @ v.conj().T)


def test_numeric_search_finds_every_unitary_polygon_yes(rng):
    yes = 0
    for d in (3, 4):
        for _ in range(30):
            u1, u2 = _haar_unitary(rng, d), _haar_unitary(rng, d)
            if unitary_perfect(u1, u2).distinguishable != YES:
                continue
            yes += 1
            w = u1.conj().T @ u2
            for entangled in (False, True):
                verdict = numeric_isotropic_search([w], entangled=entangled)
                assert verdict.distinguishable == YES
                op = np.kron(w, np.eye(d)) if entangled else w
                assert abs(verdict.certificate.conj() @ op @ verdict.certificate) < 1e-8
    assert yes > 10


def test_qubit_product_perfect_examples():
    verdict = qubit_product_perfect(KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]))
    assert verdict.distinguishable == YES
    assert verdict.method == METHOD_QUBIT_BLOCH
    assert _max_cross_term(KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]),
                           verdict.certificate) < 1e-8

    # mixture of all three Paulis vs identity forces r = 0: impossible
    mixed = gpc_to_kraus(pauli_channel([0.0, 0.2, 0.3, 0.5]))
    ident = KrausChannel([PAULI_I])
    assert qubit_product_perfect(mixed, ident).distinguishable == NO
    assert qubit_product_perfect(ident, ident).distinguishable == NO


def test_qubit_product_agrees_with_unitary_polygon(rng):
    for _ in range(200):
        u1, u2 = _haar_unitary(rng), _haar_unitary(rng)
        a = unitary_perfect(u1, u2).distinguishable
        b = qubit_product_perfect(KrausChannel([u1]), KrausChannel([u2])).distinguishable
        assert a == b


def test_qubit_product_perfect_antipodal_unitaries_as_kraus(rng):
    # U1^dag U2 with eigenvalues e^{ia} and -e^{ia} is perfectly distinguishable
    # with a product probe; its cross operator gives a rank-1 linear system.
    for _ in range(50):
        u1, v = _haar_unitary(rng), _haar_unitary(rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        u2 = u1 @ v @ np.diag(np.exp(1j * np.array([angle, angle + np.pi]))) @ v.conj().T
        e1, e2 = KrausChannel([u1]), KrausChannel([u2])
        verdict = qubit_product_perfect(e1, e2)
        assert verdict.distinguishable == YES
        assert _max_cross_term(e1, e2, verdict.certificate) < 1e-8


def test_gpc_perfect_entangled_examples():
    yes = gpc_perfect_entangled(pauli_channel([1, 0, 0, 0]), pauli_channel([0, 1, 0, 0]))
    assert yes.distinguishable == YES
    assert yes.method == METHOD_GPC_ORTHOGONALITY
    np.testing.assert_allclose(yes.certificate,
                               np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    no = gpc_perfect_entangled(pauli_channel([0.5, 0.5, 0, 0]), pauli_channel([0.5, 0, 0.5, 0]))
    assert no.distinguishable == NO
    mixed = pauli_channel([0.0, 0.2, 0.3, 0.5])
    assert gpc_perfect_entangled(mixed, pauli_channel([1, 0, 0, 0])).distinguishable == YES


def test_gpc_perfect_entangled_rejects_mismatched_bases():
    with pytest.raises(BasisMismatch):
        gpc_perfect_entangled(pauli_channel([1, 0, 0, 0]), gpc_channel(2, [1, 0, 0, 0]))
    with pytest.raises(DimensionMismatch):
        gpc_perfect_entangled(gpc_channel(2, [1, 0, 0, 0]), gpc_channel(3, [1] + [0] * 8))


def test_numeric_search_examples():
    found = numeric_isotropic_search([PAULI_Y], entangled=False, seed=1, restarts=4)
    assert found.distinguishable == YES
    assert abs(found.certificate.conj() @ PAULI_Y @ found.certificate) < 1e-8
    blocked = numeric_isotropic_search([PAULI_I], entangled=False, seed=1, restarts=2)
    assert blocked.distinguishable == UNKNOWN
    assert blocked.certificate is None


@pytest.mark.parametrize("entangled", [False, True])
def test_numeric_search_rejects_non_finite_operators(entangled):
    # Every loss was NaN, so no restart succeeded and the answer was unknown.
    ops = [PAULI_Y, np.array([[1.0, np.nan], [0.0, 1.0]])]
    with pytest.raises(NotFinite, match=r"operators must be finite; entry \[1, 0, 1\]"):
        numeric_isotropic_search(ops, entangled=entangled, seed=1, restarts=4)


def test_numeric_search_finds_entangled_counterexample_certificate():
    mixed = gpc_to_kraus(pauli_channel([0.0, 0.2, 0.3, 0.5]))
    ident = KrausChannel([PAULI_I])
    ops = cross_operators(mixed, ident)
    verdict = numeric_isotropic_search(ops, entangled=True, seed=3, restarts=8)
    assert verdict.distinguishable == YES
    loss = sum(abs(verdict.certificate.conj() @ np.kron(op, np.eye(2)) @ verdict.certificate) ** 2
               for op in ops)
    assert loss < 1e-16


def test_numeric_search_deterministic():
    ops = cross_operators(KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]))
    a = numeric_isotropic_search(ops, entangled=False, seed=11, restarts=4)
    b = numeric_isotropic_search(ops, entangled=False, seed=11, restarts=4)
    assert np.array_equal(a.certificate, b.certificate)


def _search_parity_corpus():
    """(seed, e1, e2): Haar unitary pairs (d = 3, 4), random Kraus and GPC pairs (d = 2, 3)."""
    from conftest import random_kraus_channel
    rng = np.random.default_rng(20261037)
    pairs = []
    for d in (3, 4):
        u1, v = _haar_unitary(rng, d), _haar_unitary(rng, d)
        pairs.append((KrausChannel([u1]), KrausChannel([_haar_unitary(rng, d)])))
        # Two antipodal eigenvalues of U1^dag U2 put the origin on an edge of the
        # polygon: few starts converge, so the first success can lie past restart 16.
        angles = np.concatenate([[0.0, np.pi], rng.uniform(0.3, 2.8, d - 2)])
        pairs.append((KrausChannel([u1]), KrausChannel([u1 @ v @ np.diag(np.exp(1j * angles)) @ v.conj().T])))
    for d in (2, 3):
        for _ in range(2):
            pairs.append((random_kraus_channel(rng, d), random_kraus_channel(rng, d)))
        support = rng.permutation(d * d)
        for second in (support[d:], support[1:]):  # disjoint, then overlapping
            q1, q2 = np.zeros(d * d), np.zeros(d * d)
            q1[support[:d]] = rng.dirichlet(np.ones(d))
            q2[second] = rng.dirichlet(np.ones(second.size))
            pairs.append((gpc_to_kraus(gpc_channel(d, q1)), gpc_to_kraus(gpc_channel(d, q2))))
    cases = [(seed, e1, e2) for seed, (e1, e2) in enumerate(pairs)]
    # The edge pairs again, at seeds whose first success is restart 15, the last of
    # the first block (seed 31, product; seed 15, entangled), or restart 16, the
    # first of the second (seed 13, entangled; seed 5, product, d = 4).
    return cases + [(seed, *pairs[k]) for k, seed in ((1, 31), (1, 15), (1, 13), (3, 5))]


def test_numeric_search_matches_the_sequential_reference():
    # The stacked search runs its restarts in blocks of 16; 17 and 40 cross a block boundary.
    from reference_search import sequential_isotropic_search
    counts = (1, 3, 16, 17, 40)
    patterns = []
    for number, (seed, e1, e2) in enumerate(_search_parity_corpus()):
        ops = cross_operators(e1, e2)
        for entangled in (False, True):
            verdicts = []
            for restarts in counts:
                stacked = numeric_isotropic_search(ops, entangled, seed=seed, restarts=restarts)
                reference = sequential_isotropic_search(ops, entangled, seed=seed, restarts=restarts)
                case = (number, seed, entangled, restarts)
                assert stacked.distinguishable == reference.distinguishable, case
                verdicts.append(stacked.distinguishable)
                if stacked.distinguishable == YES:
                    assert np.max(np.abs(stacked.certificate - reference.certificate)) < 1e-9, case
                    assert _max_cross_term(e1, e2, stacked.certificate) < 1e-8, case
                else:
                    assert stacked.certificate is None, case
            patterns.append(tuple(verdicts))
    assert patterns.count((YES,) * 5) > 5 and patterns.count((UNKNOWN,) * 5) > 5
    # First successes late in the first block, at the start of the second, and later in it.
    for first in (2, 3, 4):
        assert (UNKNOWN,) * first + (YES,) * (5 - first) in patterns


def test_soundness_certificates_reach_zero_error():
    # every yes verdict must produce a state with vanishing Helstrom error
    cases = []
    verdict = unitary_perfect(PAULI_X, PAULI_Z)
    cases.append((KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]), verdict))
    verdict = qubit_product_perfect(KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]))
    cases.append((KrausChannel([PAULI_X]), KrausChannel([PAULI_Z]), verdict))
    g1, g2 = pauli_channel([0.0, 0.2, 0.3, 0.5]), pauli_channel([1, 0, 0, 0])
    verdict = gpc_perfect_entangled(g1, g2)
    cases.append((gpc_to_kraus(g1), gpc_to_kraus(g2), verdict))
    ops = cross_operators(gpc_to_kraus(g1), gpc_to_kraus(g2))
    verdict = numeric_isotropic_search(ops, entangled=True, seed=5, restarts=8)
    cases.append((gpc_to_kraus(g1), gpc_to_kraus(g2), verdict))
    for e1, e2, verdict in cases:
        assert verdict.distinguishable == YES
        assert helstrom_error_at(e1, e2, HALF, verdict.certificate) < 1e-8


def test_hierarchy_product_implies_entangled():
    # product-perfect pairs must admit an entangled certificate as well
    pairs = [
        (KrausChannel([PAULI_X]), KrausChannel([PAULI_Z])),
        (gpc_to_kraus(pauli_channel([1, 0, 0, 0])), gpc_to_kraus(pauli_channel([0, 1, 0, 0]))),
        (gpc_to_kraus(pauli_channel([0, 0.5, 0.5, 0])), KrausChannel([PAULI_I])),
    ]
    for e1, e2 in pairs:
        assert qubit_product_perfect(e1, e2).distinguishable == YES
        ops = cross_operators(e1, e2)
        entangled = numeric_isotropic_search(ops, entangled=True, seed=7, restarts=8)
        assert entangled.distinguishable == YES


def test_gpc_decider_agrees_with_numeric_search(rng):
    # random d=2 pairs with randomized supports, both verdict kinds included
    agree_yes = agree_no = 0
    for trial in range(200):
        mask1 = np.zeros(4)
        mask1[rng.choice(4, size=int(rng.integers(1, 4)), replace=False)] = 1.0
        if rng.uniform() < 0.5:
            mask2 = 1.0 - mask1  # disjoint supports -> orthogonal
        else:
            mask2 = np.zeros(4)
            mask2[rng.choice(4, size=int(rng.integers(1, 5)), replace=False)] = 1.0
        q1 = rng.dirichlet(np.ones(4)) * mask1
        q2 = rng.dirichlet(np.ones(4)) * mask2
        if q1.sum() == 0 or q2.sum() == 0:
            continue
        q1, q2 = q1 / q1.sum(), q2 / q2.sum()
        g1, g2 = pauli_channel(q1), pauli_channel(q2)
        expected = gpc_perfect_entangled(g1, g2).distinguishable
        ops = cross_operators(gpc_to_kraus(g1), gpc_to_kraus(g2))
        searched = numeric_isotropic_search(ops, entangled=True, seed=trial, restarts=4)
        if expected == YES:
            assert searched.distinguishable == YES
            agree_yes += 1
        else:
            assert searched.distinguishable == UNKNOWN
            agree_no += 1
    assert agree_yes > 20 and agree_no > 20


def test_maximally_entangled_state():
    psi = maximally_entangled(3)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    np.testing.assert_allclose(psi.reshape(3, 3), np.eye(3) / np.sqrt(3))
