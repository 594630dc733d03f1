"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import contextlib
import io
import json
import time

import numpy as np

from conftest import random_kraus_channel
from qdiscrim.channels import (
    KrausChannel,
    PAULI_I,
    bloch_to_ket,
    gpc_channel,
    gpc_to_kraus,
    kraus_to_affine,
    pauli_channel,
    pauli_to_affine,
)
from qdiscrim.cli import main as cli_main
from qdiscrim.discrim import (
    REGIME_GUESS_PRIOR,
    REGIME_MEASURE,
    PriorPair,
    min_error_probability,
    pauli_closed_form,
    pauli_sacchi_form,
)
from qdiscrim.oracle import helstrom_error_at, sampled_min_error, simulate_experiment
from qdiscrim.perfect import NO, YES, gpc_perfect_entangled, qubit_product_perfect
from qdiscrim.sphereopt import grid_oracle, maximize_on_sphere

HALF = PriorPair(0.5, 0.5)


def _finish(num, label, started, budget, failures):
    elapsed = time.time() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {num} {status} [{elapsed:.1f}s < {budget}s] {label}")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_closed_form_equivalence():
    started = time.time()
    rng = np.random.default_rng(101)
    failures = []
    for i in range(10000):
        q1 = rng.dirichlet(np.ones(4))
        q2 = rng.dirichlet(np.ones(4))
        priors = PriorPair.from_p1(rng.uniform(0.0, 1.0))
        closed = pauli_closed_form(q1, q2, priors).p_error
        sacchi = pauli_sacchi_form(q1, q2, priors)
        if abs(closed - sacchi) > 1e-12:
            failures.append((i, closed, sacchi))
    _finish(1, "pauli closed form vs pairwise-sum form on 1e4 triples", started, 5, failures)


def test_criterion_2_master_formula_consistency():
    started = time.time()
    rng = np.random.default_rng(102)
    failures = []
    for i in range(1000):
        q1 = rng.dirichlet(np.ones(4))
        q2 = rng.dirichlet(np.ones(4))
        priors = PriorPair.from_p1(rng.uniform(0.0, 1.0))
        closed = pauli_closed_form(q1, q2, priors).p_error
        general = min_error_probability(
            pauli_to_affine(pauli_channel(q1)), pauli_to_affine(pauli_channel(q2)), priors).p_error
        if abs(closed - general) > 1e-10:
            failures.append((i, closed, general))
    _finish(2, "sphere optimizer vs pauli closed form on 1e3 pairs", started, 10, failures)


def _hard_case_instance(rng):
    left, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    singulars = np.sort(rng.uniform(0.1, 2.0, 3))[::-1]
    m = left @ np.diag(singulars) @ right.T
    c = rng.standard_normal(3)
    c -= (c @ left[:, 0]) * left[:, 0]
    return m, c


def test_criterion_3_optimizer_vs_grid_oracle():
    started = time.time()
    rng = np.random.default_rng(103)
    cases = [(rng.standard_normal((3, 3)), rng.standard_normal(3) * rng.uniform(0.0, 1.5))
             for _ in range(200)]
    cases += [_hard_case_instance(rng) for _ in range(20)]
    failures = []
    for i, (m, c) in enumerate(cases):
        exact = maximize_on_sphere(m, c).value
        sampled = grid_oracle(m, c, 100000)
        if abs(exact - sampled) > 1e-5:
            failures.append((i, exact, sampled))
    _finish(3, "maximize_on_sphere vs grid_oracle(1e5) on 220 instances", started, 60, failures)


def test_criterion_4_sampled_oracle_vs_analytic():
    started = time.time()
    rng = np.random.default_rng(104)
    failures = []
    for i in range(100):
        e1 = random_kraus_channel(rng)
        e2 = random_kraus_channel(rng)
        analytic = min_error_probability(kraus_to_affine(e1), kraus_to_affine(e2), HALF).p_error
        estimate = sampled_min_error(e1, e2, HALF, 10000, False, seed=i).p_error_estimate
        if estimate > analytic + 5e-3 or estimate < analytic - 1e-9:
            failures.append((i, analytic, estimate))
    _finish(4, "sampled_min_error(1e4) within [analytic-1e-9, analytic+5e-3], 100 pairs",
            started, 120, failures)


def _random_gpc_pair(rng, d):
    size = d * d
    support1 = rng.choice(size, size=int(rng.integers(1, size)), replace=False)
    if rng.uniform() < 0.5:
        support2 = np.setdiff1d(np.arange(size), support1)
    else:
        support2 = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
    if support2.size == 0:
        support2 = np.array([int(rng.integers(0, size))])
    q1 = np.zeros(size)
    q2 = np.zeros(size)
    q1[support1] = rng.dirichlet(np.ones(support1.size))
    q2[support2] = rng.dirichlet(np.ones(support2.size))
    return gpc_channel(d, q1), gpc_channel(d, q2)


def test_criterion_5_theorem_both_directions():
    started = time.time()
    rng = np.random.default_rng(105)
    failures = []
    seen_yes = seen_no = 0
    for i in range(200):
        d = 2 if i % 2 == 0 else 3
        g1, g2 = _random_gpc_pair(rng, d)
        overlap = float(np.sqrt(g1.q) @ np.sqrt(g2.q))
        verdict = gpc_perfect_entangled(g1, g2)
        if (verdict.distinguishable == YES) != (overlap < 1e-12):
            failures.append((i, overlap, verdict.distinguishable))
            continue
        if verdict.distinguishable == YES:
            seen_yes += 1
            error = helstrom_error_at(gpc_to_kraus(g1), gpc_to_kraus(g2), HALF,
                                      verdict.certificate)
            if error >= 1e-10:
                failures.append((i, "certificate error", error))
        else:
            seen_no += 1
    if seen_yes < 20 or seen_no < 20:
        failures.append(("insufficient coverage", seen_yes, seen_no))
    _finish(5, f"characteristic-vector criterion on 200 GPC pairs ({seen_yes} yes/{seen_no} no)",
            started, 30, failures)


def test_criterion_6_counterexample_reproduction():
    started = time.time()
    failures = []
    mixed = pauli_channel([0.0, 0.2, 0.3, 0.5])
    ident = pauli_channel([1.0, 0.0, 0.0, 0.0])
    entangled = gpc_perfect_entangled(mixed, ident)
    if entangled.distinguishable != YES:
        failures.append(("entangled verdict", entangled.distinguishable))
    else:
        error = helstrom_error_at(gpc_to_kraus(mixed), gpc_to_kraus(ident), HALF,
                                  entangled.certificate)
        if error >= 1e-10:
            failures.append(("entangled certificate error", error))
    product = qubit_product_perfect(gpc_to_kraus(mixed), KrausChannel([PAULI_I]))
    if product.distinguishable != NO:
        failures.append(("product verdict", product.distinguishable))
    estimate = sampled_min_error(gpc_to_kraus(mixed), gpc_to_kraus(ident), HALF,
                                 100000, False, seed=6).p_error_estimate
    if estimate <= 0.01:
        failures.append(("product estimate", estimate))
    _finish(6, "mixed-pauli vs identity: entangled-only perfect discrimination",
            started, 30, failures)


def test_criterion_7_guess_prior_special_case():
    started = time.time()
    rng = np.random.default_rng(107)
    priors = PriorPair(0.99, 0.01)
    failures = []
    triggered = 0
    for i in range(100):
        e1 = kraus_to_affine(random_kraus_channel(rng, n_ops=int(rng.integers(2, 5))))
        e2 = kraus_to_affine(random_kraus_channel(rng, n_ops=int(rng.integers(2, 5))))
        reach = maximize_on_sphere(priors.p1 * e1.m - priors.p2 * e2.m,
                                   priors.p1 * e1.c - priors.p2 * e2.c).value
        result = min_error_probability(e1, e2, priors)
        if priors.bias >= reach:
            triggered += 1
            if result.p_error != 0.01 or result.regime != REGIME_GUESS_PRIOR:
                failures.append((i, result.p_error, result.regime))
        elif result.regime == REGIME_GUESS_PRIOR:
            failures.append((i, "spurious guess_prior", reach))
    if triggered == 0:
        failures.append(("no instance triggered the prior-dominated regime",))
    _finish(7, f"priors (0.99, 0.01): exact min-prior error in {triggered}/100 dominated cases",
            started, 10, failures)


def test_criterion_8_monte_carlo_closure():
    started = time.time()
    rng = np.random.default_rng(108)
    failures = []
    checked = 0
    while checked < 50:
        e1 = random_kraus_channel(rng)
        e2 = random_kraus_channel(rng)
        result = min_error_probability(kraus_to_affine(e1), kraus_to_affine(e2), HALF)
        if result.regime != REGIME_MEASURE:
            continue
        psi = bloch_to_ket(result.optimal_bloch)
        reference = helstrom_error_at(e1, e2, HALF, psi)
        frequency = simulate_experiment(e1, e2, HALF, psi, 100000, seed=checked)
        sigma = np.sqrt(max(reference * (1.0 - reference), 0.0) / 100000)
        if abs(frequency - reference) > 4.0 * max(sigma, 1e-12):
            failures.append((checked, reference, frequency))
        if abs(reference - result.p_error) > 1e-9:
            failures.append((checked, "achievability", reference, result.p_error))
        checked += 1
    _finish(8, "simulate_experiment within 4 sigma of analytic optimum, 50 instances",
            started, 120, failures)


_EXPECTED_LINES = {
    "bit_flip": lambda p: (np.diag([1.0, 2 * p - 1, 2 * p - 1]), np.zeros(3)),
    "phase_flip": lambda p: (np.diag([2 * p - 1, 2 * p - 1, 1.0]), np.zeros(3)),
    "bit_phase_flip": lambda p: (np.diag([2 * p - 1, 1.0, 2 * p - 1]), np.zeros(3)),
    "depolarizing": lambda p: (np.diag([1 - p, 1 - p, 1 - p]), np.zeros(3)),
    "phase_damping": lambda p: (np.diag([np.sqrt(1 - p), np.sqrt(1 - p), 1.0]), np.zeros(3)),
    "amplitude_damping": lambda p: (np.diag([np.sqrt(1 - p), np.sqrt(1 - p), 1 - p]),
                                    np.array([0.0, 0.0, p])),
}


def test_criterion_9_named_channel_table(tmp_path):
    started = time.time()
    failures = []
    for name, expected in _EXPECTED_LINES.items():
        for param in (0.0, 0.25, 0.5, 0.75, 1.0):
            spec = tmp_path / f"{name}_{param}.json"
            spec.write_text(json.dumps(
                {"channels": [{"kind": "named", "name": name, "param": param}]}),
                encoding="utf-8")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(["convert", str(spec)])
            if code != 0:
                failures.append((name, param, "exit", code))
                continue
            report = json.loads(buffer.getvalue())
            m_expected, c_expected = expected(param)
            m_got = np.array(report["channels"][0]["m"])
            c_got = np.array(report["channels"][0]["c"])
            if np.max(np.abs(m_got - m_expected)) > 1e-12 or \
                    np.max(np.abs(c_got - c_expected)) > 1e-12:
                failures.append((name, param, m_got, c_got))
    _finish(9, "cmd_convert matches all six named transformation lines, 5 params each",
            started, 1, failures)
