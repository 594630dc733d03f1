"""oracle_crosscheck: one op is one brute-force cross-check against the analytic answer.

The checks are those of the acceptance suite: sampled_min_error with
product probes (1e4 Haar samples) against min_error_probability; with
entangled probes on Pauli pairs, where the maximally entangled probe is
optimal; grid_oracle at 1e5 points against maximize_on_sphere; and
simulate_experiment at the analytic optimum. Most of the time is
vectorised numpy inside the oracles.
"""

from __future__ import annotations

import math

import numpy as np

import qdiscrim as qd

from .common import Op, bloch_ket, op_rng, random_kraus

NAME = "oracle_crosscheck"
CYCLE = ("sampled_product", "grid", "simulate", "sampled_entangled",
         "sampled_product", "grid_hard", "simulate", "grid")
TAIL_PERCENTILE = 95.0
DIGEST_OPS = 40
WARMUP_OPS = 8

SAMPLES = 10_000
GRID_POINTS = 100_000
TRIALS = 100_000


def _hard_case(rng):
    # Offset orthogonal to the top singular direction, as in acceptance criterion 3.
    left, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = left @ np.diag(np.sort(rng.uniform(0.1, 2.0, 3))[::-1]) @ right.T
    c = rng.standard_normal(3)
    return m, c - (c @ left[:, 0]) * left[:, 0]


def make_op(seed: int, index: int) -> Op:
    rng = op_rng(seed, NAME, index)
    kind = CYCLE[index % len(CYCLE)]
    payload = {"seed": int(rng.integers(2**31))}
    truth = {}
    if kind in ("sampled_product", "simulate"):
        payload["kraus"] = (random_kraus(rng, int(rng.integers(1, 5))),
                            random_kraus(rng, int(rng.integers(1, 5))))
        payload["p1"] = 0.5
    elif kind == "sampled_entangled":
        qs = (rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
        p1 = rng.uniform(0.2, 0.8)
        payload["q"], payload["p1"] = qs, p1
        # Pauli channels are covariant, so the maximally entangled probe is optimal.
        truth["analytic"] = (1.0 - float(np.sum(np.abs(p1 * qs[0] - (1.0 - p1) * qs[1])))) / 2.0
    elif kind == "grid":
        payload["m"] = rng.standard_normal((3, 3))
        payload["c"] = rng.standard_normal(3) * rng.uniform(0.0, 1.5)
    else:
        payload["m"], payload["c"] = _hard_case(rng)
    tags = {"hard_case"} if kind == "grid_hard" else set()
    return Op(index, kind, payload, truth=truth, tags=frozenset(tags))


def run(op: Op) -> dict:
    p = op.payload
    kind = op.kind
    if kind.startswith("grid"):
        return {"analytic": qd.maximize_on_sphere(p["m"], p["c"]).value,
                "estimate": qd.grid_oracle(p["m"], p["c"], GRID_POINTS)}
    priors = qd.PriorPair.from_p1(p["p1"])
    if kind == "sampled_entangled":
        e1, e2 = (qd.gpc_to_kraus(qd.pauli_channel(q)) for q in p["q"])
        est = qd.sampled_min_error(e1, e2, priors, SAMPLES, True, seed=p["seed"])
        return {"estimate": est.p_error_estimate}
    e1, e2 = (qd.KrausChannel(ops) for ops in p["kraus"])
    analytic = qd.min_error_probability(qd.kraus_to_affine(e1), qd.kraus_to_affine(e2), priors)
    if kind == "sampled_product":
        est = qd.sampled_min_error(e1, e2, priors, SAMPLES, False, seed=p["seed"])
        return {"analytic": analytic.p_error, "estimate": est.p_error_estimate}
    bloch = analytic.optimal_bloch if analytic.optimal_bloch is not None else (0.0, 0.0, 1.0)
    psi = bloch_ket(bloch)
    return {"analytic": analytic.p_error,
            "frequency": qd.simulate_experiment(e1, e2, priors, psi, TRIALS, seed=p["seed"]),
            "reference": qd.helstrom_error_at(e1, e2, priors, psi),
            "measured": analytic.optimal_bloch is not None}


def encode(answer: dict) -> bytes:
    return repr(sorted(answer.items())).encode()



def expected_spans(op: Op) -> dict:
    kind = op.kind
    return {"oracle.sampled_min_error": int(kind.startswith("sampled")),
            "sphereopt.grid_oracle": int(kind.startswith("grid")),
            "oracle.simulate_experiment": int(kind == "simulate")}


def check(op: Op, answer: dict) -> str | None:
    kind = op.kind
    if kind.startswith("grid"):
        if abs(answer["estimate"] - answer["analytic"]) > 1e-5:
            return f"grid oracle {answer['estimate']!r} vs optimum {answer['analytic']!r}"
        return None
    if kind.startswith("sampled"):
        analytic = op.truth.get("analytic", answer.get("analytic"))
        est = answer["estimate"]
        if est < analytic - 1e-9 or est > analytic + 5e-3:
            return f"sampled estimate {est!r} outside [analytic - 1e-9, analytic + 5e-3] of {analytic!r}"
        return None
    ref, freq = answer["reference"], answer["frequency"]
    if answer["measured"] and abs(ref - answer["analytic"]) > 1e-9:
        return f"Helstrom error {ref!r} at the optimum is not the analytic {answer['analytic']!r}"
    sigma = math.sqrt(max(ref * (1.0 - ref), 0.0) / TRIALS)
    if sigma == 0.0:
        return None if freq == ref else "zero-variance simulation disagrees with Helstrom error"
    z = (freq - ref) / sigma
    return None if abs(z) <= 5.0 else f"|z| = {abs(z):.2f} > 5"
