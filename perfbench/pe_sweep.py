"""pe_sweep: one op is one minimum-error problem, from channel specs to a verified P_E.

The mix repeats every CYCLE ops: paper-style sweeps of non-unital named
pairs (secular path), Pauli and other unital pairs (c = 0, hard-case
path), random Kraus pairs with 1 to 4 operators, and biased priors of
which a share lands in guess_prior.
"""

from __future__ import annotations

import math

import numpy as np

import qdiscrim as qd

from .common import (NAMED_AFFINE, Op, affine_of_kraus, fibonacci_grid, op_rng, pauli_affine,
                     random_kraus, rotation)

NAME = "pe_sweep"
CYCLE = ("sweep", "sweep", "sweep_prior", "pauli", "pauli", "unital_affine",
         "kraus", "kraus", "biased_kraus", "biased_sweep")
TAIL_PERCENTILE = 99.0
DIGEST_OPS = 200
WARMUP_OPS = 20

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = fibonacci_grid(2000)
_UNITAL_NAMES = ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing")


def _named(name, param):
    m, c = NAMED_AFFINE[name](param)
    return {"kind": "named", "name": name, "param": param}, m, c


def _kraus(rng, k):
    ops = random_kraus(rng, k)
    m, c = affine_of_kraus(ops)
    return {"kind": "kraus", "ops": ops}, m, c


def _pauli(rng):
    q = rng.dirichlet(np.ones(4))
    m, c = pauli_affine(q)
    return {"kind": "pauli", "q": q}, m, c


def make_op(seed: int, index: int) -> Op:
    rng = op_rng(seed, NAME, index)
    kind = CYCLE[index % len(CYCLE)]
    p1 = 0.5
    if kind in ("sweep", "sweep_prior", "biased_sweep"):
        # The damping parameter walks the unit interval as the sweep advances.
        gamma = (rng.uniform() * 0.1 + index * _GOLDEN) % 1.0
        partner = ("depolarizing", "phase_damping")[index % 2]
        specs = [_named("amplitude_damping", gamma), _named(partner, rng.uniform())]
        if kind == "sweep_prior":
            p1 = rng.uniform(0.2, 0.8)
        elif kind == "biased_sweep":
            p1 = rng.uniform(0.9, 0.99)
    elif kind == "pauli":
        specs = [_pauli(rng), _pauli(rng)]
        p1 = rng.uniform(0.2, 0.8)
    elif kind == "unital_affine":
        rot = rotation(rng)
        m = rot @ pauli_affine(rng.dirichlet(np.ones(4)))[0] @ rot.T
        specs = [({"kind": "affine", "m": m, "c": np.zeros(3)}, m, np.zeros(3)),
                 _named(_UNITAL_NAMES[int(rng.integers(4))], rng.uniform())]
        p1 = rng.uniform(0.2, 0.8)
    else:
        specs = [_kraus(rng, int(rng.integers(1, 5))), _kraus(rng, int(rng.integers(1, 5)))]
        p1 = rng.uniform(0.2, 0.8) if kind == "kraus" else rng.uniform(0.9, 0.99)
    p2 = 1.0 - p1
    m = p1 * specs[0][1] - p2 * specs[1][1]
    c = p1 * specs[0][2] - p2 * specs[1][2]
    tags = {"hard_case"} if float(np.linalg.norm(c)) < 1e-12 else set()
    return Op(index, kind, {"specs": [s[0] for s in specs], "p1": p1},
              truth={"m": m, "c": c, "p1": p1, "p2": p2}, tags=frozenset(tags))


def _build(spec):
    kind = spec["kind"]
    if kind == "named":
        return qd.kraus_to_affine(qd.named_channel(spec["name"], spec["param"]))
    if kind == "kraus":
        return qd.kraus_to_affine(qd.KrausChannel(spec["ops"]))
    if kind == "pauli":
        return qd.pauli_to_affine(qd.pauli_channel(spec["q"]))
    return qd.AffineChannel(spec["m"], spec["c"])


def run(op: Op):
    e1, e2 = (_build(spec) for spec in op.payload["specs"])
    return qd.min_error_probability(e1, e2, qd.PriorPair.from_p1(op.payload["p1"]))


def encode(answer) -> bytes:
    probe = b"-" if answer.optimal_bloch is None else np.asarray(answer.optimal_bloch).tobytes()
    return repr((answer.p_error, answer.regime, answer.trace_norm_at_opt)).encode() + probe


def answer_tags(answer) -> set:
    return {"guess_prior"} if answer.regime == "guess_prior" else set()


def expected_spans(op: Op) -> dict:
    return {"discrim.min_error_probability": 1, "sphereopt.maximize_on_sphere": 1}


def check(op: Op, answer) -> str | None:
    t = op.truth
    m, c, p1, p2 = t["m"], t["c"], t["p1"], t["p2"]
    pe = answer.p_error
    if not (0.0 <= pe <= min(p1, p2) + 1e-12):
        return f"P_E {pe!r} outside [0, min(p1, p2)]"
    bias = abs(p1 - p2)
    grid_best = float(np.max(np.linalg.norm(_GRID @ m.T + c, axis=1)))
    if answer.regime == "guess_prior":
        if answer.optimal_bloch is not None or pe != min(p1, p2):
            return "guess_prior answer carries a probe or a P_E other than min(p1, p2)"
        if grid_best > bias + 1e-9:
            return f"grid point reaches {grid_best!r} above the prior bias {bias!r}"
    else:
        r = np.asarray(answer.optimal_bloch, dtype=float)
        if r.shape != (3,) or abs(float(np.linalg.norm(r)) - 1.0) > 1e-9:
            return "probe is not a unit Bloch vector"
        reach = float(np.linalg.norm(m @ r + c))
        if abs(reach - answer.trace_norm_at_opt) > 1e-9 * max(1.0, reach):
            return f"||M r + c|| = {reach!r} but trace_norm_at_opt = {answer.trace_norm_at_opt!r}"
        if grid_best > answer.trace_norm_at_opt + 1e-9:
            return f"grid point reaches {grid_best!r} above the optimum"
        if abs(pe - (1.0 - answer.trace_norm_at_opt) / 2.0) > 1e-12:
            return "P_E disagrees with (1 - trace norm) / 2"
    if op.kind == "pauli":
        qs = [spec["q"] for spec in op.payload["specs"]]
        closed = qd.pauli_closed_form(qs[0], qs[1], qd.PriorPair.from_p1(p1)).p_error
        if abs(closed - pe) > 1e-10:
            return f"pauli_closed_form gives {closed!r}, engine gives {pe!r}"
    return None
