"""Record the golden corpus of CLI reports that tests/test_golden.py replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

Every case is a channel-spec file plus the subcommand and flags that
`qdiscrim` runs on it; the corpus stores the file contents next to the
report, so replaying needs no random numbers.  Perfect-discrimination
pairs that are built with a known answer also store it as `truth`.
Re-record only when a change of behaviour is intended, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from qdiscrim.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")
SEED = 20261017

_NAMED = ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing", "phase_damping",
          "amplitude_damping")


def complex_json(mat) -> list:
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, k: int) -> np.ndarray:
    raw = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    gram = np.einsum("kij,kil->jl", raw.conj(), raw)
    evals, evecs = np.linalg.eigh(gram)
    return raw @ (evecs @ np.diag(evals ** -0.5) @ evecs.conj().T)


def rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def named(name: str, param: float) -> dict:
    return {"kind": "named", "name": name, "param": float(param)}


def kraus(ops) -> dict:
    return {"kind": "kraus", "ops": [complex_json(op) for op in ops]}


def unitary_pair(rng, d: int, yes: bool) -> tuple[np.ndarray, np.ndarray]:
    """U2 with U1^dag U2 spectrum around the origin (yes) or inside a half plane (no)."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    if not yes:
        angles = base + np.sort(rng.uniform(0.0, math.pi - 0.3, d))
    elif d == 2:
        angles = np.array([base, base + math.pi])
    else:
        angles = base + 2.0 * math.pi * np.arange(d) / d + rng.uniform(-0.2, 0.2, d)
    u1 = haar_unitary(rng, d)
    v = haar_unitary(rng, d)
    return u1, u1 @ (v @ np.diag(np.exp(1j * angles)) @ v.conj().T)


def pe_cases(rng) -> list[dict]:
    cases = []

    def add(name, channels, p1):
        cases.append({"name": name, "argv": ["pe"], "spec": {"channels": channels, "p1": float(p1)}})

    for i in range(20):  # paper-style sweep: amplitude damping against a unital partner
        gamma = (i + 0.5) / 20
        partner = ("depolarizing", "phase_damping")[i % 2]
        p1 = 0.5 if i % 3 else rng.uniform(0.2, 0.8)
        add(f"sweep_{i}", [named("amplitude_damping", gamma), named(partner, rng.uniform())], p1)
    for i in range(12):  # Pauli pairs: c = 0, hard case
        add(f"pauli_{i}", [{"kind": "pauli", "q": rng.dirichlet(np.ones(4)).tolist()}
                           for _ in range(2)], rng.uniform(0.2, 0.8))
    for i in range(10):  # rotated unital maps against named unital channels
        rot = rotation(rng)
        q = rng.dirichlet(np.ones(4))
        m = rot @ np.diag([2.0 * (q[0] + q[k]) - 1.0 for k in (1, 2, 3)]) @ rot.T
        add(f"unital_affine_{i}", [{"kind": "affine", "m": m.tolist(), "c": [0.0, 0.0, 0.0]},
                                   named(_NAMED[i % 4], rng.uniform())], rng.uniform(0.2, 0.8))
    for i in range(10):  # named pairs, every family
        add(f"named_{i}", [named(_NAMED[i % 6], rng.uniform()),
                           named(_NAMED[(i + 2) % 6], rng.uniform())], rng.uniform(0.2, 0.8))
    for i in range(20):  # random Kraus pairs with 1 to 4 operators
        add(f"kraus_{i}", [kraus(random_kraus(rng, int(rng.integers(1, 5)))) for _ in range(2)],
            rng.uniform(0.2, 0.8))
    for i in range(10):  # biased priors, many in the guess-prior regime
        pair = ([kraus(random_kraus(rng, int(rng.integers(1, 5)))) for _ in range(2)] if i % 2 else
                [named("amplitude_damping", rng.uniform()), named("depolarizing", rng.uniform())])
        add(f"biased_{i}", pair, rng.uniform(0.9, 0.99))
    ident = named("bit_flip", 1.0)
    add("identical", [ident, ident], 0.5)
    add("identity_vs_sigma_x", [ident, named("bit_flip", 0.0)], 0.5)
    add("identity_vs_full_depolarizing", [ident, named("depolarizing", 1.0)], 0.5)
    add("unitaries", [{"kind": "unitary", "matrix": complex_json(haar_unitary(rng, 2))}
                      for _ in range(2)], 0.5)
    return cases


def pe_pauli_cases(rng) -> list[dict]:
    return [{"name": f"pe_pauli_{i}", "argv": ["pe-pauli"],
             "spec": {"channels": [{"kind": "pauli", "q": rng.dirichlet(np.ones(4)).tolist()}
                                   for _ in range(2)], "p1": float(rng.uniform(0.2, 0.8))}}
            for i in range(6)]


def perfect_cases(rng) -> list[dict]:
    cases = []

    def add(name, channels, truth=None, strategy="product"):
        case = {"name": name, "argv": ["perfect", "--strategy", strategy],
                "spec": {"channels": channels}}
        if truth is not None:
            case["truth"] = truth
        cases.append(case)

    for i in range(18):  # unitary polygon, d = 2, 3, 4
        d, yes = 2 + i % 3, bool((i // 3) % 2)
        u1, u2 = unitary_pair(rng, d, yes)
        add(f"unitary_d{d}_{i}", [{"kind": "unitary", "matrix": complex_json(u)} for u in (u1, u2)],
            "yes" if yes else "no")
    for i in range(20):  # qubit product probes: unitary pairs given as Kraus channels
        yes = i % 2 == 0
        u1, u2 = unitary_pair(rng, 2, yes)
        add(f"product_unitary_{i}", [kraus([u1]), kraus([u2])], "yes" if yes else "no")
    for i in range(6):  # qubit product probes: two reset channels onto orthogonal states
        v, w = haar_unitary(rng, 2), haar_unitary(rng, 2)
        add(f"product_reset_{i}",
            [kraus([np.outer(v[:, out], w.conj().T[k]) for k in (0, 1)]) for out in (0, 1)], "yes")
    for i in range(8):  # qubit product probes: random Kraus pairs
        add(f"product_random_{i}",
            [kraus(random_kraus(rng, int(rng.integers(2, 5)))) for _ in range(2)], "no")
    for i in range(6):  # qubit product probes: Pauli pairs through their Kraus form
        add(f"product_pauli_{i}", [{"kind": "pauli", "q": rng.dirichlet(np.ones(4)).tolist()},
                                   {"kind": "pauli", "q": [1.0, 0.0, 0.0, 0.0]}])
    for i in range(12):  # GPC orthogonality, entangled probes, d = 2 and 3
        d, yes = 2 + i % 2, bool((i // 2) % 2)
        size = d * d
        support1 = rng.choice(size, size=int(rng.integers(1, size)), replace=False)
        rest = np.setdiff1d(np.arange(size), support1)
        support2 = rest if yes else np.union1d(rest[:1], support1[:1])
        specs = []
        for support in (support1, support2):
            q = np.zeros(size)
            q[support] = rng.dirichlet(np.ones(support.size))
            specs.append({"kind": "pauli", "q": q.tolist()} if d == 2 else
                         {"kind": "gpc", "d": d, "q": q.tolist()})
        add(f"gpc_d{d}_{i}", specs, "yes" if yes else "no", strategy="entangled")
    return cases


def run_case(case: dict, workdir: str) -> dict:
    """The report `qdiscrim` prints for one case; the test replays cases the same way.

    Each distinct spec is written once to workdir, under a name derived
    from its content, and every later call with the same spec reads that
    file again instead of rewriting it.
    """
    text = json.dumps(case["spec"])
    path = os.path.join(workdir, hashlib.sha256(text.encode()).hexdigest()[:32] + ".json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([case["argv"][0], path, *case["argv"][1:]])
    if code != 0:
        raise RuntimeError(f"{case['name']}: exit code {code}")
    return json.loads(out.getvalue())


def build() -> list[dict]:
    rng = np.random.default_rng(SEED)
    cases = pe_cases(rng) + pe_pauli_cases(rng) + perfect_cases(rng)
    with tempfile.TemporaryDirectory() as workdir:
        for case in cases:
            report = run_case(case, workdir)
            # The digest names the temporary file's bytes, not the physics.
            report.pop("input_digest")
            case["report"] = report
    return cases


if __name__ == "__main__":
    corpus = build()
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}", file=sys.stderr)
