"""cli_cold: one op is one `python -m qdiscrim <subcommand> FILE` process.

The caller waits for each process to exit before starting the next.
Every cycle covers all six subcommands, four malformed files with their
documented exit codes (2, 3 and 4), and two inputs the seed program gets
wrong: a NaN in an affine spec and the transpose map diag(1, -1, 1).
Both should exit 2; they stay in the corpus so that the fix shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

import numpy as np

import qdiscrim.cli

from .common import (Op, complex_json, haar_unitary, hull_angles, op_rng, random_kraus,
                     unitary_with_spectrum, wait_child)

NAME = "cli_cold"
CYCLE = ("pe", "pe-pauli", "perfect", "oracle", "simulate", "convert", "perfect-entangled",
         "bad_json", "not_trace_preserving", "qutrit_pe", "simulate_guess_prior",
         "nan_affine", "transpose_map")
TAIL_PERCENTILE = 85.0
DIGEST_OPS = 13
WARMUP_OPS = 2
CHILD_TIMEOUT_S = 120.0

# Seed defects: the documented answer is exit 2; the seed program does this instead.
KNOWN_DEFECTS = {
    "nan_affine": "exits 1 with an IndexError traceback from sphereopt",
    "transpose_map": "accepts the non-CP transpose map and reports P_E = 0",
}


def _named(name, param):
    return {"kind": "named", "name": name, "param": float(param)}


def _pauli(rng):
    return {"kind": "pauli", "q": rng.dirichlet(np.ones(4)).tolist()}


def _kraus(rng, k):
    return {"kind": "kraus", "ops": [complex_json(op) for op in random_kraus(rng, k)]}


def _gpc3_pair(rng, yes: bool):
    support1 = rng.choice(9, size=4, replace=False)
    rest = np.setdiff1d(np.arange(9), support1)
    support2 = rest if yes else np.union1d(rest[:2], support1[:1])
    specs = []
    for support in (support1, support2):
        q = np.zeros(9)
        q[support] = rng.dirichlet(np.ones(support.size))
        specs.append({"kind": "gpc", "d": 3, "q": q.tolist()})
    return specs


def make_op(seed: int, index: int) -> Op:
    rng = op_rng(seed, NAME, index)
    kind = CYCLE[index % len(CYCLE)]
    p1 = float(rng.uniform(0.2, 0.8))
    flags = []
    truth = {"exit": 0}
    yes = bool(rng.integers(2))
    if kind == "pe":
        doc = {"channels": [_named("amplitude_damping", rng.uniform()),
                            _named(("depolarizing", "phase_damping")[index % 2], rng.uniform())],
               "p1": p1}
    elif kind == "pe-pauli":
        doc = {"channels": [_pauli(rng), _pauli(rng)], "p1": p1}
    elif kind == "perfect":
        u1 = haar_unitary(rng, 2)
        u2 = unitary_with_spectrum(rng, u1, hull_angles(rng, 2, yes))
        doc = {"channels": [{"kind": "unitary", "matrix": complex_json(u)} for u in (u1, u2)]}
        truth["verdict"] = "yes" if yes else "no"
    elif kind == "perfect-entangled":
        doc = {"channels": _gpc3_pair(rng, yes)}
        flags = ["--strategy", "entangled"]
        truth["verdict"] = "yes" if yes else "no"
    elif kind == "oracle":
        doc = {"channels": [_kraus(rng, int(rng.integers(1, 5))), _kraus(rng, int(rng.integers(1, 5)))],
               "p1": p1}
    elif kind == "simulate":
        doc = {"channels": [_named("amplitude_damping", rng.uniform(0.2, 0.9)),
                            _named("phase_damping", rng.uniform(0.2, 0.9))], "p1": 0.5}
        flags = ["--seed", str(int(rng.integers(1000)))]
    elif kind == "convert":
        doc = {"channels": [_kraus(rng, int(rng.integers(1, 5))), _named("bit_flip", rng.uniform())]}
    elif kind == "bad_json":
        text = json.dumps({"channels": [_pauli(rng), _pauli(rng)]})
        doc = text[: int(rng.integers(5, len(text) - 1))]
        truth["exit"] = 2
    elif kind == "not_trace_preserving":
        spec = _kraus(rng, 2)
        spec["ops"] = (np.asarray(spec["ops"]) * 1.1).tolist()
        doc = {"channels": [spec, _named("depolarizing", rng.uniform())]}
        truth["exit"] = 2
    elif kind == "qutrit_pe":
        doc = {"channels": _gpc3_pair(rng, yes)}
        truth["exit"] = 3
    elif kind == "simulate_guess_prior":
        same = _named("depolarizing", rng.uniform())
        doc = {"channels": [same, same], "p1": p1}
        truth["exit"] = 4
    elif kind == "nan_affine":
        m = np.diag(rng.uniform(0.2, 0.8, 3)).tolist()
        m[int(rng.integers(3))][int(rng.integers(3))] = float("nan")
        doc = {"channels": [{"kind": "affine", "m": m, "c": [0.0, 0.0, 0.0]},
                            _named("bit_flip", 1.0)]}
        truth["exit"] = 2
    else:  # transpose_map
        doc = {"channels": [{"kind": "affine", "m": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                             "c": [0.0, 0.0, 0.0]}, _named("bit_flip", 1.0)], "p1": 0.5}
        truth["exit"] = 2
    subcommand = {"perfect-entangled": "perfect", "bad_json": "pe", "not_trace_preserving": "pe",
                  "qutrit_pe": "pe", "simulate_guess_prior": "simulate", "nan_affine": "pe",
                  "transpose_map": "pe"}.get(kind, kind)
    text = doc if isinstance(doc, str) else json.dumps(doc)
    tags = {"malformed"} if truth["exit"] != 0 else set()
    if "verdict" in truth and yes:
        tags.add("known_yes")
    return Op(index, kind, {"subcommand": subcommand, "flags": flags, "text": text},
              truth=truth, tags=frozenset(tags))


def prepare(op: Op, workdir: str) -> None:
    """Write the op's spec file; done before the op's cycle is timed."""
    path = os.path.join(workdir, f"{op.index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(op.payload["text"])
    op.payload["path"] = path
    op.payload["argv"] = [op.payload["subcommand"], path, *op.payload["flags"]]


def run(op: Op) -> dict:
    """One child process, waited for before returning; its output goes through files."""
    base = op.payload["path"]
    with open(base + ".out", "w+b") as out, open(base + ".err", "w+b") as err:
        child = subprocess.Popen([sys.executable, "-m", "qdiscrim", *op.payload["argv"]],
                                 stdout=out, stderr=err)
        code, usage = wait_child(child, CHILD_TIMEOUT_S)
        out.seek(0)
        err.seek(0)
        return {"exit": code, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "maxrss_kib": usage.ru_maxrss}


def run_inprocess(op: Op) -> dict:
    """The same op through qdiscrim.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qdiscrim.cli.main(op.payload["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error ends `python -m qdiscrim` with exit 1
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def encode(answer: dict) -> bytes:
    return repr((answer["exit"], answer["stdout"])).encode()



def expected_spans(op: Op) -> dict:
    return {"cli.main": 1}


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def check(op: Op, answer: dict) -> str | None:
    expected = op.truth["exit"]
    if answer["exit"] != expected:
        return f"exit code {answer['exit']}, documented {expected}"
    stdout = answer["stdout"]
    if expected != 0:
        return None if not stdout.strip() else "error exit wrote a report to stdout"
    try:
        report = _strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(report, dict) or report.get("command") != op.payload["subcommand"]:
        return "report does not name its subcommand"
    pe = report.get("p_error", report.get("p_error_closed_form"))
    if pe is not None and not 0.0 <= pe <= min(report["p1"], report["p2"]) + 1e-12:
        return f"P_E {pe!r} outside [0, min(p1, p2)]"
    if "verdict" in op.truth and report["verdict"] != op.truth["verdict"]:
        return f"verdict {report['verdict']!r}, ground truth {op.truth['verdict']!r}"
    return None


def known_defect(op: Op, answer: dict) -> bool:
    """True when a failed check is exactly the seed behaviour listed in KNOWN_DEFECTS."""
    if op.kind == "nan_affine":
        return answer["exit"] == 1 and "IndexError" in answer["stderr"] \
            and "sphereopt" in answer["stderr"]
    if op.kind == "transpose_map":
        if answer["exit"] != 0:
            return False
        try:
            return _strict_json(answer["stdout"]).get("p_error") == 0.0
        except ValueError:
            return False
    return False
