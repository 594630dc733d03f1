"""Replay the golden corpus of CLI reports in tests/golden/corpus.json.

The corpus was written by tests/golden/record.py.  A replay must keep
every verdict, method and regime, and every number within 1e-12.  A
probe that moves must still reach the recorded optimum within 1e-12.
Where the maximiser is unique, the probe may move by at most 1e-12 plus
the recorded probe's own error bound; where it is degenerate, any
maximiser will do.  A certificate must still certify, with residual
below 1e-8.  A
recorded verdict that contradicts the answer its pair was built with
is a defect of the recording commit; there the replay must give the
built answer.  Every qubit case is also fed through `convert`, and
`oracle` and `perfect` must answer the same on the converted file.
"""

import json

import numpy as np
import pytest

from golden.record import CORPUS, run_case
from qdiscrim.channels import AffineChannel, affine_to_kraus, kraus_to_affine

TOL = 1e-12

with open(CORPUS, encoding="utf-8") as _handle:
    CASES = json.load(_handle)


def _cases(command):
    return [case for case in CASES if case["argv"][0] == command]


def _close(a, b) -> bool:
    return np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=0.0, atol=TOL)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


def _pe_mismatch(case, new) -> str | None:
    old = case["report"]
    if new["regime"] != old["regime"]:
        return f"regime {new['regime']} != {old['regime']}"
    for key in ("p1", "p2", "p_error", "trace_norm_at_opt"):
        if abs(new[key] - old[key]) > TOL:
            return f"{key} moved by {new[key] - old[key]:.3e}"
    for new_rep, old_rep in zip(new["affine_reps"], old["affine_reps"], strict=True):
        if not (_close(new_rep["m"], old_rep["m"]) and _close(new_rep["c"], old_rep["c"])):
            return "affine representation moved"
    if old["optimal_bloch"] is None or new["optimal_bloch"] is None:
        return None if old["optimal_bloch"] == new["optimal_bloch"] else "probe appeared or vanished"
    if _close(new["optimal_bloch"], old["optimal_bloch"]):
        return None
    (e1, e2), p1, p2 = old["affine_reps"], old["p1"], old["p2"]
    m = p1 * np.array(e1["m"]) - p2 * np.array(e2["m"])
    c = p1 * np.array(e1["c"]) - p2 * np.array(e2["c"])
    r_old, r_new = np.array(old["optimal_bloch"]), np.array(new["optimal_bloch"])
    reach = float(np.linalg.norm(m @ r_new + c))
    if abs(float(np.linalg.norm(r_new)) - 1.0) > TOL or abs(reach - old["trace_norm_at_opt"]) > TOL:
        return f"probe moved to a non-optimal point reaching {reach!r}"
    # Stationarity m^T (m r + c) = lam r with lam above the top eigenvalue of
    # m^T m by `gap` makes the maximiser unique, and puts the recorded probe
    # within (its KKT residual) / gap of it.  A degenerate optimum has gap 0.
    grad = m.T @ (m @ r_old + c)
    lam = float(r_old @ grad)
    gap = lam - float(np.linalg.eigvalsh(m.T @ m)[-1])
    if gap > 1e-9:
        bound = TOL + float(np.linalg.norm(grad - lam * r_old)) / gap
        moved = float(np.max(np.abs(r_new - r_old)))
        if moved > bound:
            return f"probe moved by {moved:.3e} off a unique maximiser (bound {bound:.3e})"
    return None


def test_pe_reports_replay(workdir):
    failures = [(case["name"], msg) for case in _cases("pe")
                if (msg := _pe_mismatch(case, run_case(case, workdir))) is not None]
    assert not failures, failures


def test_pe_pauli_reports_replay(workdir):
    failures = []
    for case in _cases("pe-pauli"):
        old, new = case["report"], run_case(case, workdir)
        same = all(new[key] == old[key] for key in ("regime", "optimal_axis", "forms_agree"))
        close = all(abs(new[key] - old[key]) <= TOL for key in
                    ("p_error_closed_form", "p_error_sacchi_form", "trace_norm_at_opt"))
        probes = (new["optimal_bloch"] is None) == (old["optimal_bloch"] is None) and (
            old["optimal_bloch"] is None or _close(new["optimal_bloch"], old["optimal_bloch"]))
        if not (same and close and probes):
            failures.append(case["name"])
    assert not failures, failures


def _perfect_mismatch(case, new) -> str | None:
    old = case["report"]
    # Where the recorded verdict contradicts the built answer, the built answer wins.
    expected = case.get("truth", old["verdict"])
    if new["verdict"] != expected or new["method"] != old["method"]:
        return f"{new['verdict']} by {new['method']}, expected {expected} by {old['method']}"
    if new["verdict"] != "yes":
        return None if new["certificate"] is None else "certificate on a non-yes verdict"
    return None if new["residual"] < 1e-8 else f"certificate residual {new['residual']!r}"


def test_perfect_reports_replay(workdir):
    failures = [(case["name"], msg) for case in _cases("perfect")
                if (msg := _perfect_mismatch(case, run_case(case, workdir))) is not None]
    assert not failures, failures


def test_corpus_covers_every_path():
    regimes = {case["report"]["regime"] for case in _cases("pe")}
    methods = {(case["report"]["method"], case["report"]["verdict"]) for case in _cases("perfect")}
    assert regimes == {"measure", "guess_prior"}
    assert {method for method, _ in methods} == {
        "unitary_polygon", "qubit_bloch_exhaustion", "gpc_orthogonality"}
    assert {verdict for _, verdict in methods} == {"yes", "no"}


def _dim(channel) -> int:
    if channel["kind"] == "gpc":
        return channel["d"]
    if channel["kind"] in ("kraus", "unitary"):
        return len(channel.get("matrix") or channel["ops"][0])
    return 2


QUBIT_CASES = [case for case in CASES if all(_dim(ch) == 2 for ch in case["spec"]["channels"])]


def _report(case, argv, spec, workdir):
    return run_case({"name": case["name"], "argv": argv, "spec": spec}, workdir)


def _with_converted(workdir, command):
    """(case, spec file that `convert` wrote for it) for the qubit cases of one command."""
    for case in QUBIT_CASES:
        if case["argv"][0] == command:
            yield case, _report(case, ["convert"], case["spec"], workdir)


def test_affine_readout_round_trip_on_corpus():
    affines = [channel for case in CASES for channel in case["spec"]["channels"]
               if channel["kind"] == "affine"]
    assert len(affines) == 10
    for channel in affines:
        m, c = np.array(channel["m"]), np.array(channel["c"])
        back = kraus_to_affine(affine_to_kraus(AffineChannel(m, c)))
        assert _close(back.m, m) and _close(back.c, c)


@pytest.mark.parametrize("command", ["pe", "pe-pauli", "perfect"])
def test_oracle_on_converted_files_matches_the_originals(workdir, command):
    # Helstrom errors depend on the channel, not on the Kraus operators that give it.
    argv = ["oracle", "--n", "16", "--seed", "5"]
    failures = []
    for case, converted in _with_converted(workdir, command):
        old = _report(case, argv, case["spec"], workdir)
        new = _report(case, argv, converted, workdir)
        if any(abs(new[key] - old[key]) > TOL for key in ("p_error_estimate", "analytic_p_error")):
            failures.append(case["name"])
    assert not failures, failures


@pytest.mark.parametrize("strategy", ["product", "entangled"])
def test_perfect_on_converted_files_keeps_the_verdicts(workdir, strategy):
    # An affine spec carries no Pauli form, so an entangled GPC `no` may become `unknown`.
    argv = ["perfect", "--strategy", strategy, "--restarts", "4"]
    pairs = list(_with_converted(workdir, "perfect"))
    assert len(pairs) == 52
    failures = []
    for case, converted in pairs:
        old = _report(case, argv, case["spec"], workdir)["verdict"]
        new = _report(case, argv, converted, workdir)["verdict"]
        if (old != new) if strategy == "product" else ({old, new} == {"yes", "no"}):
            failures.append((case["name"], old, new))
    assert not failures, failures
