import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kraus_channel
from golden.record import complex_json
from qdiscrim import cli
from qdiscrim.channels import kraus_to_affine
from qdiscrim.cli import EXIT_DIMENSION, EXIT_INPUT, EXIT_OK, EXIT_SEMANTIC, main


def write_spec(tmp_path, channels, p1=None, name="channels.json"):
    doc = {"channels": channels}
    if p1 is not None:
        doc["p1"] = p1
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _reject_constant(token):
    raise ValueError(f"stdout is not strict JSON: {token}")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_reject_constant) if out.strip() else None)


NAMED_DEP1 = {"kind": "named", "name": "depolarizing", "param": 1.0}
NAMED_IDENT = {"kind": "named", "name": "bit_flip", "param": 1.0}
PAULI_A = {"kind": "pauli", "q": [0.5, 0.5, 0.0, 0.0]}
PAULI_B = {"kind": "pauli", "q": [0.5, 0.0, 0.5, 0.0]}
UNITARY_X = {"kind": "unitary", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
UNITARY_Z = {"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}


def test_pe_identity_vs_depolarizing(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1])
    code, report = run(capsys, ["pe", path, "--p1", "0.5"])
    assert code == EXIT_OK
    assert report["p_error"] == pytest.approx(0.25, abs=1e-12)
    assert report["regime"] == "measure"
    assert report["version"]
    assert report["input_digest"].startswith("sha256:")
    assert len(report["affine_reps"]) == 2


def test_pe_identical_channels_guess_prior(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_IDENT])
    code, report = run(capsys, ["pe", path, "--p1", "0.7"])
    assert code == EXIT_OK
    assert report["p_error"] == pytest.approx(0.3)
    assert report["regime"] == "guess_prior"
    assert report["optimal_bloch"] is None


def test_pe_rejects_single_channel(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT])
    code, _ = run(capsys, ["pe", path])
    assert code == EXIT_INPUT


def test_pe_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"channels": [', encoding="utf-8")
    assert main(["pe", str(path)]) == EXIT_INPUT
    capsys.readouterr()


def test_pe_rejects_qutrit_channels(tmp_path, capsys):
    gpc3 = {"kind": "gpc", "d": 3, "q": [1.0] + [0.0] * 8}
    path = write_spec(tmp_path, [gpc3, gpc3])
    code, _ = run(capsys, ["pe", path])
    assert code == EXIT_DIMENSION


def test_gpc_dimension_without_basis_exits_3(tmp_path, capsys):
    gpc5 = {"kind": "gpc", "d": 5, "q": [1.0] + [0.0] * 24}
    path = write_spec(tmp_path, [gpc5, gpc5])
    assert main(["perfect", path]) == EXIT_DIMENSION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "channels[0]: basis defined for 2 <= d <= 4, got 5" in captured.err


def test_pe_file_p1_and_flag_override(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_IDENT], p1=0.7)
    _, report = run(capsys, ["pe", path])
    assert report["p_error"] == pytest.approx(0.3)
    _, report = run(capsys, ["pe", path, "--p1", "0.9"])
    assert report["p_error"] == pytest.approx(0.1)


def test_pe_pauli_reports_both_forms(tmp_path, capsys):
    path = write_spec(tmp_path, [PAULI_A, PAULI_B])
    code, report = run(capsys, ["pe-pauli", path])
    assert code == EXIT_OK
    assert report["p_error_closed_form"] == pytest.approx(0.25)
    assert report["p_error_sacchi_form"] == pytest.approx(0.25)
    assert report["forms_agree"] is True
    assert report["optimal_axis"] in ("x", "y", "z")


def test_pe_pauli_tie_broken_to_x(tmp_path, capsys):
    # identity vs sigma_z ties the x and y rows at 1; x wins.
    path = write_spec(tmp_path, [{"kind": "pauli", "q": [1, 0, 0, 0]},
                                 {"kind": "pauli", "q": [0, 0, 0, 1]}])
    _, report = run(capsys, ["pe-pauli", path])
    assert report["p_error_closed_form"] == pytest.approx(0.0, abs=1e-15)
    assert report["optimal_axis"] == "x"
    # Identical channels tie the reach with the bias; that tie guesses the prior.
    path = write_spec(tmp_path, [{"kind": "pauli", "q": [1, 0, 0, 0]}] * 2, name="same.json")
    _, report = run(capsys, ["pe-pauli", path])
    assert report["regime"] == "guess_prior"
    assert report["optimal_axis"] is None


def test_pe_pauli_rejects_other_kinds(tmp_path, capsys):
    path = write_spec(tmp_path, [PAULI_A, NAMED_IDENT])
    code, _ = run(capsys, ["pe-pauli", path])
    assert code == EXIT_INPUT


def test_perfect_unitary_pair(tmp_path, capsys):
    path = write_spec(tmp_path, [UNITARY_X, UNITARY_Z])
    code, report = run(capsys, ["perfect", path, "--strategy", "product"])
    assert code == EXIT_OK
    assert report["verdict"] == "yes"
    assert report["method"] == "unitary_polygon"
    assert report["residual"] < 1e-8


def test_perfect_gpc_entangled_vs_product(tmp_path, capsys):
    mixed = {"kind": "pauli", "q": [0.0, 0.2, 0.3, 0.5]}
    ident = {"kind": "pauli", "q": [1.0, 0.0, 0.0, 0.0]}
    path = write_spec(tmp_path, [mixed, ident])
    code, report = run(capsys, ["perfect", path, "--strategy", "entangled"])
    assert code == EXIT_OK
    assert report["verdict"] == "yes"
    assert report["method"] == "gpc_orthogonality"
    assert report["residual"] < 1e-8

    code, report = run(capsys, ["perfect", path, "--strategy", "product"])
    assert code == EXIT_OK
    assert report["verdict"] == "no"
    assert report["method"] == "qubit_bloch_exhaustion"
    assert report["certificate"] is None


def test_perfect_numeric_search_fallback(tmp_path, capsys):
    path = write_spec(tmp_path, [UNITARY_X, UNITARY_Z])
    code, report = run(capsys, ["perfect", path, "--strategy", "entangled", "--seed", "2"])
    assert code == EXIT_OK
    assert report["method"] == "numeric_search"
    assert report["verdict"] == "yes"
    assert report["residual"] < 1e-8


def test_oracle_reports_gap(tmp_path, capsys):
    path = write_spec(tmp_path, [PAULI_A, PAULI_B])
    code, report = run(capsys, ["oracle", path, "--n", "2000", "--seed", "4"])
    assert code == EXIT_OK
    assert report["analytic_p_error"] == pytest.approx(0.25)
    assert report["p_error_estimate"] == pytest.approx(0.25, abs=5e-3)
    assert report["gap"] >= -1e-9
    assert report["samples"] == 2006


def test_oracle_deterministic_for_seed(tmp_path, capsys):
    path = write_spec(tmp_path, [PAULI_A, PAULI_B])
    main(["oracle", path, "--n", "500", "--seed", "9"])
    first = capsys.readouterr().out
    main(["oracle", path, "--n", "500", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_simulate_optimal_input(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1])
    code, report = run(capsys, ["simulate", path, "--trials", "100000", "--seed", "13"])
    assert code == EXIT_OK
    assert report["analytic_error"] == pytest.approx(0.25, abs=1e-12)
    assert abs(report["z_score"]) < 4.0


def test_simulate_explicit_bloch_input(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1])
    code, report = run(capsys, ["simulate", path, "--input", "0,0,1", "--trials", "20000"])
    assert code == EXIT_OK
    assert report["input_bloch"] == [0.0, 0.0, 1.0]
    code, _ = run(capsys, ["simulate", path, "--input", "0,0,0.5", "--trials", "100"])
    assert code == EXIT_INPUT


def test_simulate_z_score_is_null_when_sigma_is_zero(tmp_path, capsys, monkeypatch):
    # |0> through the identity and through sigma_x gives orthogonal outputs,
    # so the Helstrom error is exactly 0 and its spread sigma is 0.
    sigma_x = {"kind": "named", "name": "bit_flip", "param": 0.0}
    path = write_spec(tmp_path, [NAMED_IDENT, sigma_x])
    argv = ["simulate", path, "--input", "0,0,1", "--trials", "100"]
    code, report = run(capsys, argv)
    assert code == EXIT_OK
    assert report["analytic_error"] == 0.0
    assert report["z_score"] == 0.0
    monkeypatch.setattr(cli, "simulate_experiment", lambda *args: 0.5)
    code, report = run(capsys, argv)
    assert code == EXIT_OK
    assert report["empirical_error"] == 0.5
    assert report["z_score"] is None


def test_simulate_guess_prior_is_semantic_misuse(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_IDENT])
    code, _ = run(capsys, ["simulate", path, "--p1", "0.7"])
    assert code == EXIT_SEMANTIC


def test_convert_amplitude_damping(tmp_path, capsys):
    path = write_spec(tmp_path, [{"kind": "named", "name": "amplitude_damping", "param": 0.36}])
    code, report = run(capsys, ["convert", path])
    assert code == EXIT_OK
    entry = report["channels"][0]
    np.testing.assert_allclose(entry["m"], np.diag([0.8, 0.8, 0.64]), atol=1e-12)
    np.testing.assert_allclose(entry["c"], [0.0, 0.0, 0.36], atol=1e-12)


def test_convert_kraus_sigma_y(tmp_path, capsys):
    sigma_y = {"kind": "kraus", "ops": [[[[0, 0], [0, -1]], [[0, 1], [0, 0]]]]}
    path = write_spec(tmp_path, [sigma_y])
    code, report = run(capsys, ["convert", path])
    assert code == EXIT_OK
    np.testing.assert_allclose(report["channels"][0]["m"], np.diag([-1.0, 1.0, -1.0]), atol=1e-12)


def test_convert_round_trip_is_bit_identical(tmp_path, capsys):
    original = write_spec(tmp_path, [NAMED_DEP1, {"kind": "named", "name": "amplitude_damping",
                                                  "param": 0.3}], p1=0.25)
    code, converted = run(capsys, ["convert", original])
    assert code == EXIT_OK
    reingested = tmp_path / "affine.json"
    reingested.write_text(json.dumps(converted), encoding="utf-8")

    code, direct = run(capsys, ["pe", str(original)])
    assert code == EXIT_OK
    code, via_affine = run(capsys, ["pe", str(reingested)])
    assert code == EXIT_OK
    for key in ("p_error", "regime", "optimal_bloch", "trace_norm_at_opt", "p1"):
        assert direct[key] == via_affine[key]


def test_affine_specs_run_under_every_subcommand(tmp_path, capsys):
    identity = {"kind": "affine", "m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "c": [0, 0, 0]}
    path = write_spec(tmp_path, [identity, identity])
    code, report = run(capsys, ["oracle", path, "--n", "10"])
    assert code == EXIT_OK and report["p_error_estimate"] == pytest.approx(0.5, abs=1e-12)
    code, report = run(capsys, ["perfect", path])
    assert code == EXIT_OK and report["verdict"] == "no"
    # Guessing the prior is optimal, so there is no optimal probe to simulate ...
    code, _ = run(capsys, ["simulate", path, "--p1", "0.7"])
    assert code == EXIT_SEMANTIC
    # ... but a given probe can be.
    code, report = run(capsys, ["simulate", path, "--input", "1,0,0", "--trials", "100"])
    assert code == EXIT_OK
    assert report["input_bloch"] == [1.0, 0.0, 0.0] and report["analytic_error"] == 0.5


def test_invalid_spec_is_anchored(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, {"kind": "pauli", "q": [0.5, 0.5, 0.5, 0.5]}])
    code = main(["pe", path])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "channels[1]" in err
    # JSON true is not a prior, and a fractional dimension is not truncated.
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1], p1=True, name="bool_p1.json")
    code = main(["pe", path])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "bool_p1.json: 'p1'" in err
    gpc = {"kind": "gpc", "d": 2.7, "q": [1.0, 0.0, 0.0, 0.0]}
    path = write_spec(tmp_path, [NAMED_IDENT, gpc], name="float_d.json")
    code = main(["convert", path])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "channels[1]" in err and "'d'" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "0"],
    ["oracle", "--n", "-5"],
    ["simulate", "--trials", "0"],
    ["simulate", "--trials", "ten"],
    ["perfect", "--strategy", "product", "--restarts", "0"],
])
def test_count_flags_take_positive_integers(tmp_path, capsys, argv):
    gpc3 = {"kind": "gpc", "d": 3, "q": [1.0] + [0.0] * 8}
    path = write_spec(tmp_path, [gpc3, gpc3])
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT
    assert captured.out == ""
    assert "positive integer" in captured.err


@pytest.mark.parametrize("channel", [
    {"kind": "affine", "m": [[0.5, 0, 0], [0, float("nan"), 0], [0, 0, 0.5]], "c": [0, 0, 0]},
    {"kind": "affine", "m": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "c": [0, float("inf"), 0]},
    {"kind": "kraus", "ops": [[[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]]},
    {"kind": "pauli", "q": [float("nan"), 0.0, 0.0, 0.0]},
])
def test_pe_rejects_non_finite_numbers(tmp_path, capsys, channel):
    path = write_spec(tmp_path, [channel, NAMED_IDENT])
    code = main(["pe", path])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "channels[0]" in captured.err and "must be finite" in captured.err


def test_non_finite_prior_and_probe_are_input_errors(tmp_path, capsys):
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1], p1=float("nan"))
    assert main(["pe", path]) == EXIT_INPUT
    path = write_spec(tmp_path, [NAMED_IDENT, NAMED_DEP1], name="ok.json")
    assert main(["pe", path, "--p1", "nan"]) == EXIT_INPUT
    assert main(["simulate", path, "--input", "nan,0,0", "--trials", "100"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--input" in captured.err


TRANSPOSE_MAP = {"kind": "affine", "m": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "c": [0, 0, 0]}
NON_UNITARY = {"kind": "unitary", "matrix": [[[1, 0], [0.5, 0]], [[0, 0], [1, 0]]]}
GPC3 = {"kind": "gpc", "d": 3, "q": [1.0] + [0.0] * 8}

# One row per raise site in cli.py, plus main's handler for solver errors:
# (argv after the file, file contents, exit code, channel index named on stderr or None).
# argparse's own usage errors are covered by test_count_flags_take_positive_integers.
ERROR_EXITS = {
    "missing_file": (["pe"], None, EXIT_INPUT, None),
    "malformed_json": (["pe"], '{"channels": [', EXIT_INPUT, None),
    "no_channels_list": (["pe"], {"chans": []}, EXIT_INPUT, None),
    "channel_count": (["pe"], {"channels": [NAMED_IDENT]}, EXIT_INPUT, None),
    "bool_p1": (["pe"], {"channels": [NAMED_IDENT, NAMED_DEP1], "p1": True}, EXIT_INPUT, None),
    # A NaN prior has no strict JSON form, so convert cannot pass it on.
    "nan_p1": (["convert"], {"channels": [NAMED_IDENT], "p1": float("nan")}, EXIT_INPUT, None),
    "huge_p1": (["pe"], {"channels": [NAMED_IDENT, NAMED_DEP1], "p1": 10 ** 400}, EXIT_INPUT, None),
    "spec_not_object": (["pe"], {"channels": [NAMED_IDENT, 3]}, EXIT_INPUT, 1),
    "unknown_kind": (["pe"], {"channels": [{"kind": "shear"}, NAMED_IDENT]}, EXIT_INPUT, 0),
    "kraus_without_ops": (["pe"], {"channels": [{"kind": "kraus"}, NAMED_IDENT]}, EXIT_INPUT, 0),
    "malformed_complex": (["pe"], {"channels": [{"kind": "kraus", "ops": [[[["a", 0]]]]},
                                                NAMED_IDENT]}, EXIT_INPUT, 0),
    "huge_entry": (["pe"], {"channels": [NAMED_IDENT, {"kind": "pauli",
                                                       "q": [10 ** 400, 0, 0, 0]}]}, EXIT_INPUT, 1),
    "not_complex_pairs": (["perfect"], {"channels": [UNITARY_X, {
        "kind": "unitary", "matrix": [[1, 0], [0, 1]]}]}, EXIT_INPUT, 1),
    "fractional_d": (["convert"], {"channels": [{"kind": "gpc", "d": 2.7, "q": [1, 0, 0, 0]}]},
                     EXIT_INPUT, 0),
    "missing_param": (["pe"], {"channels": [NAMED_IDENT, {"kind": "named", "name": "bit_flip"}]},
                      EXIT_INPUT, 1),
    "string_param": (["pe"], {"channels": [NAMED_IDENT, {"kind": "named", "name": "bit_flip",
                                                         "param": "0.5"}]}, EXIT_INPUT, 1),
    "bool_param": (["pe"], {"channels": [{"kind": "named", "name": "bit_flip", "param": True},
                                         NAMED_IDENT]}, EXIT_INPUT, 0),
    "invalid_distribution": (["pe-pauli"], {"channels": [PAULI_A, {
        "kind": "pauli", "q": [0.5, 0.5, 0.5, 0.5]}]}, EXIT_INPUT, 1),
    "non_cp_affine": (["pe"], {"channels": [TRANSPOSE_MAP, NAMED_IDENT]}, EXIT_INPUT, 0),
    "non_unitary_matrix": (["perfect"], {"channels": [UNITARY_X, NON_UNITARY]}, EXIT_INPUT, 1),
    "gpc_without_basis": (["perfect"], {"channels": [{"kind": "gpc", "d": 5, "q": [1] + [0] * 24},
                                                     GPC3]}, EXIT_DIMENSION, 0),
    "qutrit_pe": (["pe"], {"channels": [GPC3, GPC3]}, EXIT_DIMENSION, None),
    "pe_pauli_kinds": (["pe-pauli"], {"channels": [PAULI_A, NAMED_IDENT]}, EXIT_INPUT, 1),
    "perfect_dimensions_differ": (["perfect"], {"channels": [UNITARY_X, GPC3]}, EXIT_INPUT, None),
    "simulate_guess_prior": (["simulate", "--p1", "0.7"], {"channels": [NAMED_IDENT] * 2},
                             EXIT_SEMANTIC, None),
    "input_not_numbers": (["simulate", "--input", "abc"], {"channels": [NAMED_IDENT, NAMED_DEP1]},
                          EXIT_INPUT, None),
    "input_not_unit": (["simulate", "--input", "0,0,0.5"], {"channels": [NAMED_IDENT, NAMED_DEP1]},
                       EXIT_INPUT, None),
    "convert_three_channels": (["convert"], {"channels": [NAMED_IDENT] * 3}, EXIT_INPUT, None),
    "prior_out_of_range": (["pe", "--p1", "1.5"], {"channels": [NAMED_IDENT, NAMED_DEP1]},
                           EXIT_INPUT, None),
}


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
def test_every_error_exit_writes_one_located_line(tmp_path, capsys, name):
    argv, doc, expected, index = ERROR_EXITS[name]
    path = tmp_path / "spec.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not supported between" not in lines[0]
    if index is not None:
        assert f"channels[{index}]" in lines[0]


# Values that no field accepts, or that only some do: wrong types, NaN, overflow.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 30),
                  st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), max_size=4),
                  st.sampled_from([float("nan"), float("inf"), 1e308, 10 ** 400]))
_SUBCOMMANDS = (["pe"], ["pe-pauli"], ["perfect", "--restarts", "2"],
                ["perfect", "--strategy", "entangled", "--restarts", "2"],
                ["oracle", "--n", "8"], ["oracle", "--n", "8", "--entangled"],
                ["simulate", "--trials", "20"], ["simulate", "--trials", "20", "--input", "0,0,1"],
                ["convert"])


_KINDS = ("kraus", "unitary", "named", "pauli", "gpc", "affine")


@st.composite
def _specs(draw, kinds=_KINDS):
    """A well-formed spec of one of the kinds, then maybe one field deleted or spoiled."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from([2, 2, 3]))
    if kind in ("kraus", "unitary"):
        ops = random_kraus_channel(rng, dim, 1 if kind == "unitary" else None).ops
        spec = {"ops": complex_json(ops)} if kind == "kraus" else {"matrix": complex_json(ops[0])}
    elif kind == "named":
        spec = {"name": draw(st.sampled_from(["bit_flip", "amplitude_damping", "depolarizing"])),
                "param": draw(st.floats(0.0, 1.0))}
    elif kind in ("pauli", "gpc"):
        d = 2 if kind == "pauli" else draw(st.integers(2, 5))
        spec = {"q": rng.dirichlet(np.ones(d * d)).tolist(), **({"d": d} if kind == "gpc" else {})}
    else:
        aff = kraus_to_affine(random_kraus_channel(rng))
        scale = draw(st.sampled_from([1.0, 1.0, 1.5]))
        spec = {"m": (scale * aff.m).tolist(), "c": (scale * aff.c).tolist()}
    spec["kind"] = kind
    if rng.random() < 0.25:
        field = draw(st.sampled_from(sorted(spec)))
        if draw(st.booleans()):
            del spec[field]
        else:
            spec[field] = draw(_JUNK)
    return spec


@st.composite
def _spec_files(draw):
    """Mostly two channels, often of one kind, and no prior or a valid one,
    so that most runs get past parsing."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = (rng.choice(_KINDS),) if rng.random() < 0.5 else _KINDS
    doc = {"channels": [draw(_specs(kinds)) for _ in range(rng.choice([2, 2, 2, 2, 1, 3]))]}
    prior = rng.choice(["none", "none", "valid", "junk"])
    if prior != "none":
        doc["p1"] = draw(st.floats(0.0, 1.0) if prior == "valid" else _JUNK)
    return doc


@settings(max_examples=100, deadline=None)
@given(_spec_files(), st.sampled_from(_SUBCOMMANDS))
def test_cli_exit_contract_on_fuzzed_spec_files(tmp_path_factory, doc, argv):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DIMENSION, EXIT_SEMANTIC)
    if code == EXIT_OK:
        assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant), dict)
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
