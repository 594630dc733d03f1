"""Command-line front end.

Reads channel-spec files (JSON: {"channels": [spec, spec], "p1": 0.5})
and emits one JSON report per invocation on stdout.  Exit codes:
0 success, 2 input error, 3 unsupported dimension, 4 semantic misuse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import (
    AffineChannel,
    GpcChannel,
    KrausChannel,
    affine_to_kraus,
    bloch_to_ket,
    gpc_channel,
    gpc_to_kraus,
    kraus_to_affine,
    named_channel,
    pauli_channel,
    pauli_to_affine,
)
from .discrim import (
    REGIME_GUESS_PRIOR,
    PriorPair,
    min_error_probability,
    pauli_closed_form,
    pauli_sacchi_form,
)
from .errors import QdiscrimError, UnsupportedDimension
from .oracle import helstrom_error_at, sampled_min_error, simulate_experiment
from .perfect import (
    STRATEGY_ENTANGLED,
    STRATEGY_PRODUCT,
    cross_operators,
    gpc_perfect_entangled,
    numeric_isotropic_search,
    qubit_product_perfect,
    unitary_perfect,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_SEMANTIC = 4

_KINDS = ("kraus", "pauli", "gpc", "named", "unitary", "affine")


class CliInputError(Exception):
    """Bad command-line input; the message carries the location and `code` the exit code."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _parse_complex_matrix(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{where}: malformed complex matrix ({exc})") from None
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise CliInputError(
            f"{where}: complex matrices are nested [[re, im], ...] rows of a square matrix")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass(frozen=True)
class ChannelSpec:
    """One parsed channel in all its forms; `gpc` is None for other kinds, `affine` for d >= 3."""

    kind: str
    kraus: KrausChannel
    gpc: GpcChannel | None
    affine: AffineChannel | None


def _require_qubits(specs: list[ChannelSpec], command: str) -> None:
    for spec in specs:
        if spec.affine is None:
            raise UnsupportedDimension(
                f"{command} requires qubit channels, got dimension {spec.kraus.dim}")


def _parse_spec(raw, where: str) -> ChannelSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise CliInputError(f"{where}: each channel spec is an object with a 'kind' field")
    kind = raw["kind"]
    if kind not in _KINDS:
        raise CliInputError(f"{where}: unknown kind {kind!r}; expected one of {_KINDS}")
    gpc = affine = None
    try:
        if kind == "affine":
            affine = AffineChannel(raw.get("m"), raw.get("c"))
            kraus = affine_to_kraus(affine)
        elif kind in ("kraus", "unitary"):
            ops = raw.get("ops") if kind == "kraus" else [raw.get("matrix")]
            if not isinstance(ops, list) or not ops:
                raise CliInputError(f"{where}: kraus spec needs a nonempty 'ops' list")
            kraus = KrausChannel([_parse_complex_matrix(op, where) for op in ops])
        elif kind == "named":
            kraus = named_channel(raw.get("name"), raw.get("param"))
        else:
            d = raw.get("d") if kind == "gpc" else 2
            if isinstance(d, bool) or not isinstance(d, int):
                raise CliInputError(f"{where}: gpc spec needs an integer 'd', got {d!r}")
            gpc = gpc_channel(d, raw.get("q")) if kind == "gpc" else pauli_channel(raw.get("q"))
            kraus = gpc_to_kraus(gpc)
        if affine is None and kraus.dim == 2:
            affine = pauli_to_affine(gpc) if kind == "pauli" else kraus_to_affine(kraus)
        return ChannelSpec(kind, kraus, gpc, affine)
    except QdiscrimError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"{where}: {exc}") from None


def _load_file(path: str, expect: int | None) -> tuple[list[ChannelSpec], float | None, str]:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    try:
        doc = json.loads(blob.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("channels"), list):
        raise CliInputError(f"{path}: expected an object with a 'channels' list")
    raw_channels = doc["channels"]
    if expect is not None and len(raw_channels) != expect:
        raise CliInputError(f"{path}: expected exactly {expect} channels, got {len(raw_channels)}")
    specs = [_parse_spec(raw, f"{path}: channels[{i}]") for i, raw in enumerate(raw_channels)]
    p1 = doc.get("p1")
    # NaN and integers too large for a float fail the range test too.
    if p1 is not None and (isinstance(p1, bool) or not isinstance(p1, (int, float))
                           or not 0.0 <= p1 <= 1.0):
        raise CliInputError(f"{path}: 'p1' must be a number in [0, 1]")
    return specs, p1, digest


def _priors(file_p1: float | None, flag_p1: float | None) -> PriorPair:
    """The --p1 flag wins over the file's p1, which wins over 0.5."""
    return PriorPair.from_p1(next(p for p in (flag_p1, file_p1, 0.5) if p is not None))


def _complex_vector(psi: np.ndarray) -> list[list[float]]:
    return np.column_stack([psi.real, psi.imag]).tolist()


def _affine_payload(aff: AffineChannel) -> dict:
    return {"kind": "affine", "m": aff.m.tolist(), "c": aff.c.tolist()}


def _cmd_pe(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    priors = _priors(file_p1, args.p1)
    _require_qubits(specs, "pe")
    result = min_error_probability(specs[0].affine, specs[1].affine, priors)
    return {
        "p1": priors.p1,
        "p2": priors.p2,
        "p_error": result.p_error,
        "regime": result.regime,
        "optimal_bloch": None if result.optimal_bloch is None else result.optimal_bloch.tolist(),
        "trace_norm_at_opt": result.trace_norm_at_opt,
        "affine_reps": [_affine_payload(spec.affine) for spec in specs],
    }


def _cmd_pe_pauli(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    for i, spec in enumerate(specs):
        if spec.kind != "pauli":
            raise CliInputError(f"{args.file}: channels[{i}]: pe-pauli requires pauli-kind specs")
    priors = _priors(file_p1, args.p1)
    q1, q2 = specs[0].gpc.q, specs[1].gpc.q
    closed = pauli_closed_form(q1, q2, priors)
    sacchi = pauli_sacchi_form(q1, q2, priors)
    return {
        "p1": priors.p1,
        "p2": priors.p2,
        "p_error_closed_form": closed.p_error,
        "p_error_sacchi_form": sacchi,
        "forms_agree": bool(abs(closed.p_error - sacchi) <= 1e-12),
        "regime": closed.regime,
        "optimal_axis": None if closed.optimal_bloch is None else
            "xyz"[int(np.argmax(closed.optimal_bloch))],
        "optimal_bloch": None if closed.optimal_bloch is None else closed.optimal_bloch.tolist(),
        "trace_norm_at_opt": closed.trace_norm_at_opt,
    }


def _residual(e1: KrausChannel, e2: KrausChannel, verdict) -> float | None:
    if verdict.certificate is None:
        return None
    ops = cross_operators(e1, e2)
    psi = verdict.certificate
    if psi.size == e1.dim ** 2:
        ops = [np.kron(op, np.eye(e1.dim)) for op in ops]
    return float(max(abs(psi.conj() @ op @ psi) for op in ops))


def _cmd_perfect(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    e1, e2 = specs[0].kraus, specs[1].kraus
    if e1.dim != e2.dim:
        raise CliInputError(f"channel dimensions differ: {e1.dim} vs {e2.dim}")
    entangled = args.strategy == STRATEGY_ENTANGLED
    if not entangled and all(spec.kind == "unitary" for spec in specs):
        verdict = unitary_perfect(e1.ops[0], e2.ops[0])
    elif not entangled and e1.dim == 2:
        verdict = qubit_product_perfect(e1, e2)
    elif entangled and specs[0].gpc is not None and specs[0].kind == specs[1].kind:
        verdict = gpc_perfect_entangled(specs[0].gpc, specs[1].gpc)
    else:
        verdict = numeric_isotropic_search(cross_operators(e1, e2), entangled, seed=args.seed,
                                           restarts=args.restarts)
    return {
        "strategy": args.strategy,
        "verdict": verdict.distinguishable,
        "method": verdict.method,
        "certificate": None if verdict.certificate is None else
            _complex_vector(verdict.certificate),
        "residual": _residual(e1, e2, verdict),
    }


def _cmd_oracle(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    priors = _priors(file_p1, args.p1)
    _require_qubits(specs, "oracle")
    e1, e2 = specs[0].kraus, specs[1].kraus
    estimate = sampled_min_error(e1, e2, priors, args.n, args.entangled, args.seed)
    body = {
        "p1": priors.p1,
        "p2": priors.p2,
        "p_error_estimate": estimate.p_error_estimate,
        "best_input": _complex_vector(estimate.best_input),
        "samples": estimate.samples,
        "entangled": estimate.entangled,
    }
    if not args.entangled:
        analytic = min_error_probability(specs[0].affine, specs[1].affine, priors)
        body["analytic_p_error"] = analytic.p_error
        body["gap"] = estimate.p_error_estimate - analytic.p_error
    return body


def _cmd_simulate(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    priors = _priors(file_p1, args.p1)
    _require_qubits(specs, "simulate")
    analytic = min_error_probability(specs[0].affine, specs[1].affine, priors)
    if args.input == "optimal":
        if analytic.regime == REGIME_GUESS_PRIOR:
            raise CliInputError(
                "no optimal input exists; the guess-prior regime needs no measurement",
                EXIT_SEMANTIC)
        bloch = analytic.optimal_bloch
    else:
        try:
            bloch = np.array([float(x) for x in args.input.split(",")])
        except ValueError:
            raise CliInputError(
                f"--input must be 'optimal' or 'x,y,z', got {args.input!r}") from None
        # Written so that a NaN entry fails the test too.
        if bloch.shape != (3,) or not abs(np.linalg.norm(bloch) - 1.0) <= 1e-9:
            raise CliInputError(
                "--input Bloch vector must be a unit 3-vector (a pure probe state)")
    psi = bloch_to_ket(bloch)
    e1, e2 = specs[0].kraus, specs[1].kraus
    empirical = simulate_experiment(e1, e2, priors, psi, args.trials, args.seed)
    reference = helstrom_error_at(e1, e2, priors, psi)
    sigma = np.sqrt(max(reference * (1.0 - reference), 0.0) / args.trials)
    # A deterministic outcome (sigma 0) that the sample missed has no finite z-score.
    z_score = 0.0 if sigma == 0.0 and empirical == reference else (
        None if sigma == 0.0 else (empirical - reference) / sigma)
    return {
        "p1": priors.p1,
        "p2": priors.p2,
        "input_bloch": bloch.tolist(),
        "empirical_error": empirical,
        "analytic_error": reference,
        "trials": args.trials,
        "z_score": z_score,
    }


def _cmd_convert(args, specs: list[ChannelSpec], file_p1: float | None) -> dict:
    if len(specs) not in (1, 2):
        raise CliInputError(f"expected one or two channels, got {len(specs)}")
    _require_qubits(specs, "convert")
    body = {"channels": [_affine_payload(spec.affine) for spec in specs]}
    if file_p1 is not None:
        body["p1"] = file_p1
    return body


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscrim",
        description="Minimum-error and perfect discrimination of single-qubit quantum operations.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="channel-spec JSON file")
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")
    prior = argparse.ArgumentParser(add_help=False)
    prior.add_argument("--p1", type=float, default=None, help="prior of the first channel")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    def add(name, func, helptext, *parents):
        cmd = sub.add_parser(name, help=helptext, parents=[common, *parents])
        cmd.set_defaults(func=func, expect=2)
        return cmd

    add("pe", _cmd_pe, "exact minimum error probability (unentangled strategy)", prior)
    add("pe-pauli", _cmd_pe_pauli, "closed forms for two Pauli channels", prior)

    perf = add("perfect", _cmd_perfect, "decide perfect distinguishability", seeded)
    perf.add_argument("--strategy", choices=(STRATEGY_PRODUCT, STRATEGY_ENTANGLED),
                      default=STRATEGY_PRODUCT)
    perf.add_argument("--restarts", type=_positive_int, default=16)

    orc = add("oracle", _cmd_oracle, "sampled brute-force error estimate", prior, seeded)
    orc.add_argument("--n", type=_positive_int, default=10000, help="number of Haar samples")
    orc.add_argument("--entangled", action="store_true")

    sim = add("simulate", _cmd_simulate, "Monte Carlo check of the Helstrom measurement",
              prior, seeded)
    sim.add_argument("--input", default="optimal", help="'optimal' or a Bloch triple 'x,y,z'")
    sim.add_argument("--trials", type=_positive_int, default=100000)

    conv = add("convert", _cmd_convert, "emit the affine Bloch form (M, c) of each channel")
    conv.set_defaults(expect=None)  # one or two channels, counted by _cmd_convert
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        specs, file_p1, digest = _load_file(args.file, args.expect)
        body = args.func(args, specs, file_p1)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except QdiscrimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION if isinstance(exc, UnsupportedDimension) else EXIT_INPUT
    report = {"tool": "qdiscrim", "version": __version__, "command": args.command,
              "input_digest": f"sha256:{digest}", **body}
    print(json.dumps(report, indent=2 if args.pretty else None, allow_nan=False))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
