"""Benchmark for qdiscrim: one seeded, closed-loop workload per run, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload pe_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One caller runs one op at a time, in cycles of the workload's input mix,
until --seconds of op time have passed; each cycle's answers are checked
after the cycle, outside the timed region. With --trace 0 the last line
holds the end-to-end metrics. With --trace 1 every cycle runs once with
each public qdiscrim function wrapped in a timing span and once without,
and the last line holds the per-layer metrics. The line before the last
is a report: environment, input mix, failures, known seed defects and
digests of the inputs and answers.
"""

from __future__ import annotations

import argparse
import array
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
WORKLOADS = ("pe_sweep", "perfect_decide", "oracle_crosscheck", "cli_cold")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
MIX_TAGS = ("hard_case", "guess_prior", "numeric_search", "known_yes", "malformed", "known_defect")

# One process, one BLAS thread: set before numpy loads, inherited by every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["PYTHONPATH"] = SRC
sys.path[:0] = [SRC, ROOT]

import numpy as np  # noqa: E402

from perfbench.common import wait_child  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def fingerprint(obj) -> bytes:
    """Exact, canonical bytes of a generated input (arrays bit for bit)."""
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype}{obj.shape}".encode() + obj.tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(k.encode() + b":" + fingerprint(obj[k]) for k in sorted(obj)) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(fingerprint(x) for x in obj) + b"]"
    return repr(obj).encode()


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _median_wall(argv: list[str], repeats: int) -> float:
    """Median wall seconds of `repeats` runs of a fresh process, each waited for."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = wait_child(subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL), 120.0)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}")
    return statistics.median(times)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "load": "one process, one caller, closed loop; cli_cold runs one child at a time"}


class Tally:
    """What a timed loop keeps: wall time and verdict per op, the input mix, digests."""

    def __init__(self, module):
        self.module = module
        self.ns = array.array("q")  # 8 bytes an op, so peak RSS barely depends on the op count
        self.busy_ns = 0
        self.untraced_ns = 0
        self.failed = self.known = self.verified = 0
        self.failures: dict[str, int] = {}
        self.mix = dict.fromkeys(MIX_TAGS, 0)
        self.inputs: list[bytes] = []
        self.answers: list[bytes] = []
        self.child_rss_kib = 0

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9

    def add(self, op, answer, ns: int, reason: str | None, known: bool) -> None:
        self.ns.append(ns)
        self.busy_ns += ns
        tags = set(op.tags)
        if answer is not None:
            if hasattr(self.module, "answer_tags"):
                tags |= self.module.answer_tags(answer)
            if isinstance(answer, dict):
                self.child_rss_kib = max(self.child_rss_kib, answer.get("maxrss_kib", 0))
        if known:
            self.known += 1
            tags.add("known_defect")
        elif reason is not None:
            self.failed += 1
            self.failures[reason] = self.failures.get(reason, 0) + 1
        else:
            self.verified += 1
        for tag in tags:
            self.mix[tag] += 1
        if len(self.inputs) < self.module.DIGEST_OPS:
            self.inputs.append(fingerprint(op.payload.get("text", op.payload)))
            self.answers.append(b"!" if answer is None else self.module.encode(answer))


def _one_pass(runner, batch, tracer) -> list[tuple]:
    """Run a cycle of ops; each op's wall time covers the program call and nothing else."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for op in batch:
            if tracer is not None:
                tracer.op_id = op.index
            start = time.perf_counter_ns()
            try:
                answer, error = runner(op), None
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                answer, error = None, f"{type(exc).__name__}: {exc}"
            results.append((answer, error, time.perf_counter_ns() - start))
            if tracer is not None:
                tracer.op_id = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def _judge(module, op, answer, error) -> tuple[str | None, bool]:
    """Failure reason (None when verified) and whether it is a listed seed defect."""
    if error is not None:
        return error, False
    reason = module.check(op, answer)
    if reason is not None and getattr(module, "known_defect", lambda o, a: False)(op, answer):
        return None, True
    return reason, False


def timed_loop(module, runner, seed: int, seconds: float, workdir: str, tracer=None) -> Tally:
    """Closed loop over whole cycles until `seconds` of op time have passed.

    With a tracer, each cycle runs traced and then untraced, so both passes
    see the same machine state; the untraced answers must match bit for bit
    and each op must produce the spans its workload expects.
    """
    tally = Tally(module)
    cycle = len(module.CYCLE)
    index = 0
    while index == 0 or (tally.busy_ns + tally.untraced_ns) / 1e9 < seconds:
        batch = [module.make_op(seed, i) for i in range(index, index + cycle)]
        for op in batch:
            if hasattr(module, "prepare"):
                module.prepare(op, workdir)
        first_span = len(tracer.spans) if tracer is not None else 0
        results = _one_pass(runner, batch, tracer)
        replay = _one_pass(runner, batch, None) if tracer is not None else None
        spans = tracer.span_counts(first_span) if tracer is not None else None
        for k, op in enumerate(batch):
            answer, error, ns = results[k]
            reason, known = _judge(module, op, answer, error)
            if replay is not None and error is None:
                if replay[k][1] is not None or module.encode(replay[k][0]) != module.encode(answer):
                    reason, known = "traced answer differs from the untraced one", False
                else:
                    got = spans.get(op.index, {})
                    for name, count in module.expected_spans(op).items():
                        if got.get(name, 0) != count:
                            reason, known = f"{got.get(name, 0)} spans of {name}, expected {count}", False
            tally.add(op, answer, ns, reason, known)
            if replay is not None:
                tally.untraced_ns += replay[k][2]
        index += cycle
    return tally


def warm_up(module, runner, seed: int, workdir: str, count: int) -> None:
    """Ops from far along the seed's stream, so no timed op repeats one of them."""
    for i in range(count):
        op = module.make_op(seed, 10**9 + i)
        if hasattr(module, "prepare"):
            module.prepare(op, workdir)
        runner(op)


def end_to_end(module, tally: Tally, setup_s: float) -> tuple[dict, dict]:
    peak_kib = tally.child_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = sorted(ns / 1e6 for ns in tally.ns)
    tail = percentile(ms, module.TAIL_PERCENTILE)
    metrics = {
        "throughput_per_s": (tally.verified / tally.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    tail_info = {"percentile": module.TAIL_PERCENTILE, "samples": len(ms),
                 "beyond": sum(x > tail for x in ms)}
    return metrics, tail_info


def measure_setup(workload: str, seed: int) -> float:
    probe = [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"), workload, str(seed)]
    return _median_wall(probe, SETUP_REPEATS)


def import_metrics() -> dict:
    """Start-up costs of a command-line call, from outside: bare interpreter, numpy, qdiscrim.cli."""
    out = {}
    for name, code in (("cli.interpreter_ms", "pass"), ("cli.numpy_import_ms", "import numpy"),
                       ("cli.import_ms", "import qdiscrim.cli")):
        out[name] = (_median_wall([sys.executable, "-c", code], IMPORT_REPEATS) * 1e3, "ms")
    return out


def measure(module, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, dict, Tally]:
    report = {}
    if not trace:
        setup_s = measure_setup(module.NAME, seed)
        warm_up(module, module.run, seed, workdir, module.WARMUP_OPS)
        tally = timed_loop(module, module.run, seed, seconds, workdir)
        metrics, report["tail"] = end_to_end(module, tally, setup_s)
        return metrics, report, tally
    runner = getattr(module, "run_inprocess", module.run)
    warm_up(module, runner, seed, workdir, len(module.CYCLE))
    tracer = Tracer()
    tally = timed_loop(module, runner, seed, seconds, workdir, tracer)
    metrics = tracer.layer_metrics(tally.busy_s)
    metrics.update(import_metrics())
    untraced_s = tally.untraced_ns / 1e9
    metrics["trace.overhead_ratio"] = (tally.busy_s / untraced_s, "ratio")
    metrics.update({f"mix.{tag}": (count, "count") for tag, count in tally.mix.items()})
    n = len(tally.ns)
    report.update({"throughput_untraced_per_s": n / untraced_s,
                   "throughput_traced_per_s": n / tally.busy_s, "spans": len(tracer.spans)})
    tracer.write(os.path.join(WORK, f"spans_{module.NAME}.jsonl"))
    return metrics, report, tally


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "qdiscrim", "__init__.py")):
        print(f"error: no qdiscrim sources under {SRC}", file=sys.stderr)
        return 2
    import qdiscrim

    if os.path.dirname(os.path.abspath(qdiscrim.__file__)) != os.path.join(SRC, "qdiscrim"):
        print(f"error: qdiscrim imported from {qdiscrim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"error: BLAS runs {env['blas_threads']} threads on {env['nproc']} CPUs", file=sys.stderr)
        return 2
    module = importlib.import_module(f"perfbench.{workload}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        metrics, extra, tally = measure(module, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(tally.ns)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, **extra,
        "attempted": attempted, "failed": tally.failed, "known_defects": tally.known,
        "error_rate": {"value": tally.failed / attempted, "unit": "ratio"},
        "error_rate_with_known_defects": {"value": (tally.failed + tally.known) / attempted,
                                          "unit": "ratio"},
        "known_defect_list": getattr(module, "KNOWN_DEFECTS", {}),
        "mix_counts": tally.mix, "busy_s": tally.busy_s,
        "digest": {"ops": len(tally.inputs), "inputs": digest(tally.inputs),
                   "answers": digest(tally.answers)},
        "failures": tally.failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in WORKLOADS:  # a process each, so peak RSS stays per workload
        status |= subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
