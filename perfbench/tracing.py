"""Timing wrappers around qdiscrim's public functions, and the layer metrics they give.

Each traced function is replaced, in every qdiscrim module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent, op id). Classes are traced through their __init__. Spans are
kept in memory while the run lasts; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

TRACED = {
    "channels": ("named_channel", "KrausChannel", "AffineChannel", "kraus_to_affine",
                 "pauli_channel", "gpc_channel", "pauli_to_affine", "gpc_to_kraus"),
    "discrim": ("min_error_probability", "pauli_closed_form", "pauli_sacchi_form"),
    "sphereopt": ("maximize_on_sphere", "grid_oracle"),
    "linalg": ("hermitian_eig", "hull_contains_origin", "trace_norm_hermitian"),
    "perfect": ("unitary_perfect", "qubit_product_perfect", "gpc_perfect_entangled",
                "numeric_isotropic_search", "cross_operators"),
    "oracle": ("sampled_min_error", "simulate_experiment", "helstrom_error_at"),
    "cli": ("main",),
}


def _argument(func, args, kwargs, name):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Counts taken at the boundary where the work happens: span name -> (counter, probe).
_OUTCOMES = {
    "sphereopt.maximize_on_sphere": ("hard_case", lambda f, a, k, r: int(r.hard_case)),
    "discrim.min_error_probability": ("guess_prior", lambda f, a, k, r: int(r.regime == "guess_prior")),
    "perfect.numeric_isotropic_search": ("certified", lambda f, a, k, r: int(r.distinguishable == "yes")),
    "oracle.sampled_min_error": ("samples", lambda f, a, k, r: r.samples),
    "sphereopt.grid_oracle": ("points", lambda f, a, k, r: _argument(f, a, k, "n")),
    "oracle.simulate_experiment": ("trials", lambda f, a, k, r: _argument(f, a, k, "trials")),
}


class Tracer:
    """Wraps the traced functions on install, records spans while an op is open,
    and puts the originals back on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.outcomes: dict[tuple[str, str], int] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"qdiscrim.{module_name}")
            if module is None:  # never imported, so never called
                continue
            for name in names:
                self._find_sites(getattr(module, name), f"{module_name}.{name}")

    def _find_sites(self, target, span_name) -> None:
        if isinstance(target, type):
            self._sites.append((target, "__init__", target.__init__,
                                self._wrap(target.__init__, span_name)))
            return
        wrapper = self._wrap(target, span_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qdiscrim" or mod_name.startswith("qdiscrim."):
                for attr, value in vars(mod).items():
                    if value is target:
                        self._sites.append((mod, attr, target, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, func, span_name):
        spans, stack = self.spans, self._stack
        outcome = _OUTCOMES.get(span_name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.op_id is None:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([span_name, clock(), 0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if outcome is not None:
                key = (span_name, outcome[0])
                self.outcomes[key] = self.outcomes.get(key, 0) + outcome[1](func, args, kwargs, result)
            return result

        return traced

    def span_counts(self, first: int) -> dict[int, dict[str, int]]:
        """Spans per op id and name, from span index `first` on."""
        counts: dict[int, dict[str, int]] = {}
        for name, _, _, _, op_id in self.spans[first:]:
            per_op = counts.setdefault(op_id, {})
            per_op[name] = per_op.get(name, 0) + 1
        return counts

    def layer_metrics(self, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-module self share, and boundary ratios."""
        total = {}
        self_ns = {}
        calls = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
        out: dict[str, tuple[float, str]] = {}
        for module_name, names in TRACED.items():
            module_self = 0
            for name in names:
                key = f"{module_name}.{name}"
                out[f"{key}.calls"] = (calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self_ns.get(key, 0) / 1e9, "s")
                module_self += self_ns.get(key, 0)
            out[f"layer.{module_name}.self_share"] = (module_self / 1e9 / op_seconds, "ratio")

        def ratio(num, den):
            return num / den if den else 0.0

        def outcome(key, counter):
            return self.outcomes.get((key, counter), 0)

        sphere, prior = "sphereopt.maximize_on_sphere", "discrim.min_error_probability"
        search, sampled = "perfect.numeric_isotropic_search", "oracle.sampled_min_error"
        grid, simulate, eig = "sphereopt.grid_oracle", "oracle.simulate_experiment", "linalg.hermitian_eig"
        out[f"{sphere}.hard_case_share"] = (ratio(outcome(sphere, "hard_case"), calls.get(sphere, 0)), "ratio")
        out[f"{prior}.guess_prior_share"] = (ratio(outcome(prior, "guess_prior"), calls.get(prior, 0)), "ratio")
        out[f"{search}.certified_share"] = (ratio(outcome(search, "certified"), calls.get(search, 0)), "ratio")
        out[f"{sampled}.samples_per_s"] = (ratio(outcome(sampled, "samples"), total.get(sampled, 0) / 1e9), "1/s")
        out[f"{grid}.points_per_s"] = (ratio(outcome(grid, "points"), total.get(grid, 0) / 1e9), "1/s")
        out[f"{simulate}.trials_per_s"] = (ratio(outcome(simulate, "trials"), total.get(simulate, 0) / 1e9), "1/s")
        out[f"{eig}.mean_us"] = (ratio(total.get(eig, 0) / 1e3, calls.get(eig, 0)), "us")
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines, written once when the run ends."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "op": op_id}) + "\n")
