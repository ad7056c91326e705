"""Per-layer spans recorded from outside the package.

`cvarqopt.harness` and `cvarqopt.flatness` look their collaborators up as
module globals at call time, so replacing those module attributes with
timing wrappers intercepts every call the package makes, without changing a
source file.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# module -> {attribute: span name}; the span name's prefix is the layer
WRAPPED = {
    "cvarqopt.harness": {
        "build_circuit": "ansatz.build_circuit",
        "run_circuit": "statevector.run_circuit",
        "outcome_distribution": "objective.distribution",
        "cvar_exact": "objective.cvar",
        "cvar_from_samples": "objective.cvar",
        "sample_outcomes": "objective.sample",
        "overlap_with_optimum": "objective.extras",
        "best_support_bitstring": "objective.extras",
        "minimize": "optimizer.minimize",
        "generate": "problems.generate",
        "qubo_to_hamiltonian": "hamiltonian.encode",
        "qubo_to_ising": "hamiltonian.encode",
        "make_objective": "harness.make_objective",
        "run_single": "harness.run_single",
        "run_sweep": "harness.run_sweep",
        "aggregate_fraction_curves": "harness.report",
    },
    "cvarqopt.flatness": {
        "run_circuit": "statevector.run_circuit",
        "qaoa_snapshots": "flatness.snapshots",
        "check_bound": "flatness.check_bound",
        "flatness_report": "flatness.report",
    },
}

CHECK_SPAN = "oracle.check"


class Tracer:
    """Records (name, start, end, parent, run id) spans and layer counters.

    Inside a check span nothing else is recorded, so per-layer figures cover
    the workload only and the check span carries the whole cost of checking.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._checking = False
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if self._checking:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.run_id])
        self._stack.append(idx)
        self._checking = name == CHECK_SPAN
        try:
            yield
        finally:
            self._checking = False
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, key: str, amount=1) -> None:
        if not self._checking:
            self.counts[key] += amount

    def install(self) -> None:
        """Wrap every name in WRAPPED; fails if the package no longer has one."""
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                if not hasattr(module, attr):
                    raise RuntimeError(f"{module_name}.{attr} no longer exists; update perfbench/tracing.py")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name):
        after = _AFTER.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        return wrapper

    def called(self) -> set[str]:
        return {s[0] for s in self.spans}

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def dump(self, path) -> None:
        names = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump({"fields": names, "spans": self.spans, "counts": dict(self.counts)}, fh)


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span costs, timed on a scratch tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def _after_build(tracer, args, kwargs, circuit):
    tracer.count("ansatz.gates_built", len(circuit.gates))
    return circuit


def _after_run_circuit(tracer, args, kwargs, state):
    gates = len((args[0] if args else kwargs["circuit"]).gates)
    tracer.count("statevector.gate_apps", gates)
    # each gate application reads and writes every complex128 amplitude once
    tracer.count("statevector.bytes_computed", gates * 2 * 2**state.n * 16)
    return state


def _after_minimize(tracer, args, kwargs, trace):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.count("optimizer.runs")
    tracer.count("optimizer.evals", trace.n_evaluations)
    tracer.count("optimizer.budget_stops", trace.n_evaluations == cfg.max_evaluations)
    return trace


def _after_make_objective(tracer, args, kwargs, objective):
    @functools.wraps(objective)
    def traced_objective(theta):
        with tracer.span("harness.objective"):
            return objective(theta)

    return traced_objective


def _after_sweep(tracer, args, kwargs, result):
    tracer.count("harness.failures", len(result.failures))
    return result


_AFTER = {
    "ansatz.build_circuit": _after_build,
    "statevector.run_circuit": _after_run_circuit,
    "optimizer.minimize": _after_minimize,
    "harness.make_objective": _after_make_objective,
    "harness.run_sweep": _after_sweep,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures listed in BENCHMARK.json, except the two that
    need an untraced measurement (pool efficiency and tracing overhead)."""
    st = tracer.self_times()
    c = tracer.counts
    t = lambda *names: sum(st.get(n, 0.0) for n in names)
    runs = c["optimizer.runs"]
    builds = sum(1 for s in tracer.spans if s[0] == "ansatz.build_circuit")
    return {
        "statevector.run_circuit_s": t("statevector.run_circuit"),
        "statevector.gate_apps": c["statevector.gate_apps"],
        "statevector.bytes_computed": c["statevector.bytes_computed"],
        "ansatz.build_circuit_s": t("ansatz.build_circuit"),
        "ansatz.gates_per_eval": c["ansatz.gates_built"] / builds if builds else 0.0,
        "objective.distribution_s": t("objective.distribution"),
        "objective.cvar_s": t("objective.cvar"),
        "objective.extras_s": t("objective.extras"),
        "objective.sample_s": t("objective.sample"),
        "optimizer.self_s": t("optimizer.minimize"),
        "optimizer.evals": c["optimizer.evals"],
        "optimizer.evals_per_run": c["optimizer.evals"] / runs if runs else 0.0,
        "optimizer.budget_stop_frac": c["optimizer.budget_stops"] / runs if runs else 0.0,
        "problems.generate_s": t("problems.generate"),
        "hamiltonian.encode_s": t("hamiltonian.encode"),
        "harness.run_single_self_s": t("harness.run_single", "harness.objective", "harness.make_objective"),
        "harness.sweep_self_s": t("harness.run_sweep"),
        "harness.csv_s": t("harness.csv"),
        "harness.report_s": t("harness.report"),
        "harness.failures": c["harness.failures"],
        "flatness.snapshots_s": t("flatness.snapshots"),
        "flatness.check_bound_s": t("flatness.check_bound"),
        "oracle.check_s": t(CHECK_SPAN),
    }
