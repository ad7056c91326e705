"""The benchmark's workloads.

Each workload turns the workload seed into inputs and runs them through the
package's public API one batch at a time.  Batches of one workload have the
same composition; only the seeded instances and starting points differ, so
batch wall times are comparable.  The last batch of a run may stop between
runs when the run's time is up.  Each batch is checked as soon as it ends,
outside its timing, and then drops its per-evaluation data, so peak memory
does not grow with the number of batches a run completes.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from cvarqopt import flatness, harness, hamiltonian, problems
from cvarqopt.ansatz import AnsatzSpec

import checks

SOLVED_OVERLAP = 0.01  # a run is solved once its best-so-far overlap reaches this


class RunTask(NamedTuple):
    problem: str
    n: int
    inst: int
    algo: str
    p: int
    alpha: float
    run_seed: int
    budget: int

    @property
    def key(self) -> str:
        return f"{self.problem}/n={self.n}/inst={self.inst}/{self.algo}/p={self.p}/alpha={self.alpha}/seed={self.run_seed}"


@dataclass
class RunOutcome:
    task: RunTask
    seconds: float
    gaps: np.ndarray  # seconds between consecutive observer callbacks
    records: list
    error: str | None
    digest: str = field(init=False)
    solved: bool = field(init=False)
    evals: int = field(init=False)

    def __post_init__(self):
        self.digest = checks.digest([(r.value, r.overlap) for r in self.records])
        self.solved = any(r.overlap >= SOLVED_OVERLAP for r in self.records)
        self.evals = len(self.records)


@dataclass
class Batch:
    wall: float
    evals: int
    ops: int  # operations attempted: runs, flatness reports or sweep tasks
    solved: int
    units: int  # runs the solved count is out of
    complete: bool = True  # False when the run's time ran out inside the batch
    runs: list = field(default_factory=list)  # RunOutcome, for run_single workloads
    flat: list = field(default_factory=list)  # (key, FlatnessReport | error string)
    sweep: dict = field(default_factory=dict)  # sampled-sweep pipeline outputs
    digest: str = field(init=False)

    def __post_init__(self):
        text = self.sweep["csv"] if self.sweep else "".join(r.digest for r in self.runs)
        self.digest = hashlib.sha256(text.encode()).hexdigest()

    def release(self) -> None:
        """Drop per-evaluation data once the batch is checked."""
        for r in self.runs:
            r.records = []
        self.flat = []
        self.sweep = {k: v for k, v in self.sweep.items() if k in ("cfg", "sweep_s")}


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def set_run(tracer, run_id: str) -> None:
    if tracer is not None:
        tracer.run_id = run_id


class Workload:
    name = ""
    expected_spans: frozenset = frozenset()
    cross_check_qaoa = False  # compare each qaoa run's final state with the flatness path

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers
        self._instances: dict = {}

    def instance(self, problem: str, n: int, inst: int, tracer=None):
        """(qubo, hamiltonian) of one generated instance, built once."""
        key = (problem, n, inst)
        if key not in self._instances:
            with span(tracer, "problems.generate"):
                qubo = problems.generate(problems.InstanceSpec(problem, n, inst))
            with span(tracer, "hamiltonian.encode"):
                ham = hamiltonian.qubo_to_hamiltonian(qubo)
            self._instances[key] = (qubo, ham)
        return self._instances[key]

    def tasks(self, b: int) -> list[RunTask]:
        raise NotImplementedError

    def setup(self, tracer=None) -> None:
        """Input generation that precedes the first run."""
        set_run(tracer, "setup")
        for t in self.tasks(0):
            self.instance(t.problem, t.n, t.inst, tracer)

    def run(self, task: RunTask, tracer=None) -> RunOutcome:
        qubo, _ = self.instance(task.problem, task.n, task.inst)
        set_run(tracer, task.key)
        stamps: list[float] = []
        error = None
        records: list = []
        start = time.perf_counter()
        try:
            trace = harness.run_single(
                qubo, task.algo, p=task.p, alpha=task.alpha, seed=task.run_seed,
                initial_point="random", max_evaluations=task.budget,
                observer=lambda r: stamps.append(time.perf_counter()),
            )
            records = trace.records
        except Exception:
            error = traceback.format_exc()
            if tracer is not None:
                tracer.count("harness.failures")
        seconds = time.perf_counter() - start
        return RunOutcome(task, seconds, np.diff(stamps), records, error)

    def warm_up(self) -> None:
        """One short untimed run, so lazy imports and first-call costs stay out of the timing."""
        task = self.tasks(0)[0]
        self.run(task._replace(budget=self.spec(task).parameter_count + 3))

    def batch(self, b: int, tracer=None, budget_s: float = math.inf) -> Batch:
        """Batch b.  Once budget_s seconds are spent no further run starts, so the batch may end partial."""
        tasks = self.tasks(b)
        for t in tasks:  # input preparation, outside the timed region
            self.instance(t.problem, t.n, t.inst)
        runs = []
        start = time.perf_counter()
        for t in tasks:
            if runs and time.perf_counter() - start >= budget_s:
                break
            runs.append(self.run(t, tracer))
        wall = time.perf_counter() - start
        return Batch(wall, sum(r.evals for r in runs), len(runs),
                     sum(r.solved for r in runs), len(runs), runs=runs, complete=len(runs) == len(tasks))

    def traced_batch(self, tracer) -> Batch:
        return self.batch(0, tracer)

    def spec(self, task: RunTask) -> AnsatzSpec:
        if task.algo == "vqe":
            return AnsatzSpec("vqe", n=task.n, p=task.p)
        qubo, _ = self.instance(task.problem, task.n, task.inst)
        return AnsatzSpec("qaoa", n=task.n, p=task.p, ising=hamiltonian.qubo_to_ising(qubo))

    def check(self, batch: Batch) -> list[tuple[str, str]]:
        """(operation key, problem) for every failed operation or invariant."""
        out = []
        for run in batch.runs:
            if run.error is not None:
                out.append((run.task.key, run.error))
                continue
            _, ham = self.instance(run.task.problem, run.task.n, run.task.inst)
            k = len(run.records)
            spec = self.spec(run.task)
            out += [(run.task.key, msg) for msg in checks.check_run(
                run.records, ham, spec, run.task.alpha, exact=True,
                recompute_at=sorted({0, k // 2, k - 1}),
            )]
            if run.task.algo == "qaoa" and self.cross_check_qaoa:
                out += [(run.task.key, msg) for msg in
                        checks.check_qaoa_paths(spec, ham, run.records[-1].theta)]
        for key, rep in batch.flat:
            msgs = [rep] if isinstance(rep, str) else checks.check_flatness(rep)
            out += [(key, msg) for msg in msgs]
        return out

    def repeat_check(self, batches: list[Batch]) -> tuple[list[tuple[str, str]], int]:
        """Runs the first task again and compares digests; returns (problems, ops)."""
        first = batches[0].runs[0]
        again = self.run(first.task)
        if again.digest != first.digest:
            return [(first.task.key, "repeat run's (value, overlap) digest differs")], 1
        return [], 1

    def untraced_reference(self, batches: list[Batch]) -> tuple[Batch, list[tuple[str, str]], int]:
        """The untraced twin of traced_batch, run just before it: (batch, problems, ops)."""
        again = self.batch(0)
        again.release()
        problems = [] if again.digest == batches[0].digest else [("batch=0", "rerun digest differs")]
        return again, problems, again.ops

    def pool_efficiency(self, batches: list[Batch]) -> float:
        return 1.0  # serial: busy time equals wall time


class TrendN10(Workload):
    """A seeded slice of the acceptance suite's shared trend batch."""

    name = "trend-n10"
    expected_spans = frozenset({
        "problems.generate", "hamiltonian.encode", "harness.run_single", "harness.make_objective",
        "harness.objective", "optimizer.minimize", "ansatz.build_circuit", "statevector.run_circuit",
        "objective.distribution", "objective.cvar", "objective.extras",
    })
    N = 10
    GRID = (("vqe", 1, 0.10), ("vqe", 1, 1.00), ("qaoa", 2, 0.10))
    PROBLEMS = ("maxcut", "portfolio")
    MASTERS = 5
    INSTANCES = 10

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        rng = np.random.default_rng(seed)
        pairs = [(m, i) for m in range(self.MASTERS) for i in range(self.INSTANCES)]
        self._order = {prob: [pairs[j] for j in rng.permutation(len(pairs))] for prob in self.PROBLEMS}

    def tasks(self, b: int) -> list[RunTask]:
        out = []
        for problem in self.PROBLEMS:
            master, inst = self._order[problem][b % len(self._order[problem])]
            for algo, p, alpha in self.GRID:
                seed = harness.derive_seed(master, "trend", problem, inst, algo, p, alpha)
                out.append(RunTask(problem, self.N, inst, algo, p, alpha, seed, 50 * self.N))
        return out


class WideN16(Workload):
    """Arithmetic-bound runs at n=14 and 16, plus flatness reports."""

    name = "wide-n16"
    expected_spans = TrendN10.expected_spans | {
        "flatness.report", "flatness.snapshots", "flatness.check_bound",
    }
    # every algo meets both problem classes and both sizes; batches share this layout
    LAYOUT = (
        (16, "vqe", 1, "maxcut"), (16, "vqe", 2, "portfolio"),
        (16, "qaoa", 2, "portfolio"), (16, "qaoa", 3, "maxcut"),
        (14, "vqe", 1, "portfolio"), (14, "vqe", 2, "maxcut"),
        (14, "qaoa", 2, "maxcut"), (14, "qaoa", 3, "portfolio"),
    )
    SIZES = (14, 16)
    ALPHA = 0.10
    STEPS = 8  # evaluations after the initial simplex: the budget always binds
    FLATNESS_DEPTHS = (1, 2)
    cross_check_qaoa = True

    def _inst(self, problem: str, n: int, b: int) -> int:
        return harness.derive_seed(self.seed, "wide", problem, n, b) % 2**32

    def tasks(self, b: int) -> list[RunTask]:
        out = []
        for n, algo, p, problem in self.LAYOUT:
            dim = n * (1 + p) if algo == "vqe" else 2 * p
            seed = harness.derive_seed(self.seed, "wide-run", problem, n, algo, p, b)
            out.append(RunTask(problem, n, self._inst(problem, n, b), algo, p, self.ALPHA, seed, dim + 2 + self.STEPS))
        return out

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        self.needles = {n: flatness.needle_hamiltonian(n) for n in self.SIZES}

    def batch(self, b: int, tracer=None, budget_s: float = math.inf) -> Batch:
        result = super().batch(b, tracer, budget_s)
        if not result.complete:
            return result
        rng = np.random.default_rng([self.seed, b])
        reports = []
        start = time.perf_counter()
        for n in self.SIZES:
            cases = (("needle", self.needles[n]),
                     ("maxcut", self.instance("maxcut", n, self._inst("maxcut", n, b))[1]))
            for label, ham in cases:
                for p in self.FLATNESS_DEPTHS:
                    betas, gammas = rng.uniform(-np.pi, np.pi, (2, p))
                    key = f"flatness/{label}/n={n}/p={p}/batch={b}"
                    set_run(tracer, key)
                    try:
                        reports.append((key, flatness.flatness_report(ham, betas, gammas)))
                    except Exception:
                        reports.append((key, traceback.format_exc()))
        result.wall += time.perf_counter() - start
        result.ops += len(reports)
        result.flat = reports
        return result


class SampledSweep(Workload):
    """run_sweep in sampled mode over every generator, then CSV and report."""

    name = "sampled-sweep"
    expected_spans = frozenset({
        "harness.run_sweep", "harness.run_single", "harness.make_objective", "harness.objective",
        "problems.generate", "hamiltonian.encode", "optimizer.minimize", "ansatz.build_circuit",
        "statevector.run_circuit", "objective.sample", "objective.cvar", "objective.extras",
        "harness.csv", "harness.report",
    })
    GRID = dict(
        problems=problems.PROBLEM_NAMES, sizes=(6, 8), instances_per_size=1, alphas=(0.10,),
        vqe_depths=(0, 1, 2), qaoa_depths=(1, 2, 3), mode="sampled", iteration_budget_per_qubit=50,
        initial_point="random",
    )
    THRESHOLDS = (0.01, 0.10)

    def config(self, b: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            **self.GRID, master_seed=harness.derive_seed(self.seed, "sweep", b), workers=self.workers
        )

    @staticmethod
    def instance_keys(cfg) -> set[tuple]:
        """(problem, n, seed) of every instance the sweep generates, seeded as run_sweep seeds them."""
        return {(problem, n, harness.derive_seed(cfg.master_seed, "instance", problem, n, idx))
                for problem in cfg.problems for n in cfg.sizes if not (problem == "max3sat" and n % 3)
                for idx in range(cfg.instances_per_size)}

    def setup(self, tracer=None) -> None:
        set_run(tracer, "setup")
        for key in sorted(self.instance_keys(self.config(0))):
            self.instance(*key, tracer)

    def pipeline(self, cfg, tracer=None) -> Batch:
        set_run(tracer, f"sweep/master={cfg.master_seed}/workers={cfg.workers}")
        start = time.perf_counter()
        result = harness.run_sweep(cfg)
        sweep_s = time.perf_counter() - start
        with span(tracer, "harness.csv"):
            csv = result.to_csv()
            back = harness.SweepResult.from_csv(csv)
        curves = {t: harness.aggregate_fraction_curves(back, t) for t in self.THRESHOLDS}
        wall = time.perf_counter() - start
        runs: dict = {}
        for row in result.rows:
            runs[row[:6]] = max(runs.get(row[:6], 0.0), row[9])
        solved = sum(ov >= SOLVED_OVERLAP for ov in runs.values())
        return Batch(wall, len(result.rows), len(runs) + len(result.failures), solved, len(runs), sweep=dict(
            cfg=cfg, sweep_s=sweep_s, rows=result.rows, failures=result.failures, csv=csv,
            back=back.rows, curves=curves,
        ))

    def warm_up(self) -> None:
        """Nothing: every sweep starts its own pool, and that start-up is part of what is measured."""

    def batch(self, b: int, tracer=None, budget_s: float = math.inf) -> Batch:
        return self.pipeline(self.config(b), tracer)  # a sweep is never cut short

    def traced_batch(self, tracer) -> Batch:
        # serial, so every task's spans are recorded in this process
        return self.pipeline(replace(self.config(0), workers=1), tracer)

    def check(self, batch: Batch) -> list[tuple[str, str]]:
        s, cfg = batch.sweep, batch.sweep["cfg"]
        key = f"sweep/master={cfg.master_seed}"
        out = [(f"{key}/{name}", msg) for name, msg in s["failures"]]
        instances = self.instance_keys(cfg)
        runs = {row[:6] for row in s["rows"]}
        expected = len(instances) * (len(cfg.vqe_depths) + len(cfg.qaoa_depths)) * len(cfg.alphas)
        if {r[:3] for r in runs} != instances or len(runs) != expected:
            out.append((key, f"{len(runs)} runs over {len({r[:3] for r in runs})} instances, "
                             f"expected {expected} over {len(instances)}"))
        hams = {inst: self.instance(*inst)[1] for inst in {r[:3] for r in runs}}
        out += [(key, m) for m in checks.check_sweep_rows(s["rows"], hams, cfg.iteration_budget_per_qubit)]
        if s["back"] != s["rows"]:
            out.append((key, "from_csv(to_csv(rows)) != rows"))
        for t, curves in s["curves"].items():
            out += [(f"{key}/threshold={t}", m) for m in checks.check_curves(curves)]
        return out

    def repeat_check(self, batches: list[Batch]) -> tuple[list[tuple[str, str]], int]:
        """The first pool sweep again, serially: the CSV must be byte-identical."""
        first = batches[0]
        serial = self.pipeline(replace(first.sweep["cfg"], workers=1))
        serial.release()
        self.serial = serial
        key = f"sweep/master={first.sweep['cfg'].master_seed}"
        if serial.digest != first.digest:  # SHA-256 of the CSV bytes
            return [(key, "pool CSV differs from the serial CSV")], serial.ops
        return [], serial.ops

    def untraced_reference(self, batches: list[Batch]) -> tuple[Batch, list[tuple[str, str]], int]:
        return self.serial, [], 0  # repeat_check already compared it with the pool sweep

    def pool_efficiency(self, batches: list[Batch]) -> float:
        """Serial sweep time over workers x pool sweep time, same config, both untraced."""
        return self.serial.sweep["sweep_s"] / (self.workers * batches[0].sweep["sweep_s"])


WORKLOADS = {w.name: w for w in (TrendN10, WideN16, SampledSweep)}
