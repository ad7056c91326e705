"""Experiment orchestration: single optimization runs, batches of runs,
full sweeps over problem x size x algorithm x depth x alpha grids, and
metric aggregation.

A run builds its `AnsatzSpec` once.  Every evaluation binds its point into
the spec's gates (`build_circuit`) and runs them (`run_circuit`); the gates
theta does not change are cached, so no gate is checked and nothing
theta-free is rebuilt per evaluation.  A run's seed is a whole number >= 0,
0 by default, so a run that names none is as reproducible as one that does.

`run_batch` runs a list of `run_single` argument sets, in turn in this
process with one worker, or on a process pool with more; every run goes
through `run_single` either way, so the traces do not depend on the worker
count.  `run_sweep` generates each grid key's instance and hands the runs to
`run_batch`.

A sweep is a list of grid keys (problem, n, instance index, algo, p, alpha);
each key's instance seed, run seed and evaluation budget derive from the
config alone, the instance and run seeds by hashing the key with SHA-256,
so results are independent of scheduling and execution order.  (alpha,
mode, shots) are validated by `CvarConfig`, the ansatz family by `AnsatzSpec`;
`ExperimentConfig` builds each run shape's specs once, so it rejects up front
a grid with a shape that no run could execute; its sizes, depths, counts,
seed, budget and worker count must be integers, with at least one worker,
its alphas numbers (not bools or strings), and no grid list may repeat a
value (0.1 and 0.10 are one alpha).

Iteration counting: one "iteration" is one objective-function evaluation
(observable and optimizer-agnostic); normalized_iteration = evaluation/n.
"""
from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import numbers
import platform
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .ansatz import AnsatzSpec, build_circuit
from .hamiltonian import DiagonalHamiltonian, IsingModel, QuboProblem, ising_to_hamiltonian, qubo_to_ising
from .hamiltonian import qubo_to_hamiltonian  # unused here; perfbench/tracing.py wraps this name
from .objective import (
    PRNG_NAME,
    CvarConfig,
    best_support_bitstring,
    cvar_exact,
    cvar_from_samples,
    outcome_distribution,
    overlap_with_optimum,
    sample_outcomes,
)
from .optimizer import EvalRecord, OptimizerConfig, RunTrace, minimize
from .problems import PROBLEM_NAMES, InstanceSpec, generate
from .statevector import BoundCircuit, StateVector, _seed, _whole, run_circuit

CSV_HEADER = "problem,n,seed,algo,p,alpha,eval,norm_iter,objective,overlap"
_CSV_TYPES = (str, int, int, str, int, float, int, float, float, float)

DEFAULT_ALPHAS = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and a row key."""
    key = "/".join([str(_whole("master_seed", master_seed)), *map(str, parts)])
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def make_scorer(ham: DiagonalHamiltonian, alpha: float, mode: str = "exact", shots: int = 8192,
                sample_rng: np.random.Generator | None = None) -> Callable[[StateVector], tuple[float, dict]]:
    """Scoring closure: a trial state's (cvar value, per-evaluation extras).

    Overlap always comes from the exact state; in sampled mode the CVaR and
    the best-seen bitstring come from shots drawn off the run-owned stream.
    """
    cfg = CvarConfig(alpha, mode, shots)  # validates alpha, mode and shot count
    alpha, shots = cfg.alpha, cfg.shots
    if mode == "sampled" and sample_rng is None:
        raise ValueError("sampled mode needs a run-owned RNG stream")
    table = ham.table if mode == "sampled" else None  # each shot's value in one gather

    def score(state: StateVector):
        overlap = overlap_with_optimum(state, ham)
        if mode == "exact":
            value = cvar_exact(outcome_distribution(state, ham), alpha)
            bitstring, bit_value = best_support_bitstring(state, ham)
        else:
            indices, values = sample_outcomes(state, ham, shots, sample_rng, _table=table)
            value = cvar_from_samples(values, alpha)
            k = int(np.argmin(values))
            bitstring, bit_value = int(indices[k]), float(values[k])
        return value, {"overlap": overlap, "bitstring": bitstring, "bitstring_value": bit_value}

    return score


def make_objective(
    ham: DiagonalHamiltonian,
    circuit_fn: Callable[[np.ndarray], BoundCircuit],
    alpha: float,
    mode: str = "exact",
    shots: int = 8192,
    sample_rng: np.random.Generator | None = None,
) -> Callable:
    """Objective closure returning (cvar value, per-evaluation extras): the
    state `circuit_fn(theta)` prepares, scored by `make_scorer`."""
    score = make_scorer(ham, alpha, mode, shots, sample_rng)

    def objective(theta: np.ndarray):
        return score(run_circuit(circuit_fn(theta)))

    return objective


def initial_parameters(n_params: int, how: str, seed: int = 0) -> np.ndarray:
    """theta0 = 0 by default; sweeps use a seeded uniform draw in [-pi, pi]^d (seed a whole number >= 0)."""
    if how == "zeros":
        return np.zeros(n_params)
    if how == "random":
        rng = np.random.Generator(np.random.PCG64(_seed(seed)))
        return rng.uniform(-np.pi, np.pi, size=n_params)
    raise ValueError(f"unknown initial point mode {how!r}")


def run_single(
    qubo: QuboProblem,
    algo: str,
    p: int,
    alpha: float,
    mode: str = "exact",
    shots: int = 8192,
    seed: int = 0,
    entanglement: str = "all-to-all",
    max_evaluations: int | None = None,
    initial_point: str = "zeros",
    observer: Callable[[EvalRecord], None] | None = None,
) -> RunTrace:
    """One optimization run; deterministic given all arguments."""
    ising = qubo_to_ising(qubo)
    ham = ising_to_hamiltonian(ising)
    n = qubo.n
    spec = AnsatzSpec(algo, n=n, p=p, entanglement=entanglement, ising=ising if algo == "qaoa" else None)
    seq = np.random.SeedSequence(_seed(seed))
    init_seed, sample_seed = (int(s.generate_state(1)[0]) for s in seq.spawn(2))
    theta0 = initial_parameters(spec.parameter_count, initial_point, init_seed)
    cfg = OptimizerConfig(
        max_evaluations=max_evaluations if max_evaluations is not None else 50 * n,
        initial_point=theta0,
    )
    sample_rng = np.random.Generator(np.random.PCG64(sample_seed)) if mode == "sampled" else None
    objective = make_objective(
        ham, lambda t: build_circuit(spec, t), alpha, mode=mode, shots=shots, sample_rng=sample_rng
    )
    return minimize(objective, cfg, observer=observer)


_RUN_SIGNATURE = inspect.signature(run_single)


class RunFailure(NamedTuple):
    """A run that raised: the exception's message and formatted traceback."""

    message: str
    traceback: str


def _failure(exc: Exception) -> RunFailure:
    return RunFailure(str(exc), traceback.format_exc())


def _run_one(run: dict) -> RunTrace | RunFailure:
    try:
        return run_single(**run)
    except Exception as exc:  # one failed run does not stop the batch
        return _failure(exc)


def run_batch(runs: Sequence[dict], workers: int = 1) -> list[RunTrace | RunFailure]:
    """Run every entry of `runs`, each a dict of `run_single`'s keyword
    arguments, and return their traces in the same order.

    A run that raises gives a `RunFailure` in its place; entries that do not
    bind to `run_single` raise a TypeError before any run starts.

    With one worker every run goes through `run_single`, in order, in this
    process: that is the path a tracer sees.  With more, each run goes through
    `run_single` on a process pool worker, so every trace equals the serial
    one.  Observers run in the worker, so they must pickle.  The pool is shut
    down before this returns.
    """
    if (workers := _whole("workers", workers)) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for run in runs:
        _RUN_SIGNATURE.bind(**run)  # a TypeError unless every run's arguments bind
    if workers == 1:
        return [_run_one(run) for run in runs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, runs))


@dataclass(frozen=True)
class ExperimentConfig:
    problems: tuple[str, ...] = PROBLEM_NAMES
    sizes: tuple[int, ...] = (6, 8, 10)
    instances_per_size: int = 10
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    vqe_depths: tuple[int, ...] = (0, 1, 2)
    qaoa_depths: tuple[int, ...] = (1, 2, 3)
    mode: str = "exact"
    shots: int = 8192
    master_seed: int = 0
    iteration_budget_per_qubit: int = 50
    entanglement: str = "all-to-all"
    initial_point: str = "random"
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool) for a in self.alphas):
            raise ValueError(f"alphas takes numbers, got {self.alphas!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        for name in ("sizes", "vqe_depths", "qaoa_depths"):
            object.__setattr__(self, name, tuple(_whole(name, v) for v in getattr(self, name)))
        for name in ("instances_per_size", "shots", "master_seed", "iteration_budget_per_qubit", "workers"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        unknown = [p for p in self.problems if p not in PROBLEM_NAMES]
        if unknown:
            raise ValueError(f"unknown problems {unknown}; choose from {', '.join(PROBLEM_NAMES)}")
        for alpha in self.alphas:
            CvarConfig(alpha, self.mode, self.shots)
        for name in ("problems", "sizes", "alphas", "vqe_depths", "qaoa_depths"):  # a repeat would run its keys twice
            values = getattr(self, name)
            if repeated := [v for k, v in enumerate(values) if v in values[:k]]:
                raise ValueError(f"{name} repeats {repeated[0]!r}; list each value once")
        keys = _sweep_keys(self)
        if not keys:
            raise ValueError("the grid has no runs: a list or instances_per_size is empty, "
                             "or only max3sat is asked for and no size is divisible by 3")
        # each run shape once, through the owner of each rule a run would meet
        for problem, n, algo, p in dict.fromkeys((k[0], k[1], k[3], k[4]) for k in keys):
            InstanceSpec(problem, n, 0)
            ising = IsingModel(n, np.zeros(n), np.zeros((n, n))) if algo == "qaoa" else None
            spec = AnsatzSpec(algo, n=n, p=p, entanglement=self.entanglement, ising=ising)
            theta0 = initial_parameters(spec.parameter_count, self.initial_point, 0)
            OptimizerConfig(self.iteration_budget_per_qubit * n, theta0)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


@dataclass
class SweepResult:
    rows: list[tuple]  # (problem, n, seed, algo, p, alpha, eval, norm_iter, objective, overlap)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (kind, message)
    tracebacks: list[str] = field(default_factory=list)  # one per failure, in the same order

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for problem, n, seed, algo, p, alpha, ev, ni, obj, ov in self.rows:
            buf.write(
                f"{problem},{n},{seed},{algo},{p},{alpha!r},{ev},{ni!r},{obj!r},{ov!r}\n"
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        lines = text.strip().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("unrecognized sweep CSV header")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            try:
                if len(fields) != len(_CSV_TYPES):
                    raise ValueError(f"got {len(fields)}")
                rows.append(tuple(cast(f) for cast, f in zip(_CSV_TYPES, fields)))
            except ValueError as exc:
                where = f"sweep CSV line {lineno}: expected {len(_CSV_TYPES)} fields"
                raise ValueError(f"{where}: {exc}") from None
        return cls(rows)


def _sweep_keys(cfg: ExperimentConfig) -> list[tuple]:
    """Grid keys (problem, n, instance index, algo, p, alpha) in row order."""
    algos = [("vqe", p) for p in cfg.vqe_depths] + [("qaoa", p) for p in cfg.qaoa_depths]
    return [
        (problem, n, idx, algo, p, alpha)
        for problem in cfg.problems
        for n in cfg.sizes
        if problem != "max3sat" or n % 3 == 0
        for idx in range(cfg.instances_per_size)
        for algo, p in algos
        for alpha in cfg.alphas
    ]


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run the full grid; rows arrive in deterministic grid order.

    Each grid key's instance is generated here, and its run goes through
    `run_batch` with the config's worker count.  Every trace is the one the
    serial reference path gives, so rows and CSV bytes do not depend on the
    worker count.  A key whose instance or run fails leaves no rows and one
    failure, with its traceback.
    """
    keys = _sweep_keys(cfg)
    seeds = [derive_seed(cfg.master_seed, "instance", problem, n, idx) for problem, n, idx, *_ in keys]
    outcomes: dict[int, RunTrace | RunFailure] = {}
    runs: dict[int, dict] = {}
    for i, ((problem, n, idx, algo, p, alpha), inst_seed) in enumerate(zip(keys, seeds)):
        try:
            qubo = generate(InstanceSpec(problem, n, inst_seed))
        except Exception as exc:  # keep the sweep alive; report at the end
            outcomes[i] = _failure(exc)
            continue
        runs[i] = dict(
            qubo=qubo, algo=algo, p=p, alpha=alpha, mode=cfg.mode, shots=cfg.shots,
            seed=derive_seed(cfg.master_seed, "run", *keys[i]), entanglement=cfg.entanglement,
            max_evaluations=cfg.iteration_budget_per_qubit * n, initial_point=cfg.initial_point,
        )
    outcomes.update(zip(runs, run_batch(list(runs.values()), cfg.workers)))
    result = SweepResult(rows=[])
    for i, ((problem, n, idx, algo, p, alpha), inst_seed) in enumerate(zip(keys, seeds)):
        outcome = outcomes.pop(i)
        if isinstance(outcome, RunFailure):
            where = f"{problem}/n={n}/seed={inst_seed}/{algo}/p={p}/alpha={alpha}"
            result.failures.append(("run", f"{where}: {outcome.message}"))
            result.tracebacks.append(outcome.traceback)
        else:
            result.rows.extend(trace_to_rows(outcome, problem, n, inst_seed, algo, p, alpha))
    return result


def _reach_points(result: SweepResult, algo: str, p: int, alpha: float, threshold: float):
    """Per instance: the first normalized iteration at which best-so-far overlap
    reaches the threshold (math.inf if never), plus the run's last iteration."""
    reach: dict[tuple, float] = {}
    horizon: dict[tuple, float] = {}
    for problem, n, seed, a, depth, al, ev, ni, obj, ov in result.rows:
        if a != algo or depth != p or al != alpha:
            continue
        inst = (problem, n, seed)
        horizon[inst] = max(horizon.get(inst, 0.0), ni)
        if ov >= threshold and ni < reach.get(inst, math.inf):
            reach[inst] = ni
    return {inst: reach.get(inst, math.inf) for inst in horizon}


def aggregate_fraction_curves(result: SweepResult, threshold: float) -> list[tuple]:
    """Step curves (algo, p, alpha, norm_iter, fraction), nondecreasing per group."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    groups = sorted({(a, p, al) for _, _, _, a, p, al, *_ in result.rows})
    curves = []
    for algo, p, alpha in groups:
        points = _reach_points(result, algo, p, alpha, threshold)
        total = len(points)
        reached = sorted(t for t in points.values() if t < math.inf)
        count = 0
        for ni in reached:
            count += 1
            curves.append((algo, p, alpha, ni, count / total))
    return curves


def curves_to_csv(curves: Iterable[tuple], threshold: float) -> str:
    buf = io.StringIO()
    buf.write("algo,p,alpha,threshold,norm_iter,fraction\n")
    for algo, p, alpha, ni, frac in curves:
        buf.write(f"{algo},{p},{alpha!r},{threshold!r},{ni!r},{frac!r}\n")
    return buf.getvalue()


def sweep_metadata(cfg: ExperimentConfig, result: SweepResult) -> dict:
    """Sidecar metadata recorded next to sweep CSVs: the environment that produced them and
    each failure with its traceback."""
    env = {"python": platform.python_version(), "numpy": np.__version__, "optimizer": "cvarqopt COBYLA"}
    failures = [
        {"kind": kind, "message": message, "traceback": tb}
        for (kind, message), tb in zip(result.failures, result.tracebacks)
    ]
    return {"config": json.loads(cfg.to_json()), "prng": PRNG_NAME, "csv_header": CSV_HEADER,
            "environment": env, "failures": failures}


def trace_to_rows(
    trace: RunTrace, problem: str, n: int, seed: int, algo: str, p: int, alpha: float
) -> list[tuple]:
    """Rows in sweep-CSV layout for a single run."""
    return [
        (problem, n, seed, algo, p, alpha, r.index, r.index / n, r.value, r.overlap)
        for r in trace.records
    ]
