"""Experiment orchestration: single optimization runs, full sweeps over
problem x size x algorithm x depth x alpha grids, and metric aggregation.

Iteration counting: one "iteration" is one objective-function evaluation
(observable and optimizer-agnostic); normalized_iteration = evaluation/n.
Per-run seeds derive from the master seed by hashing the row key with
SHA-256, so results are independent of scheduling and execution order.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .ansatz import AnsatzSpec, build_circuit
from .hamiltonian import DiagonalHamiltonian, QuboProblem, ising_to_hamiltonian, qubo_to_ising
from .hamiltonian import qubo_to_hamiltonian  # unused here; perfbench/tracing.py wraps this name
from .objective import (
    PRNG_NAME,
    best_support_bitstring,
    cvar_exact,
    cvar_from_samples,
    outcome_distribution,
    overlap_with_optimum,
    sample_outcomes,
)
from .optimizer import EvalRecord, OptimizerConfig, RunTrace, minimize
from .problems import PROBLEM_NAMES, InstanceSpec, generate
from .statevector import Circuit, run_circuit

CSV_HEADER = "problem,n,seed,algo,p,alpha,eval,norm_iter,objective,overlap"
_CSV_TYPES = (str, int, int, str, int, float, int, float, float, float)

DEFAULT_ALPHAS = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and a row key."""
    key = "/".join([str(int(master_seed)), *map(str, parts)])
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def make_objective(
    ham: DiagonalHamiltonian,
    circuit_fn: Callable[[np.ndarray], Circuit],
    alpha: float,
    mode: str = "exact",
    shots: int = 8192,
    sample_rng: np.random.Generator | None = None,
) -> Callable:
    """Objective closure returning (cvar value, per-evaluation extras).

    Overlap always comes from the exact state; in sampled mode the CVaR and
    the best-seen bitstring come from shots drawn off the run-owned stream.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and sample_rng is None:
        raise ValueError("sampled mode needs a run-owned RNG stream")

    def objective(theta: np.ndarray):
        state = run_circuit(circuit_fn(theta))
        overlap = overlap_with_optimum(state, ham)
        if mode == "exact":
            value = cvar_exact(outcome_distribution(state, ham), alpha)
            bitstring, bit_value = best_support_bitstring(state, ham)
        else:
            indices, values = sample_outcomes(state, ham, shots, sample_rng)
            value = cvar_from_samples(values, alpha)
            k = int(np.argmin(values))
            bitstring, bit_value = int(indices[k]), float(values[k])
        return value, {"overlap": overlap, "bitstring": bitstring, "bitstring_value": bit_value}

    return objective


def initial_parameters(n_params: int, how, seed: int | None = None) -> np.ndarray:
    """theta0 = 0 by default; sweeps use a seeded uniform draw in [-pi, pi]^d."""
    if isinstance(how, (list, tuple, np.ndarray)):
        return np.asarray(how, dtype=float)
    if how == "zeros":
        return np.zeros(n_params)
    if how == "random":
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.uniform(-np.pi, np.pi, size=n_params)
    raise ValueError(f"unknown initial point mode {how!r}")


def run_single(
    qubo: QuboProblem,
    algo: str,
    p: int,
    alpha: float,
    mode: str = "exact",
    shots: int = 8192,
    seed: int | None = None,
    entanglement: str = "all-to-all",
    max_evaluations: int | None = None,
    initial_point="zeros",
    initial_step: float = 0.5,
    final_step: float = 1e-4,
    observer: Callable[[EvalRecord], None] | None = None,
) -> RunTrace:
    """One optimization run; deterministic given all arguments."""
    ising = qubo_to_ising(qubo)
    ham = ising_to_hamiltonian(ising)  # fills ising.cost_values, which the qaoa circuit reuses
    n = qubo.n
    if algo == "vqe":
        spec = AnsatzSpec("vqe", n=n, p=p, entanglement=entanglement)
    elif algo == "qaoa":
        spec = AnsatzSpec("qaoa", n=n, p=p, ising=ising)
    else:
        raise ValueError(f"unknown algo {algo!r}")
    seq = np.random.SeedSequence(seed)
    init_seed, sample_seed = (int(s.generate_state(1)[0]) for s in seq.spawn(2))
    theta0 = initial_parameters(spec.parameter_count, initial_point, init_seed)
    cfg = OptimizerConfig(
        max_evaluations=max_evaluations if max_evaluations is not None else 50 * n,
        initial_point=theta0,
        initial_step=initial_step,
        final_step=final_step,
    )
    sample_rng = np.random.Generator(np.random.PCG64(sample_seed)) if mode == "sampled" else None
    objective = make_objective(
        ham, lambda t: build_circuit(spec, t), alpha, mode=mode, shots=shots, sample_rng=sample_rng
    )
    return minimize(objective, cfg, observer=observer)


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
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "vqe_depths", tuple(int(p) for p in self.vqe_depths))
        object.__setattr__(self, "qaoa_depths", tuple(int(p) for p in self.qaoa_depths))
        if not self.problems or not self.sizes or not self.alphas:
            raise ValueError("problems, sizes and alphas must be nonempty")
        if any(not 0.0 < a <= 1.0 for a in self.alphas):
            raise ValueError("alphas must lie in (0, 1]")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


@dataclass
class SweepResult:
    rows: list[tuple]  # (problem, n, seed, algo, p, alpha, eval, norm_iter, objective, overlap)
    failures: list[tuple[str, str]] = field(default_factory=list)

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


def _sweep_tasks(cfg: ExperimentConfig) -> list[dict]:
    tasks = []
    algos = [("vqe", p) for p in cfg.vqe_depths] + [("qaoa", p) for p in cfg.qaoa_depths]
    for problem in cfg.problems:
        for n in cfg.sizes:
            if problem == "max3sat" and n % 3 != 0:
                continue
            for idx in range(cfg.instances_per_size):
                inst_seed = derive_seed(cfg.master_seed, "instance", problem, n, idx)
                for algo, p in algos:
                    for alpha in cfg.alphas:
                        tasks.append(
                            dict(
                                problem=problem,
                                n=n,
                                inst_seed=inst_seed,
                                algo=algo,
                                p=p,
                                alpha=alpha,
                                run_seed=derive_seed(
                                    cfg.master_seed, "run", problem, n, idx, algo, p, alpha
                                ),
                                mode=cfg.mode,
                                shots=cfg.shots,
                                budget=cfg.iteration_budget_per_qubit * n,
                                entanglement=cfg.entanglement,
                                initial_point=cfg.initial_point,
                            )
                        )
    return tasks


def _execute_task(task: dict) -> tuple[list[tuple], str | None]:
    key = "{problem}/n={n}/seed={inst_seed}/{algo}/p={p}/alpha={alpha}".format(**task)
    try:
        qubo = generate(InstanceSpec(task["problem"], task["n"], task["inst_seed"]))
        trace = run_single(
            qubo,
            algo=task["algo"],
            p=task["p"],
            alpha=task["alpha"],
            mode=task["mode"],
            shots=task["shots"],
            seed=task["run_seed"],
            entanglement=task["entanglement"],
            max_evaluations=task["budget"],
            initial_point=task["initial_point"],
        )
    except Exception as exc:  # keep the sweep alive; report at the end
        return [], f"{key}: {exc}"
    row_key = (task[k] for k in ("problem", "n", "inst_seed", "algo", "p", "alpha"))
    return trace_to_rows(trace, *row_key), None


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run the full grid; rows arrive in deterministic task order."""
    tasks = _sweep_tasks(cfg)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_execute_task, tasks, chunksize=4))
    else:
        outcomes = [_execute_task(t) for t in tasks]
    result = SweepResult(rows=[])
    for rows, failure in outcomes:
        result.rows.extend(rows)
        if failure is not None:
            result.failures.append(("run", failure))
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


def fraction_reached(result, algo, p, alpha, threshold) -> float:
    """Fraction of instances whose best-so-far overlap ever reaches the threshold."""
    points = _reach_points(result, algo, p, alpha, threshold)
    if not points:
        return 0.0
    return sum(1 for t in points.values() if t < math.inf) / len(points)


def median_reach(result, algo, p, alpha, threshold) -> float:
    """Median normalized iteration to reach the threshold; non-reachers count as inf."""
    points = sorted(_reach_points(result, algo, p, alpha, threshold).values())
    if not points:
        return math.inf
    k = len(points)
    mid = points[k // 2] if k % 2 == 1 else (points[k // 2 - 1] + points[k // 2]) / 2.0
    return mid


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


def sweep_metadata(cfg: ExperimentConfig) -> dict:
    """Sidecar metadata recorded next to sweep CSVs, with the environment that produced them."""
    env = {"python": platform.python_version(), "numpy": np.__version__, "optimizer": "cvarqopt COBYLA"}
    return {"config": json.loads(cfg.to_json()), "prng": PRNG_NAME, "csv_header": CSV_HEADER, "environment": env}


def trace_to_rows(
    trace: RunTrace, problem: str, n: int, seed: int, algo: str, p: int, alpha: float
) -> list[tuple]:
    """Rows in sweep-CSV layout for a single run."""
    return [
        (problem, n, seed, algo, p, alpha, r.index, r.index / n, r.value, r.overlap)
        for r in trace.records
    ]
