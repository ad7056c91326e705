"""Golden reference data: the published two-qubit counterexample (circuit,
closed-form state, CVaR landscape), the published six-asset portfolio
constants, and frozen computed regression values.

The counterexample circuit, H(q0), CNOT(q0 -> q1), RY(theta on q1), is built
from the kinds of whole-register `Step` that `ansatz.build_circuit` emits
(RY-shaped layers and a +-1 `diag`), so `run_circuit` runs it as it runs the
ansatz's.  Each layer but the last turns one qubit by sqrt(2) * RY(+-pi/2),
whose entries are +-1, and the identity on the other, so until the last layer
every amplitude is a small integer and no step rounds.  The last layer halves
qubit 0's 2 to sqrt(1/2) exactly and turns qubit 1 by RY(theta), so the state
has the bytes of the gate-by-gate H, CNOT, RY run (a test checks this).

Computed entries live in data/golden.json and can be rebuilt with
`regenerate_golden()` (CLI: `cvarqopt regen-golden`); a test diffs the
committed file against a fresh regeneration.  Published constants are defined
here, once, and referenced everywhere else.
"""
from __future__ import annotations

import importlib.resources
import json
import math
from pathlib import Path

import numpy as np

from .hamiltonian import DiagonalHamiltonian
from .statevector import BoundCircuit, Step, _entries

GOLDEN_VERSION = 1

# Two-qubit counterexample: H(q0), CNOT(q0->q1), RY(theta on q1) against
# diag(0, 1, 1, 2).  Mean objective is 1 for every theta while CVaR_0.5 is
# sin^2(theta/2), so only the tail objective has a usable landscape.
TWO_QUBIT_DIAGONAL = (0.0, 1.0, 1.0, 2.0)

# Six-asset portfolio case: risk factor, budget, penalty weight, expected
# returns, and covariance, as published.
PORTFOLIO_N = 6
PORTFOLIO_RISK_FACTOR = 0.5
PORTFOLIO_BUDGET = 3
PORTFOLIO_PENALTY = 12.0
PORTFOLIO_RETURNS = (0.7313, 0.9893, 0.2725, 0.8750, 0.7667, 0.3622)
PORTFOLIO_COVARIANCE = (
    (0.7312, -0.6233, 0.4689, -0.5452, -0.0082, -0.3809),
    (-0.6233, 2.4732, -0.7538, 2.4659, -0.0733, 0.8945),
    (0.4689, -0.7538, 1.1543, -1.4095, 0.0007, -0.4301),
    (-0.5452, 2.4659, -1.4095, 3.5067, 0.2012, 1.0922),
    (-0.0082, -0.0733, 0.0007, 0.2012, 0.6231, 0.1509),
    (-0.3809, 0.8945, -0.4301, 1.0922, 0.1509, 0.8992),
)


def two_qubit_hamiltonian() -> DiagonalHamiltonian:
    return DiagonalHamiltonian(2, np.array(TWO_QUBIT_DIAGONAL))


def _k(a: float, c: float) -> list:
    """The RY-shaped 2x2 entries ((a, -c), (c, a)); _k(1, 0) is the identity."""
    return [[a, -c], [c, a]]


def two_qubit_circuit(theta: float) -> BoundCircuit:
    """H(q0), CNOT(q0 -> q1), RY(theta on q1) as five whole-register steps; the states between
    them, unnormalized, are [1, 0, 1, 0], [1, 1, 1, 1], [1, 1, -1, 1], [2, 0, 0, 2] and then
    [r, 0, 0, r] with r = sqrt(1/2) before RY(theta)."""
    one, r = _k(1.0, 0.0), _entries("h", None)[0][0]
    return BoundCircuit(2, (
        Step("ry", [_k(1.0, 1.0), one]),
        Step("ry", [one, _k(1.0, 1.0)]),
        Step("diag", None, np.array([1, 1, -1, 1], dtype=np.int8)),  # (Z x I) CZ
        Step("ry", [one, _k(1.0, -1.0)]),
        Step("ry", [_k(r / 2, 0.0), _entries("ry", float(theta))]),
    ))


def two_qubit_amplitudes(theta: float) -> np.ndarray:
    """Closed-form state of the two-qubit circuit."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([c, s, -s, c], dtype=complex) / math.sqrt(2)


def two_qubit_cvar(theta: float, alpha: float) -> float:
    """Closed-form CVaR landscape of the two-qubit case.

    Outcomes are {0: c^2/2, 1: s^2, 2: c^2/2} with c = cos(theta/2) and
    s = sin(theta/2); the boundary outcome enters the tail fractionally.
    """
    ground = math.cos(theta / 2) ** 2 / 2
    middle = math.sin(theta / 2) ** 2
    if alpha <= ground:
        return 0.0
    if alpha <= ground + middle:
        return (alpha - ground) / alpha
    return (middle + 2.0 * (alpha - ground - middle)) / alpha


_DATA_PACKAGE = "cvarqopt.data"
_GOLDEN_FILE = "golden.json"


def golden_path() -> Path:
    return Path(importlib.resources.files(_DATA_PACKAGE) / _GOLDEN_FILE)


def load_golden_json() -> dict:
    data = json.loads(golden_path().read_text())
    if data.get("version") != GOLDEN_VERSION:
        raise ValueError(f"unsupported golden data version {data.get('version')}")
    return data


def compute_golden_values() -> dict:
    """Recompute every frozen 'computed' value.

    The optima come from the brute-force oracle and the flatness values from
    the alternating-family simulator; `portfolio_run_regression` is a
    seed-pinned sampled run of the in-repo optimizer, so it also freezes the
    optimizer's trace.
    """
    from .flatness import flatness_report, needle_hamiltonian
    from .hamiltonian import qubo_to_hamiltonian
    from .oracle import enumerate_hamiltonian
    from .problems import InstanceSpec, generate, portfolio_qubo

    data: dict = {"version": GOLDEN_VERSION, "prng": "numpy.random.PCG64"}

    truth = enumerate_hamiltonian(qubo_to_hamiltonian(portfolio_qubo()))
    data["portfolio_optimum"] = {
        "value": truth.min_value,
        "bitstrings": list(truth.minimizers),
    }

    tri = generate(InstanceSpec("maxcut", 3, seed=0, params={"edges": [[0, 1], [1, 2], [0, 2]], "weights": [1, 1, 1]}))
    data["triangle_maxcut_optimum"] = enumerate_hamiltonian(qubo_to_hamiltonian(tri)).min_value

    # amplitude-cluster regression: random angles on a random maxcut instance
    rng = np.random.Generator(np.random.PCG64(2024))
    cut = generate(InstanceSpec("maxcut", 6, seed=7))
    angles = rng.uniform(-np.pi, np.pi, size=4)
    rep = flatness_report(qubo_to_hamiltonian(cut), betas=angles[:2], gammas=angles[2:])
    data["maxcut_flatness_regression"] = {
        "n": 6,
        "p": 2,
        "instance_seed": 7,
        "angle_seed": 2024,
        "equal_fraction_final": rep.delta_per_layer[-1],
        "max_abs_amplitude": rep.max_abs_amplitude,
    }

    # single-layer peak amplitudes on needle objectives, per size (flatness trend)
    needle = {}
    for n in (8, 10, 12):
        rng_n = np.random.Generator(np.random.PCG64(91000 + n))
        peak = 0.0
        for _ in range(20):
            beta, gamma = rng_n.uniform(-np.pi, np.pi, size=2)
            rep = flatness_report(needle_hamiltonian(n), betas=[beta], gammas=[gamma])
            peak = max(peak, rep.max_abs_amplitude)
        needle[str(n)] = peak
    data["needle_peak_amplitude"] = {"draws": 20, "seed_base": 91000, "by_n": needle}

    # seed-pinned sampled-mode run on the six-asset case: ring layout, theta0 = 0
    from .harness import run_single
    from .optimizer import best_observed_solution

    trace = run_single(
        portfolio_qubo(), algo="vqe", p=1, alpha=0.25, mode="sampled", shots=8192,
        seed=77, entanglement="ring", initial_point="zeros",
    )
    bitstring, bit_value = best_observed_solution(trace)
    data["portfolio_run_regression"] = {
        "algo": "vqe", "p": 1, "alpha": 0.25, "shots": 8192, "seed": 77,
        "n_evaluations": trace.n_evaluations,
        "best_value": trace.best_value,
        "best_bitstring": bitstring,
        "best_bitstring_value": bit_value,
        "overlap_checkpoints": {
            str(r.index): r.overlap for r in trace.records if r.index % 25 == 0 or r.index == trace.n_evaluations
        },
    }

    return data


def regenerate_golden(path: Path | None = None) -> Path:
    """Rewrite the committed golden JSON from freshly computed values."""
    path = path or golden_path()
    data = compute_golden_values()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path

