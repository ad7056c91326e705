"""Brute-force ground truth over the full basis: exact minima, degeneracies,
value histograms, and exact CVaR landscapes on parameter grids."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import DiagonalHamiltonian
from .objective import cvar_exact, outcome_distribution
from .statevector import StateVector


@dataclass(frozen=True)
class GroundTruth:
    min_value: float
    minimizers: tuple[int, ...]
    histogram: dict[float, int]  # objective value -> multiplicity


def enumerate_hamiltonian(ham: DiagonalHamiltonian) -> GroundTruth:
    """All 2^n basis states' values, read off the Hamiltonian's ranking (it holds only values that occur)."""
    values, inverse, ground = ham.ranking
    histogram = dict(zip(values.tolist(), np.bincount(inverse, minlength=values.size).tolist()))
    return GroundTruth(min_value=float(values[0]), minimizers=tuple(ground.tolist()), histogram=histogram)


def ground_value(ham: DiagonalHamiltonian) -> float:
    return float(ham.ranking.values[0])


def exact_cvar_landscape(
    ansatz,
    ham: DiagonalHamiltonian,
    alpha: float,
    thetas,
    max_points: int = 100_000,
) -> np.ndarray:
    """Exact CVaR over a parameter grid.

    `ansatz` is either an AnsatzSpec or any callable mapping a parameter
    point to a StateVector.  Each grid entry may be a scalar (one-parameter
    families) or a full parameter vector.
    """
    thetas = list(thetas)
    if len(thetas) > max_points:
        raise ValueError(f"grid of {len(thetas)} points exceeds cap {max_points}")
    if callable(ansatz):
        state_at = ansatz
    else:
        from .ansatz import trial_state

        state_at = lambda t: trial_state(ansatz, np.atleast_1d(t))
    out = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        state = state_at(theta)
        if not isinstance(state, StateVector):
            raise TypeError("ansatz callable must return a StateVector")
        out[i] = cvar_exact(outcome_distribution(state, ham), alpha)
    return out
