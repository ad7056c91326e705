"""Brute-force ground truth over the full basis: exact minima, degeneracies
and value histograms, read off the Hamiltonian's ranking."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import DiagonalHamiltonian


@dataclass(frozen=True)
class GroundTruth:
    min_value: float
    minimizers: tuple[int, ...]
    histogram: dict[float, int]  # objective value -> multiplicity


def enumerate_hamiltonian(ham: DiagonalHamiltonian) -> GroundTruth:
    """All 2^n basis states' values, read off the Hamiltonian's ranking (it holds only values that occur)."""
    values, inverse, ground, _ = ham.ranking
    histogram = dict(zip(values.tolist(), np.bincount(inverse, minlength=values.size).tolist()))
    return GroundTruth(min_value=float(values[0]), minimizers=tuple(ground.tolist()), histogram=histogram)


def ground_value(ham: DiagonalHamiltonian) -> float:
    return float(ham.ranking.values[0])
