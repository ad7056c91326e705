"""Scalar objectives for the classical outer loop: CVaR of the measured
objective-value distribution, in exact-distribution or sampled-shot form.

alpha = 1 recovers the mean, alpha -> 0 the minimum.  The exact form splits
the boundary outcome fractionally so it is continuous in alpha; the sampled
form averages the ceil(alpha*K) smallest of K draws.  Only that tail of the
shots carries information, so for fixed K the estimator's standard error
grows like 1/alpha; hold accuracy constant by scaling shots like K/alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DiagonalHamiltonian
from .statevector import StateVector, probabilities

# inverse-CDF sampling over the probability table, stream below
PRNG_NAME = "numpy.random.PCG64"

# probability below which a basis state is not considered part of the support
SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    values: np.ndarray  # strictly increasing distinct objective values
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be matching nonempty 1-D arrays")
        if np.any(np.diff(values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(self.values @ self.probs)


@dataclass(frozen=True)
class CvarConfig:
    alpha: float
    mode: str = "exact"  # "exact" | "sampled"
    shots: int = 8192
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError(f"shot count must be >= 1, got {self.shots}")


def outcome_distribution(state: StateVector, ham: DiagonalHamiltonian) -> OutcomeDistribution:
    """Distribution of objective values induced by measuring the trial state."""
    if state.n != ham.n:
        raise ValueError(f"state has n={state.n}, hamiltonian has n={ham.n}")
    values, inverse = ham.ranking.values, ham.ranking.inverse
    merged = np.bincount(inverse, weights=probabilities(state), minlength=values.size)
    keep = merged > 0.0  # outcomes outside the support are not part of the distribution
    return OutcomeDistribution(values[keep], merged[keep])


def cvar_exact(dist: OutcomeDistribution, alpha: float) -> float:
    """Mean of the lower alpha-tail, with the boundary value taken fractionally."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    cum = np.cumsum(dist.probs)
    prev = cum - dist.probs
    take = np.clip(alpha - prev, 0.0, dist.probs)
    # nothing past the boundary outcome: cum - probs can round to just below alpha there
    take[np.searchsorted(cum, alpha) + 1 :] = 0.0
    return float((dist.values @ take) / alpha)


def sample_outcomes(
    state: StateVector, ham: DiagonalHamiltonian, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw basis-index samples by inverse CDF; returns (indices, objective values)."""
    if state.n != ham.n:
        raise ValueError(f"state has n={state.n}, hamiltonian has n={ham.n}")
    cum = np.cumsum(probabilities(state))
    cum /= cum[-1]  # end exactly at 1 without moving mass onto a zero-probability tail
    indices = np.searchsorted(cum, rng.random(shots), side="right")
    return indices, ham.ranking.values[ham.ranking.inverse[indices]]


def cvar_from_samples(values: np.ndarray, alpha: float) -> float:
    """Mean of the ceil(alpha*K) smallest sample values."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    k = values.size
    if k == 0:
        raise ValueError("need at least one sample")
    m = math.ceil(alpha * k)
    return float(np.partition(values, m - 1)[:m].mean())


def cvar_sampled(state: StateVector, ham: DiagonalHamiltonian, cfg: CvarConfig) -> float:
    """Sampled-shot CVaR; deterministic given (seed, shots, alpha, state, ham)."""
    if cfg.mode != "sampled":
        raise ValueError("cvar_sampled requires a sampled-mode config")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    _, values = sample_outcomes(state, ham, cfg.shots, rng)
    return cvar_from_samples(values, cfg.alpha)


def overlap_with_optimum(state: StateVector, ham: DiagonalHamiltonian) -> float:
    """Total probability mass on minimum-value basis states (all degenerate minima count)."""
    if state.n != ham.n:
        raise ValueError(f"state has n={state.n}, hamiltonian has n={ham.n}")
    return float((np.abs(state.amplitudes[ham.ranking.ground]) ** 2).sum())


def best_support_bitstring(state: StateVector, ham: DiagonalHamiltonian) -> tuple[int, float]:
    """Lowest-value basis state carrying nonnegligible probability, with its value.

    Among states of equal value the lowest index wins.  The ground states are
    tried first; the whole support is scanned only when none of them is in it.
    """
    values, inverse, ground = ham.ranking
    on_ground = np.abs(state.amplitudes[ground]) ** 2 > SUPPORT_EPS
    if on_ground.any():
        j = int(ground[np.argmax(on_ground)])
    else:
        candidates = np.flatnonzero(probabilities(state) > SUPPORT_EPS)
        j = int(candidates[np.argmin(inverse[candidates])])
    return j, float(values[inverse[j]])
