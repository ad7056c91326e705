"""Scalar objectives for the classical outer loop: CVaR of the measured
objective-value distribution, in exact-distribution or sampled-shot form.

alpha = 1 recovers the mean, alpha -> 0 the minimum.  The exact form splits
the boundary outcome fractionally so it is continuous in alpha, and builds
its running sum only up to the chunk that reaches alpha.  A distribution in
which every value of the Hamiltonian has positive probability shares the
ranking's read-only values instead of copying them.  The sampled form
averages the ceil(alpha*K) smallest of K draws.  Only that tail of the shots
carries information, so for fixed K the estimator's standard error grows
like 1/alpha; hold accuracy constant by scaling shots like K/alpha.

Shots are drawn by inverse CDF from one `rng.random(K)` call.  When there
are no more basis states than shots, each shot is looked up in a bucket
table over [0, 1) (Chen & Asau's guide table), and only shots whose bucket
holds a CDF step are binary-searched; the indices are identical to a
per-shot binary search.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DiagonalHamiltonian
from .statevector import StateVector, _seed, _whole

# inverse-CDF sampling over the probability table, stream below
PRNG_NAME = "numpy.random.PCG64"

# probability below which a basis state is not considered part of the support
SUPPORT_EPS = 1e-12

# running-sum entries `cvar_exact` adds per step before it checks for the alpha boundary
CUMSUM_CHUNK = 4096


def _check_alpha(alpha) -> float:
    """alpha as a float, if it is a real number in (0, 1] and not a bool."""
    if type(alpha) is float and 0.0 < alpha <= 1.0:  # the common case, without the ABC checks
        return alpha
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be a number in (0, 1], got {alpha!r}")
    return float(alpha)


def _check_probabilities(probs: np.ndarray) -> None:
    if not (probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-10):  # NaN fails both
        raise ValueError("probs must be finite, nonnegative and sum to 1")


@dataclass(frozen=True)
class OutcomeDistribution:
    values: np.ndarray  # strictly increasing distinct objective values
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be matching nonempty 1-D arrays")
        if not (np.isfinite(values).all() and (np.diff(values) > 0).all()):
            raise ValueError("values must be finite and strictly increasing")
        _check_probabilities(probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _ranked(cls, values: np.ndarray, probs: np.ndarray) -> "OutcomeDistribution":
        """The distribution on `values`, taken in order from a Hamiltonian's ranking, which holds
        finite, strictly increasing values by construction: only the probabilities are checked.
        Both arrays become read-only, since `values` may be the ranking's own."""
        _check_probabilities(probs)
        values.flags.writeable = probs.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "values", values)
        object.__setattr__(dist, "probs", probs)
        return dist


@dataclass(frozen=True)
class CvarConfig:
    alpha: float
    mode: str = "exact"  # "exact" | "sampled"
    shots: int = 8192
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled":
            object.__setattr__(self, "shots", _whole("shots", self.shots))
            if self.shots < 1:
                raise ValueError(f"shot count must be >= 1, got {self.shots}")


def _check_sizes(state: StateVector, ham: DiagonalHamiltonian) -> None:
    if state.n != ham.n:
        raise ValueError(f"state has n={state.n}, hamiltonian has n={ham.n}")


def outcome_distribution(state: StateVector, ham: DiagonalHamiltonian) -> OutcomeDistribution:
    """Distribution of objective values induced by measuring the trial state.

    When every value has positive probability, the distribution holds the
    ranking's own read-only `values`; otherwise it holds a copy of the values
    in the support.  Its `values` and `probs` are read-only either way."""
    _check_sizes(state, ham)
    values, inverse = ham.ranking.values, ham.ranking.inverse
    merged = np.bincount(inverse, weights=state.probabilities, minlength=values.size)
    if not merged.min() > 0.0:  # outcomes outside the support are not part of the distribution
        keep = merged > 0.0
        values, merged = values[keep], merged[keep]
    return OutcomeDistribution._ranked(values, merged)


def _running_sum(probs: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """The running sum of `probs` up to the first CUMSUM_CHUNK-entry chunk whose
    last total reaches alpha, in a buffer of the full length whose later entries
    are unset, and one past the first entry that reaches alpha (len(probs) + 1
    if none does).

    Each later chunk is summed on from the previous chunk's last total, so every
    entry is the sequential sum `np.cumsum` gives.
    """
    k = probs.size
    cum = np.empty(k)
    for lo in range(0, k, CUMSUM_CHUNK):
        hi = min(lo + CUMSUM_CHUNK, k)
        if lo == 0:
            np.add.accumulate(probs[:hi], out=cum[:hi])
        else:
            cum[lo:hi] = probs[lo:hi]
            run = cum[lo - 1 : hi]  # starts at the last total
            np.add.accumulate(run, out=run)
        if cum[hi - 1] >= alpha:
            return cum, lo + int(cum[lo:hi].searchsorted(alpha)) + 1
    return cum, k + 1


def cvar_exact(dist: OutcomeDistribution, alpha: float) -> float:
    """Mean of the lower alpha-tail, with the boundary value taken fractionally.

    Only outcomes up to the first whose running sum reaches alpha contribute,
    so above CUMSUM_CHUNK outcomes the running sum stops at the chunk that
    reaches alpha (`_running_sum`).  Each outcome's share of the tail is then
    computed in place on that prefix and the rest is zeroed; the dot product
    still runs over every outcome, so the result is the same, bit for bit, as
    the full-length formula's.
    """
    alpha = _check_alpha(alpha)
    probs = dist.probs
    if probs.size <= CUMSUM_CHUNK:
        cum = np.add.accumulate(probs)  # np.cumsum's sum, without its Python-level dispatch
        end = cum.searchsorted(alpha) + 1
    else:
        cum, end = _running_sum(probs, alpha)
    take, head = cum[:end], probs[:end]
    np.subtract(take, head, out=take)
    np.subtract(alpha, take, out=take)
    np.maximum(take, 0.0, out=take)
    np.minimum(take, head, out=take)
    # nothing past the boundary outcome: cum - probs can round to just below alpha there
    cum[end:] = 0.0
    return float((dist.values @ cum) / alpha)


def inverse_cdf_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cum, u, side="right")` for a nondecreasing `cum` in [0, 1]
    and keys `u` in [0, 1), exactly.

    With no more CDF entries than keys, [0, 1) is cut into G buckets
    [b/G, (b+1)/G), G a power of two so that `cum*G` and `u*G` are exact.
    `bounds[b] = #{j : cum[j] <= b/G}` comes from one `bincount` of
    `ceil(cum*G)`; a key in bucket b has index `bounds[b]` unless a CDF value
    lies strictly inside the bucket (a value on its upper edge exceeds every
    key in it), and only keys in such a bucket are binary-searched.  G is at
    least 4*cum.size, so at most one bucket in four holds a value, and at
    least half the number of keys, so with few CDF entries a key seldom meets
    one: a uniform key falls in each bucket with probability 1/G, so on
    average at most cum.size/G of the keys are searched.  When every CDF
    value is a multiple of 1/cum.size (a uniform state over an even number of
    qubits), each lies on an edge and no key is searched.
    """
    if cum.size > u.size:  # the O(G) table would cost more than the searches it saves
        return np.searchsorted(cum, u, side="right")
    g = max(4 << (cum.size - 1).bit_length(), (1 << (u.size - 1).bit_length()) // 2)
    x = cum * g
    f = np.floor(x)
    bounds = np.cumsum(np.bincount(np.ceil(x).astype(np.intp), minlength=g + 1))
    table = bounds[:-1]  # a view: bounds is not read again
    table[f[x != f].astype(np.intp)] = -1  # -1: a CDF value strictly inside the bucket
    indices = table[(u * g).astype(np.intp)]
    stepped = np.flatnonzero(indices < 0)
    indices[stepped] = np.searchsorted(cum, u[stepped], side="right")
    return indices


def sample_outcomes(state: StateVector, ham: DiagonalHamiltonian, shots: int, rng: np.random.Generator, *,
                    _table=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw basis-index samples by inverse CDF; returns (indices, objective values).

    The stream advances by exactly one `rng.random(shots)`.  While 2^n <= shots
    each shot's index comes from a bucket table (`inverse_cdf_indices`), with
    a binary search only for shots in a bucket that holds a CDF step; every
    index equals a per-shot binary search of the CDF.  Each shot's value is
    read from `ham.table`; a caller that draws often builds it once as `_table`.
    """
    _check_sizes(state, ham)
    cum = np.cumsum(state.probabilities)
    if not (np.isfinite(cum[-1]) and cum[-1] > 0):  # a NaN, infinite or zero state has no CDF
        raise ValueError("state probabilities must be finite with a positive total")
    cum /= cum[-1]  # end exactly at 1 without moving mass onto a zero-probability tail
    indices = inverse_cdf_indices(cum, rng.random(shots))
    return indices, (ham.table if _table is None else _table)[indices]


def cvar_from_samples(values: np.ndarray, alpha: float) -> float:
    """Mean of the ceil(alpha*K) smallest sample values."""
    alpha = _check_alpha(alpha)
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
    _check_sizes(state, ham)
    return float(state.probabilities[ham.ranking.ground].sum())


def best_support_bitstring(state: StateVector, ham: DiagonalHamiltonian) -> tuple[int, float]:
    """Lowest-value basis state carrying nonnegligible probability, with its value.

    Among states of equal value the lowest index wins.  The ground states are
    tried first; the whole support is scanned only when none of them is in it.
    """
    _check_sizes(state, ham)
    values, inverse, ground, _ = ham.ranking
    on_ground = state.probabilities[ground] > SUPPORT_EPS
    if on_ground.any():
        j = int(ground[np.argmax(on_ground)])
    else:
        candidates = np.flatnonzero(state.probabilities > SUPPORT_EPS)
        j = int(candidates[np.argmin(inverse[candidates])])
    return j, float(values[inverse[j]])
