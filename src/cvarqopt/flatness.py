"""Flatness diagnostics for alternating-unitary (QAOA-style) states.

Quantifies why small-depth alternating circuits can fail to concentrate
probability: if most diagonal values coincide (large delta) and most
amplitudes stay equal across layers (large per-layer equal fraction), every
amplitude is pinned near 1/sqrt(2^n) by an explicit bound.

States start uniform and are evolved one `ansatz.qaoa_layer` at a time (the
cost `diag` gathered from the Hamiltonian's ranking, then RX(2*beta) on every
qubit), so they cover objectives (like the needle) that are not expressible
as a quadratic Ising model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import qaoa_layer
from .hamiltonian import DiagonalHamiltonian
from .statevector import Circuit, StateVector, check_qubits, run_circuit

DEFAULT_EQUALITY_TOL = 1e-9  # absolute, per complex component: merges fp twins only


@dataclass(frozen=True)
class FlatnessReport:
    n: int
    p: int
    delta: float  # max fraction of basis states sharing one objective value
    delta_per_layer: tuple[float, ...]  # running-min equal-amplitude fraction, layers 0..p
    max_abs_amplitude: float
    bound_value: float
    bound_holds: bool
    equality_tolerance: float
    structureless: bool  # equal-amplitude fraction collapsed to 1/2^n


def compute_delta(ham: DiagonalHamiltonian) -> float:
    """Largest multiplicity among the diagonal values, as a fraction of 2^n."""
    return float(np.bincount(ham.ranking.inverse).max()) / 2**ham.n


def _check_tol(tol: float) -> None:
    """A negative tolerance makes no two amplitudes equal, so the bound would prove nothing."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"equality tolerance must be finite and >= 0, got {tol!r}")


def equal_amplitude_fraction(amplitudes: np.ndarray, tol: float = DEFAULT_EQUALITY_TOL) -> float:
    """Largest cluster of pairwise-equal complex amplitudes, as a fraction.

    Chains entries whose sorted real parts lie within tol into runs, then
    chains each run's sorted imaginary parts the same way; the chains left
    are the clusters.
    """
    _check_tol(tol)
    amps = np.asarray(amplitudes)
    order = np.argsort(amps.real)
    re, im = amps.real[order], amps.imag[order]
    runs = np.concatenate(([0], np.cumsum(np.diff(re) > tol)))
    inner = np.lexsort((im, runs))  # runs stay in place; each is sorted by imaginary part
    runs, im = runs[inner], im[inner]
    breaks = (np.diff(runs) != 0) | (np.diff(im) > tol)
    sizes = np.diff(np.concatenate(([0], np.flatnonzero(breaks) + 1, [amps.size])))
    return float(sizes.max()) / amps.size


def qaoa_snapshots(ham: DiagonalHamiltonian, betas, gammas) -> list[np.ndarray]:
    """Amplitude arrays after the Hadamard layer (index 0) and after each full layer."""
    betas = np.asarray(betas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if betas.shape != gammas.shape or betas.ndim != 1:
        raise ValueError("betas and gammas must be 1-D with equal length")
    n = ham.n
    state = StateVector.uniform(n)
    snapshots = [state.amplitudes]
    for beta, gamma in zip(betas, gammas):
        state = run_circuit(Circuit(n, qaoa_layer([ham.ranking], n, [beta], [gamma])), state)
        snapshots.append(state.amplitudes)  # run_circuit works on a copy, so this stays as it is
    return snapshots


def amplitude_flatness_profile(snapshots, tol: float = DEFAULT_EQUALITY_TOL) -> tuple[float, ...]:
    """Running minimum over layers of the equal-amplitude fraction."""
    if not snapshots:
        raise ValueError("need at least the layer-0 snapshot")
    profile = []
    running = 1.0
    for amps in snapshots:
        running = min(running, equal_amplitude_fraction(amps, tol))
        profile.append(running)
    return tuple(profile)


def amplitude_bound(n: int, p: int, delta: float, delta_prev_layer: float) -> float:
    """(2^{n+1} (2 - Delta_{p-1} - delta) + 1)^p / sqrt(2^n)."""
    if p == 0:
        return 1.0 / math.sqrt(2**n)
    return (2 ** (n + 1) * (2.0 - delta_prev_layer - delta) + 1.0) ** p / math.sqrt(2**n)


def check_bound(
    ham: DiagonalHamiltonian,
    snapshots,
    tol: float = DEFAULT_EQUALITY_TOL,
) -> FlatnessReport:
    """Assemble the report and compare the peak amplitude against the bound."""
    _check_tol(tol)
    n = ham.n
    p = len(snapshots) - 1
    delta = compute_delta(ham)
    profile = amplitude_flatness_profile(snapshots, tol)
    max_abs = float(np.abs(snapshots[-1]).max())
    bound = amplitude_bound(n, p, delta, profile[p - 1] if p >= 1 else 1.0)
    return FlatnessReport(
        n=n,
        p=p,
        delta=delta,
        delta_per_layer=profile,
        max_abs_amplitude=max_abs,
        bound_value=bound,
        bound_holds=max_abs <= bound * (1.0 + 1e-9) + 1e-12,
        equality_tolerance=tol,
        structureless=profile[-1] <= 1.0 / 2**n + 1e-15,
    )


def flatness_report(
    ham: DiagonalHamiltonian, betas, gammas, tol: float = DEFAULT_EQUALITY_TOL
) -> FlatnessReport:
    """Run the alternating circuit for the given angles and report flatness."""
    return check_bound(ham, qaoa_snapshots(ham, betas, gammas), tol)


def cluster_fraction_lower_bound(n: int, p: int, delta: float) -> float:
    """Closed-form (very loose) floor for the layer-p equal-amplitude fraction.

    Computed in log space; underflows cleanly to 0 for all but tiny systems.
    """
    if p < 1:
        raise ValueError("requires p >= 1")
    exponent = 2**n * (1.0 - delta + (p - 1) / p)
    log_bound = -3.0 * math.log(n) * exponent
    return math.exp(log_bound) if log_bound > -700 else 0.0


def needle_hamiltonian(n: int, index: int = 0) -> DiagonalHamiltonian:
    """Minimization needle: value 0 at one distinguished bitstring, 1 elsewhere."""
    check_qubits(n)
    if not 0 <= index < 2**n:
        raise ValueError(f"needle index must be in [0, {2**n}), got {index}")
    table = np.ones(2**n)
    table[index] = 0.0
    return DiagonalHamiltonian(n, table)
