import numpy as np
import pytest

from cvarqopt import harness, statevector
from cvarqopt.ansatz import trial_state
from cvarqopt.hamiltonian import DiagonalHamiltonian, IsingModel, QuboProblem
from cvarqopt.objective import OutcomeDistribution, cvar_exact, outcome_distribution
from cvarqopt.statevector import StateVector


def random_qubo(rng: np.random.Generator, n: int, integer: bool = False) -> QuboProblem:
    """Random dense QUBO; integer coefficients keep every value dyadic-exact."""
    if integer:
        b = rng.integers(-10, 11, size=n).astype(float)
        A = rng.integers(-10, 11, size=(n, n)).astype(float)
        const = float(rng.integers(-10, 11))
    else:
        b = rng.normal(size=n)
        A = rng.normal(size=(n, n))
        const = float(rng.normal())
    return QuboProblem(n, b, A, const=const)


def qubo_value(q: QuboProblem, x) -> float:
    """Objective const + b.x + x^T A x at a binary assignment."""
    x = np.asarray(x, dtype=float)
    return float(q.const + q.b @ x + x @ q.A @ x)


def ising_value(m: IsingModel, z) -> float:
    """Energy offset + c.z + sum_{i<k} 2*Q[i,k]*z_i*z_k at a spin assignment."""
    z = np.asarray(z, dtype=float)
    return float(m.offset + m.c @ z + 2.0 * (z @ m.Q @ z))


def exact_cvar_landscape(ansatz, ham: DiagonalHamiltonian, alpha: float, thetas, max_points: int = 100_000) -> np.ndarray:
    """Exact CVaR over a parameter grid.

    `ansatz` is either an AnsatzSpec or any callable mapping a parameter
    point to a StateVector.  Each grid entry may be a scalar (one-parameter
    families) or a full parameter vector.
    """
    thetas = list(thetas)
    if len(thetas) > max_points:
        raise ValueError(f"grid of {len(thetas)} points exceeds cap {max_points}")
    state_at = ansatz if callable(ansatz) else lambda t: trial_state(ansatz, np.atleast_1d(t))
    out = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        state = state_at(theta)
        if not isinstance(state, StateVector):
            raise TypeError("ansatz callable must return a StateVector")
        out[i] = cvar_exact(outcome_distribution(state, ham), alpha)
    return out


def random_distribution(rng: np.random.Generator, size: int = 12) -> OutcomeDistribution:
    values = np.sort(rng.choice(np.arange(-50, 50), size=size, replace=False)).astype(float)
    probs = rng.random(size)
    return OutcomeDistribution(values, probs / probs.sum())


def reference_cvar(dist: OutcomeDistribution, alpha: float) -> float:
    """Exact CVaR by the full-length formula: every outcome's share of the tail,
    alpha minus the mass below it clipped to [0, its probability], and nothing
    past the first outcome whose running sum reaches alpha."""
    probs = dist.probs
    cum = np.cumsum(probs)
    take = np.minimum(np.maximum(alpha - (cum - probs), 0.0), probs)
    take[np.searchsorted(cum, alpha) + 1 :] = 0.0
    return float((dist.values @ take) / alpha)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def all_bitstrings(n: int) -> np.ndarray:
    """All assignments as rows of 0/1, row index = basis index (qubit 0 high bit)."""
    idx = np.arange(2**n)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(float)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def portfolio_runs_fail(monkeypatch):
    """Make every sweep run of a portfolio instance fail, through the generator
    `run_sweep` looks up when it runs; other problems run as usual."""
    generate = harness.generate

    def failing(spec):
        if spec.problem == "portfolio":
            raise ValueError("injected portfolio failure")
        return generate(spec)

    monkeypatch.setattr(harness, "generate", failing)


def rotated_sizes(monkeypatch) -> list:
    """Record the size of every array a rotation layer is applied to from now on."""
    sizes, rotate = [], statevector._rotate
    monkeypatch.setattr(statevector, "_rotate", lambda amps, name, matrices: sizes.append(amps.size)
                        or rotate(amps, name, matrices))
    return sizes
