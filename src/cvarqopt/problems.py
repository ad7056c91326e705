"""Seeded instance generators for six problem classes, each emitting a QUBO.

All generators are deterministic per (problem, n, seed, params).  Default
parameters: graph edge density 0.5, integer edge weights in [1, 10], Max3Sat
clause/variable ratio 4.0, market-split coefficients in [1, 9] with targets
d_i = floor(rowsum/2) and ceil(n/5) constraints.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .hamiltonian import QuboProblem

PROBLEM_NAMES = ("stable_set", "max3sat", "partition", "maxcut", "market_split", "portfolio")

# the params each generator reads; any other key is rejected
PARAM_KEYS = {
    "maxcut": ("edges", "weights", "edge_density"),
    "stable_set": ("edge_density",),
    "partition": ("numbers",),
    "market_split": ("constraints",),
    "max3sat": ("clause_ratio",),
    "portfolio": ("risk_factor", "budget", "penalty"),
}

STABLE_SET_PENALTY = 2.0  # per-edge penalty; any weight > 1 keeps optima conflict-free


@dataclass(frozen=True)
class InstanceSpec:
    problem: str
    n_qubits: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.problem in ("maxcut", "stable_set") and self.n_qubits < 2:
            raise ValueError(f"{self.problem} requires at least two vertices")
        if self.problem == "max3sat" and self.n_qubits % 3 != 0:
            raise ValueError("max3sat requires n_qubits to be a multiple of three")
        unknown = sorted(set(self.params) - set(PARAM_KEYS[self.problem]))
        if unknown:
            raise ValueError(f"{self.problem} takes no parameter {', '.join(unknown)}; "
                             f"it reads {', '.join(PARAM_KEYS[self.problem])}")


@dataclass(frozen=True)
class PortfolioFixture:
    n: int = fixtures.PORTFOLIO_N
    risk_factor: float = fixtures.PORTFOLIO_RISK_FACTOR
    budget: int = fixtures.PORTFOLIO_BUDGET
    penalty: float = fixtures.PORTFOLIO_PENALTY
    returns: np.ndarray = None
    covariance: np.ndarray = None

    def __post_init__(self):
        mu = np.asarray(self.returns if self.returns is not None else fixtures.PORTFOLIO_RETURNS, float)
        sigma = np.asarray(
            self.covariance if self.covariance is not None else fixtures.PORTFOLIO_COVARIANCE, float
        )
        if mu.shape != (self.n,) or sigma.shape != (self.n, self.n):
            raise ValueError("returns/covariance dimensions inconsistent with n")
        if not np.allclose(sigma, sigma.T):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-8:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "returns", mu)
        object.__setattr__(self, "covariance", sigma)


def _random_edges(n: int, density: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if not edges:  # degenerate draw; keep the instance nontrivial
        edges = [(0, 1)]
    return edges


def _edge(n: int, edge) -> tuple[int, int]:
    """An edge given as two distinct integer vertices in [0, n); a ValueError otherwise."""
    ends = tuple(edge) if isinstance(edge, (list, tuple)) else ()
    vertices = [v for v in ends if isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < n]
    if len(ends) != 2 or len(set(vertices)) != 2:
        raise ValueError(f"a maxcut edge is two distinct integer vertices in [0, {n}), got {edge!r}")
    return int(ends[0]), int(ends[1])


def _maxcut(n: int, seed: int, params: dict) -> QuboProblem:
    """Minimize -sum_{(i,j) in E} w_ij (x_i + x_j - 2 x_i x_j)."""
    rng = np.random.default_rng(seed)
    if "edges" in params:
        edges = [_edge(n, e) for e in params["edges"]]
        weights = list(params.get("weights", [1.0] * len(edges)))
        if len(weights) != len(edges):
            raise ValueError(f"maxcut takes one weight per edge, got {len(weights)} for {len(edges)} edges")
    elif "weights" in params:
        raise ValueError("maxcut weights go with edges: give edges too")
    else:
        edges = _random_edges(n, params.get("edge_density", 0.5), rng)
        weights = rng.integers(1, 11, size=len(edges)).tolist()
    b = np.zeros(n)
    A = np.zeros((n, n))
    for (i, j), w in zip(edges, weights):
        b[i] -= w
        b[j] -= w
        A[min(i, j), max(i, j)] += 2.0 * w
    return QuboProblem(n, b, A)


def _stable_set(n: int, seed: int, params: dict) -> QuboProblem:
    """Maximize |S| with penalty STABLE_SET_PENALTY per edge inside S."""
    rng = np.random.default_rng(seed)
    edges = _random_edges(n, params.get("edge_density", 0.5), rng)
    b = -np.ones(n)
    A = np.zeros((n, n))
    for i, j in edges:
        A[min(i, j), max(i, j)] += STABLE_SET_PENALTY
    return QuboProblem(n, b, A)


def _partition(n: int, seed: int, params: dict) -> QuboProblem:
    """(sum_i a_i z_i)^2 over the two-set split encoded by x."""
    rng = np.random.default_rng(seed)
    a = np.asarray(params.get("numbers", rng.integers(1, 11, size=n)), dtype=float)
    if a.shape != (n,):
        raise ValueError("numbers must have length n")
    total = a.sum()
    return QuboProblem(n, b=-4.0 * total * a, A=4.0 * np.outer(a, a), const=total**2)


def _market_split(n: int, seed: int, params: dict) -> QuboProblem:
    """Minimize sum_i (M_i . x - d_i)^2 over ceil(n/5) rows."""
    rng = np.random.default_rng(seed)
    m = int(params.get("constraints", math.ceil(n / 5)))
    M = rng.integers(1, 10, size=(m, n)).astype(float)
    d = np.floor(M.sum(axis=1) / 2.0)
    return QuboProblem(n, b=-2.0 * M.T @ d, A=M.T @ M, const=float(d @ d))


class Clause(tuple):
    """Three (variable, negated) literals over distinct variables."""

    __slots__ = ()

    def __new__(cls, literals):
        literals = tuple((int(v), bool(neg)) for v, neg in literals)
        if len(literals) != 3 or len({v for v, _ in literals}) != 3:
            raise ValueError(f"need three distinct variables, got {literals}")
        return super().__new__(cls, literals)


def clause_unsatisfied(clause: Clause, x) -> bool:
    """True iff every literal evaluates false under assignment x."""
    x = np.asarray(x)
    return all(bool(x[v]) == neg for v, neg in clause)


def max3sat_clauses(n: int, seed: int, clause_ratio: float = 4.0) -> list[Clause]:
    """Clause list for an instance; emitted in complementary pairs.

    Each pair shares a variable triple and the first two literals, with the
    third literal flipped between the two clauses.  Summing the two unsat
    indicators cancels the cubic term, so the total unsat count is exactly
    quadratic in x.
    """
    rng = np.random.default_rng(seed)
    n_pairs = max(1, round(clause_ratio * n / 2))
    clauses: list[Clause] = []
    for _ in range(n_pairs):
        v = rng.choice(n, size=3, replace=False)
        neg = rng.random(3) < 0.5
        clauses.append(Clause([(v[0], neg[0]), (v[1], neg[1]), (v[2], neg[2])]))
        clauses.append(Clause([(v[0], neg[0]), (v[1], neg[1]), (v[2], not neg[2])]))
    return clauses


def _add_pair_penalty(b: np.ndarray, A: np.ndarray, lit_a, lit_b) -> float:
    """Accumulate (1-L_a)(1-L_b) into b/A; returns the constant part."""
    (va, na), (vb, nb) = lit_a, lit_b
    # 1-L is x when the literal is negated, (1-x) otherwise
    sa, ca = (1.0, 0.0) if na else (-1.0, 1.0)  # 1-L_a = ca + sa*x_a
    sb, cb = (1.0, 0.0) if nb else (-1.0, 1.0)
    b[va] += sa * cb
    b[vb] += sb * ca
    A[min(va, vb), max(va, vb)] += sa * sb
    return ca * cb


def _max3sat(n: int, seed: int, params: dict) -> QuboProblem:
    """QUBO value equals the number of unsatisfied clauses, exactly."""
    clauses = max3sat_clauses(n, seed, params.get("clause_ratio", 4.0))
    b = np.zeros(n)
    A = np.zeros((n, n))
    const = 0.0
    for first, _second in zip(clauses[0::2], clauses[1::2]):
        const += _add_pair_penalty(b, A, first[0], first[1])
    return QuboProblem(n, b, A, const=const)


def portfolio_qubo(fixture: PortfolioFixture | None = None) -> QuboProblem:
    """Minimization form of the budget-penalized mean-variance objective."""
    f = fixture or PortfolioFixture()
    lam, B, q = f.penalty, f.budget, f.risk_factor
    b = -f.returns - 2.0 * lam * B * np.ones(f.n)
    A = q * f.covariance + lam * np.ones((f.n, f.n))
    return QuboProblem(f.n, b, A, const=lam * B**2)


def _portfolio(n: int, seed: int, params: dict) -> QuboProblem:
    """Random portfolio instance in the shape of the published six-asset case."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 1.0, size=n)
    series = rng.normal(size=(2 * n, n))
    sigma = np.atleast_2d(np.cov(series, rowvar=False))  # np.cov of one column is 0-d
    fixture = PortfolioFixture(
        n=n,
        risk_factor=params.get("risk_factor", 0.5),
        budget=int(params.get("budget", n // 2)),
        penalty=params.get("penalty", 12.0),
        returns=mu,
        covariance=sigma,
    )
    return portfolio_qubo(fixture)


_GENERATORS = {
    "maxcut": _maxcut,
    "stable_set": _stable_set,
    "partition": _partition,
    "market_split": _market_split,
    "max3sat": _max3sat,
    "portfolio": _portfolio,
}


def generate(spec: InstanceSpec) -> QuboProblem:
    """Deterministic QUBO for the given instance spec."""
    return _GENERATORS[spec.problem](spec.n_qubits, spec.seed, spec.params)
