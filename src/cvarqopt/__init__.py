"""CVaR-based variational quantum optimization on an exact state-vector
simulator: QUBO/Ising encodings, hardware-efficient and alternating ansatz
families, tail-focused objectives, a derivative-free outer loop, benchmark
instance generators, and flatness diagnostics."""

from .ansatz import AnsatzSpec, build_circuit, trial_state
from .hamiltonian import (
    DiagonalHamiltonian,
    IsingModel,
    QuboProblem,
    ising_to_hamiltonian,
    qubo_to_hamiltonian,
    qubo_to_ising,
)
from .objective import (
    CvarConfig,
    OutcomeDistribution,
    cvar_exact,
    cvar_sampled,
    outcome_distribution,
    overlap_with_optimum,
)
from .optimizer import OptimizerConfig, RunTrace, best_observed_solution, minimize
from .oracle import GroundTruth, enumerate_hamiltonian
from .problems import InstanceSpec, PortfolioFixture, generate, portfolio_qubo
from .statevector import StateVector, run_circuit

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "CvarConfig",
    "DiagonalHamiltonian",
    "GroundTruth",
    "InstanceSpec",
    "IsingModel",
    "OptimizerConfig",
    "OutcomeDistribution",
    "PortfolioFixture",
    "QuboProblem",
    "RunTrace",
    "StateVector",
    "best_observed_solution",
    "build_circuit",
    "cvar_exact",
    "cvar_sampled",
    "enumerate_hamiltonian",
    "generate",
    "ising_to_hamiltonian",
    "minimize",
    "outcome_distribution",
    "overlap_with_optimum",
    "portfolio_qubo",
    "qubo_to_hamiltonian",
    "qubo_to_ising",
    "run_circuit",
    "trial_state",
]
