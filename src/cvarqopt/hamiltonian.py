"""Binary-quadratic problem encodings and the induced diagonal Hamiltonian.

A QUBO min b.x + x^T A x (+ const) over x in {0,1}^n maps to spin variables
via x_i = (1 - z_i)/2, z_i in {-1,+1}.  The Ising form stores the upper
triangle of the symmetric coupling matrix, so the pair (i, k) contributes
2*Q[i,k]*z_i*z_k; the constant dropped by the textbook transform is kept in
`offset` so objective values stay comparable to the original problem.
Spin convention: bit value 0 of qubit i means z_i = +1, bit 1 means z_i = -1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .statevector import check_qubits


@dataclass(frozen=True)
class QuboProblem:
    n: int
    b: np.ndarray
    A: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if b.shape != (self.n,) or A.shape != (self.n, self.n):
            raise ValueError(f"inconsistent dimensions for n={self.n}: b{b.shape}, A{A.shape}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "const", float(self.const))

    def value(self, x) -> float:
        """Objective const + b.x + x^T A x at a binary assignment."""
        x = np.asarray(x, dtype=float)
        return float(self.const + self.b @ x + x @ self.A @ x)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "b": self.b.tolist(), "A": self.A.tolist(), "const": self.const}
        )

    @classmethod
    def from_json(cls, text: str) -> "QuboProblem":
        d = json.loads(text)
        return cls(n=int(d["n"]), b=d["b"], A=d["A"], const=float(d.get("const", 0.0)))


@dataclass(frozen=True)
class IsingModel:
    n: int
    c: np.ndarray
    Q: np.ndarray  # strictly upper triangular; pair (i,k) weighs 2*Q[i,k]
    offset: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        if c.shape != (self.n,) or Q.shape != (self.n, self.n):
            raise ValueError(f"inconsistent dimensions for n={self.n}: c{c.shape}, Q{Q.shape}")
        if np.any(Q != np.triu(Q, k=1)):
            raise ValueError("Q must be strictly upper triangular")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "offset", float(self.offset))

    def value(self, z) -> float:
        """Energy offset + c.z + sum_{i<k} 2*Q[i,k]*z_i*z_k at a spin assignment."""
        z = np.asarray(z, dtype=float)
        return float(self.offset + self.c @ z + 2.0 * (z @ self.Q @ z))

    @cached_property
    def ranking(self) -> "ValueRanking":
        """Ranking of the energies without the offset (the QAOA cost diagonal).

        Computed on first use and kept for the model's lifetime.
        """
        return _ranking(*np.unique(_spin_table(self.n, self.c, self.Q), return_inverse=True))


class ValueRanking(NamedTuple):
    values: np.ndarray  # distinct table values, strictly increasing
    inverse: np.ndarray  # rank of each basis state: table == values[inverse]
    ground: np.ndarray  # increasing basis indices of the minimum value


def _ranking(values: np.ndarray, inverse: np.ndarray) -> ValueRanking:
    """Read-only ranking with the narrowest rank type (16 bits up to n=16): callers keep many alive."""
    inverse = inverse.astype(np.min_scalar_type(values.size - 1), copy=False)
    ranking = ValueRanking(values, inverse, np.flatnonzero(inverse == 0))
    for a in ranking:
        a.flags.writeable = False
    return ranking


@dataclass(frozen=True, init=False)
class DiagonalHamiltonian:
    """2^n objective values (index = basis state), kept only as their ranking.

    The constructor ranks the table once; `table` rebuilds it from the ranking
    on demand, so hot paths read the ranking instead.
    """

    n: int
    ranking: ValueRanking

    def __init__(self, n: int, table):
        check_qubits(n)
        table = np.asarray(table, dtype=float)
        if table.shape != (2**n,):
            raise ValueError(f"expected {2**n} diagonal entries, got {table.shape}")
        if not np.isfinite(table).all():
            raise ValueError("diagonal entries must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ranking", _ranking(*np.unique(table, return_inverse=True)))

    @classmethod
    def _from_ranking(cls, n: int, ranking: ValueRanking) -> "DiagonalHamiltonian":
        ham = object.__new__(cls)
        object.__setattr__(ham, "n", n)
        object.__setattr__(ham, "ranking", ranking)
        return ham

    @property
    def table(self) -> np.ndarray:
        """The 2^n values as given to the constructor, as a new read-only array."""
        table = self.ranking.values[self.ranking.inverse]
        table.flags.writeable = False
        return table


def _spin_table(n: int, c: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """c.z + sum_{i<k} 2*Q[i,k]*z_i*z_k for all 2^n spin assignments."""
    idx = np.arange(2**n)
    cols = [(1 - 2 * ((idx >> (n - 1 - i)) & 1)).astype(np.int8) for i in range(n)]
    out = np.zeros(2**n)
    for i in range(n):
        if c[i] != 0.0:
            out += c[i] * cols[i]
    for i, k in zip(*np.nonzero(Q)):
        out += (2.0 * Q[i, k]) * (cols[i] * cols[k])
    return out


def qubo_to_ising(q: QuboProblem) -> IsingModel:
    """Exact spin re-encoding of a QUBO, offset included."""
    n = q.n
    A, b = q.A, q.b
    pair = A + A.T  # combined coefficient of x_i x_j for i != j
    c = -b / 2.0 - np.diag(A) / 2.0 - (pair.sum(axis=1) - 2.0 * np.diag(A)) / 4.0
    Q = np.triu(pair, k=1) / 8.0
    off_diag_sum = pair.sum() / 2.0 - np.trace(A)  # sum over i != j of A_ij
    offset = q.const + b.sum() / 2.0 + np.trace(A) / 2.0 + off_diag_sum / 4.0
    return IsingModel(n=n, c=c, Q=Q, offset=float(offset))


def ising_to_hamiltonian(m: IsingModel) -> DiagonalHamiltonian:
    """The diagonal offset + cost values (n within the simulator's limit), ranked from the model's ranking.

    Only the distinct values are shifted and ranked; the basis states' ranks
    compose with that ranking, so the result equals ranking the shifted 2^n
    table without sorting it.
    """
    check_qubits(m.n)
    values, inverse, ground = m.ranking
    shifted, merged = np.unique(m.offset + values, return_inverse=True)
    if shifted.size == values.size:  # no two values merged: the ranks carry over unchanged
        shifted.flags.writeable = False
        ranking = ValueRanking(shifted, inverse, ground)
    else:
        ranking = _ranking(shifted, merged[inverse])
    return DiagonalHamiltonian._from_ranking(m.n, ranking)


def qubo_to_hamiltonian(q: QuboProblem) -> DiagonalHamiltonian:
    return ising_to_hamiltonian(qubo_to_ising(q))


def evaluate_bitstring(ham: DiagonalHamiltonian, j: int) -> float:
    """Objective value of basis state j."""
    if not 0 <= j < 2**ham.n:
        raise IndexError(f"basis index {j} out of range for n={ham.n}")
    return float(ham.ranking.values[ham.ranking.inverse[j]])
