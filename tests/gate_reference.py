"""Gate-level references that the package itself never runs.

The package runs two whole-register `Step`s, a `diag` and a rotation layer.
The tests check them against the gate-by-gate arithmetic here, which runs
one-qubit gates and CNOT as well, in `run_reference`:

- `h(q)`, `ry(q, t)`, `rx(q, t)`: one rotation `Gate` on qubit q;
- `cnot(c, t)`: a `Gate` that flips qubit t where qubit c is set;
- `diag(d)`, which multiplies amplitude j by d[j], and `layer(name, angles)`,
  an h, ry or rx rotation on every qubit, qubit q by angles[q] (None for h):
  the package's own `Step`s, which `run_circuit` runs too.

Every problem gives a diagonal Hamiltonian, so the package applies a CZ
entangler block as one +-1 `diag` and the QAOA cost step exp(-i gamma * cost)
as one complex `diag`.  These helpers build the gate-by-gate forms, so tests
can check the whole-register gates against them:

- `cz(n, a, b)`: CZ on qubits a and b as an exact +-1 int8 `diag`;
- `rz(n, q, t)`: RZ(t) = exp(-i t Z / 2) on qubit q as a phase `diag`;
- `cost_layer_gates`: the hardware compilation of the cost step,
  RZ(2*gamma*c_i) per field and a CNOT/RZ(2*gamma*2Q_ik)/CNOT block per
  coupling;
- `spin_cost`: the cost (offset excluded) of every basis state, summed
  spin by spin;
- `full_diagonal`: a diag's 2^n entries, a mirrored cost's half diag
  (the states with qubit 0 = 0) followed by its mirror image;
- `apply_matrix`, `rotate_per_qubit` and `product_state`: a 2x2 matrix on
  one qubit in place, a rotation layer applied that way one qubit at a time,
  and a layer's product state from |0...0> built as an iterated outer
  product, the arithmetic the layer kernel must equal.
"""
from typing import NamedTuple

import numpy as np

from cvarqopt.hamiltonian import IsingModel
from cvarqopt.statevector import StateVector, Step, _entries


class Gate(NamedTuple):
    """A gate on named qubits, which only `run_reference` applies: h, ry or rx on (q,), or cnot on (c, t)."""

    name: str
    qubits: tuple
    matrix: list | None = None  # a rotation's 2x2 entries, as `_entries` gives them


def h(q: int) -> Gate:
    return Gate("h", (q,), _entries("h", None))


def ry(q: int, t: float) -> Gate:
    return Gate("ry", (q,), _entries("ry", float(t)))


def rx(q: int, t: float) -> Gate:
    return Gate("rx", (q,), _entries("rx", float(t)))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def diag(d) -> Step:
    return Step("diag", None, np.asarray(d))


def layer(name: str, angles) -> Step:
    return Step(name, [_entries(name, angle) for angle in angles])


def full_diagonal(n: int, d) -> np.ndarray:
    """A diag's 2^n entries: a mirrored cost's half (the states with qubit 0 = 0) followed by its
    mirror image, since the entry at ~j is j's, and any other diagonal as it is."""
    d = np.asarray(d)
    return d if d.size == 2**n else np.concatenate((d, d[::-1]))


def zero_state(n: int) -> StateVector:
    """|0...0> on n qubits, as a complex state."""
    return StateVector(n, np.eye(1, 2**n, dtype=complex)[0])


def bit(n: int, q: int) -> np.ndarray:
    """Value of qubit q in every basis index (qubit 0 is the most significant bit)."""
    return (np.arange(2**n) >> (n - 1 - q)) & 1


def cz(n: int, a: int, b: int) -> Step:
    return diag((1 - 2 * (bit(n, a) & bit(n, b))).astype(np.int8))


def rz(n: int, q: int, t: float) -> Step:
    return diag(np.where(bit(n, q) == 1, np.exp(0.5j * t), np.exp(-0.5j * t)))


def cost_layer_gates(ising: IsingModel, gamma: float) -> list:
    """Gate-level exp(-i gamma * cost); zero terms emit nothing."""
    n = ising.n
    gates = [rz(n, i, 2.0 * gamma * ising.c[i]) for i in range(n) if ising.c[i] != 0.0]
    for i, k in zip(*np.nonzero(ising.Q)):
        w = 2.0 * ising.Q[i, k]  # combined coefficient of z_i z_k
        gates += [cnot(i, k), rz(n, k, 2.0 * gamma * w), cnot(i, k)]
    return gates


def spin_cost(ising: IsingModel) -> np.ndarray:
    """c.z + sum_{i<k} 2*Q[i,k]*z_i*z_k for every basis index (bit 0 is z = +1)."""
    z = 1.0 - 2.0 * np.stack([bit(ising.n, q) for q in range(ising.n)], axis=1)
    return z @ ising.c + 2.0 * ((z @ ising.Q) * z).sum(axis=1)


def apply_matrix(amps: np.ndarray, q: int, m) -> None:
    """Apply the 2x2 matrix m, entries Python scalars, to qubit q of the (2^n,) state, in place."""
    # axis 1 is the qubit, axes 0 and 2 the more and less significant bits
    psi = amps.reshape(2**q, 2, -1)
    v0, v1 = psi[:, 0], psi[:, 1]
    (a, b), (c, d) = m
    r0 = v0.copy()
    v0[...] = a * r0 + b * v1
    v1[...] = c * r0 + d * v1


def rotate_per_qubit(amps: np.ndarray, name: str, angles) -> None:
    """Apply `layer(name, angles)` to the (2^n,) state in place, one qubit at a time."""
    for q, angle in enumerate(angles):
        apply_matrix(amps, q, _entries(name, angle))


def product_state(name: str, angles) -> np.ndarray:
    """The (2^n,) state the layer makes of |0...0>: qubit k's column 0 times the amplitudes so far."""
    columns = np.array([_entries(name, angle) for angle in angles])[:, :, 0]  # (n, 2)
    amps = columns[0].copy()
    for column in columns[1:]:
        amps = np.multiply(column, amps[:, None]).reshape(-1)
    return amps


def run_reference(n: int, gates, initial: StateVector | None = None) -> np.ndarray:
    """The (2^n,) amplitudes the gates give, in order, from a copy of `initial` or else from complex
    |0...0>: a one-qubit `Gate` and a rotation layer's qubits (qubit 0 first) through `apply_matrix`,
    a cnot as a flip of its target where the control is set, and a diag as a product (a mirrored
    cost's half diag through `full_diagonal`).  The state turns complex up front if any gate is
    complex."""
    amps = zero_state(n).amplitudes.copy() if initial is None else initial.amplitudes.copy()
    if any(g.name == "rx" or g.name == "diag" and g.diagonal.dtype.kind == "c" for g in gates):
        amps = amps.astype(complex)
    for g in gates:
        if g.name == "diag":
            amps *= full_diagonal(n, g.diagonal)
        elif g.name == "cnot":
            c, t = g.qubits
            on = np.flatnonzero(bit(n, c))
            amps[on] = amps[on ^ (1 << (n - 1 - t))]  # a permutation of the control-set half
        elif isinstance(g, Gate):
            apply_matrix(amps, g.qubits[0], g.matrix)
        else:
            for q, m in enumerate(g.matrices):
                apply_matrix(amps, q, m)
    return amps
