"""Gate-level references that the package itself never runs.

Tests build circuits as `BoundCircuit(n, (...))` of `Step`s, which nothing
checks, from these plain constructors:

- `h(q)`, `ry(q, t)`, `rx(q, t)`: one rotation on qubit q;
- `cnot(c, t)`, and `diag(d)`, which multiplies amplitude j by d[j];
- `layer(name, angles)`: an h, ry or rx rotation on every qubit, qubit q by
  angles[q] (None for h).

Every problem gives a diagonal Hamiltonian, so the package applies a CZ
entangler block as one +-1 `diag` and the QAOA cost step exp(-i gamma * cost)
as one complex `diag`.  These helpers build the gate-by-gate forms from the
gates the simulator keeps (`diag`, `cnot` and single-qubit `rx`), so tests can
check the whole-register gates against them:

- `cz(n, a, b)`: CZ on qubits a and b as an exact +-1 int8 `diag`;
- `rz(n, q, t)`: RZ(t) = exp(-i t Z / 2) on qubit q as a phase `diag`;
- `cost_layer_gates`: the hardware compilation of the cost step,
  RZ(2*gamma*c_i) per field and a CNOT/RZ(2*gamma*2Q_ik)/CNOT block per
  coupling;
- `spin_cost`: the cost (offset excluded) of every basis state, summed
  spin by spin;
- `rotate_per_qubit` and `product_state`: a rotation layer applied one
  qubit at a time in place, and its product state from |0...0> built as an
  iterated outer product, the arithmetic the layer kernel must equal.
"""
import numpy as np

from cvarqopt.hamiltonian import IsingModel
from cvarqopt.statevector import Step, _entries


def h(q: int) -> Step:
    return Step("h", (q,), [_entries("h", None)])


def ry(q: int, t: float) -> Step:
    return Step("ry", (q,), [_entries("ry", float(t))])


def rx(q: int, t: float) -> Step:
    return Step("rx", (q,), [_entries("rx", float(t))])


def cnot(control: int, target: int) -> Step:
    return Step("cnot", (control, target))


def diag(d) -> Step:
    return Step("diag", (), None, np.asarray(d))


def layer(name: str, angles) -> Step:
    return Step(name, (), [_entries(name, angle) for angle in angles])


def bit(n: int, q: int) -> np.ndarray:
    """Value of qubit q in every basis index (qubit 0 is the most significant bit)."""
    return (np.arange(2**n) >> (n - 1 - q)) & 1


def cz(n: int, a: int, b: int) -> Step:
    return diag((1 - 2 * (bit(n, a) & bit(n, b))).astype(np.int8))


def rz(n: int, q: int, t: float) -> Step:
    return diag(np.where(bit(n, q) == 1, np.exp(0.5j * t), np.exp(-0.5j * t)))


def cost_layer_gates(ising: IsingModel, gamma: float) -> list[Step]:
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
