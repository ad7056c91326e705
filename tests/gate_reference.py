"""Gate-level references that the package itself never runs.

Every problem gives a diagonal Hamiltonian, so the package applies a CZ
entangler block as one +-1 `diag` and the QAOA cost step exp(-i gamma * cost)
as one angled `diag`.  These helpers build the gate-by-gate forms from the
gates the simulator keeps (`diag`, `cnot` and single-qubit `rx`), so tests can
check the whole-register gates against them:

- `cz(n, a, b)`: CZ on qubits a and b as an exact +-1 int8 `diag`;
- `rz(n, q, t)`: RZ(t) = exp(-i t Z / 2) on qubit q as a phase `diag`;
- `rx(q, t)`: RX(t) on one qubit;
- `cost_layer_gates`: the hardware compilation of the cost step,
  RZ(2*gamma*c_i) per field and a CNOT/RZ(2*gamma*2Q_ik)/CNOT block per
  coupling;
- `spin_cost`: the cost (offset excluded) of every basis state, summed
  spin by spin;
- `rotate_per_qubit` and `product_states`: a rotation layer applied one
  qubit at a time in place, and its product state from |0...0> built as an
  iterated outer product, the arithmetic the layer kernel must equal.
"""
import numpy as np

from cvarqopt.hamiltonian import IsingModel
from cvarqopt.statevector import Gate, _stacked_entries, cnot, diag


def bit(n: int, q: int) -> np.ndarray:
    """Value of qubit q in every basis index (qubit 0 is the most significant bit)."""
    return (np.arange(2**n) >> (n - 1 - q)) & 1


def cz(n: int, a: int, b: int) -> Gate:
    return diag((1 - 2 * (bit(n, a) & bit(n, b))).astype(np.int8))


def rz(n: int, q: int, t: float) -> Gate:
    return diag(np.where(bit(n, q) == 1, np.exp(0.5j * t), np.exp(-0.5j * t)))


def rx(q: int, t: float) -> Gate:
    return Gate("rx", (q,), (float(t),))


def cost_layer_gates(ising: IsingModel, gamma: float) -> list[Gate]:
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
    """Apply the 2x2 matrix m to qubit q, in place.

    `amps` is one state (2^n,) with m's entries Python scalars, or a stack of
    states (B, 2^n) with each entry a (B, 1, 1) array of per-state values."""
    # axis 0 is the state, axis 2 the qubit, axes 1 and 3 the more and less significant bits
    psi = amps.reshape(-1, 2**q, 2, amps.shape[-1] >> (q + 1))
    v0, v1 = psi[:, :, 0], psi[:, :, 1]
    (a, b), (c, d) = m
    r0 = v0.copy()
    v0[...] = a * r0 + b * v1
    v1[...] = c * r0 + d * v1


def rotate_per_qubit(amps: np.ndarray, name: str, angles) -> None:
    """Apply `layer(name, angles[r])` to row r of the (B, 2^n) stack in place, one qubit at a time."""
    entries = _stacked_entries(name, angles).transpose(1, 2, 3, 0)[..., None, None]  # (n, 2, 2, B, 1, 1)
    for q, m in enumerate(entries):
        apply_matrix(amps, q, m)


def product_states(name: str, angles) -> np.ndarray:
    """(B, 2^n) states the layers make of |0...0>: qubit k's column 0 times the amplitudes so far."""
    columns = _stacked_entries(name, angles)[..., None, :, 0]  # (B, n, 1, 2)
    amps = columns[:, 0, 0].copy()
    for k in range(1, columns.shape[1]):
        amps = np.multiply(columns[:, k], amps[:, :, None]).reshape(len(amps), -1)
    return amps
