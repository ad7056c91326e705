"""Parameterized circuit families: hardware-efficient Y-rotation/CZ layers and
the alternating cost/mixer construction driven by an Ising model.

Parameter layouts: the layered family takes n*(1+p) angles, ordered layer by
layer; the alternating family takes 2p angles ordered (beta_1..beta_p,
gamma_1..gamma_p).

Each family compiles to whole-register gates: VQE to RY on every qubit, then
[diag, RY on every qubit] x p; QAOA to H on every qubit, then [cost diag, RX
on every qubit] x p.  A
CZ block is the +-1 vector (-1)^(number of its pairs with both bits set),
cached per (n, entanglement); multiplying by -1 is exact, so the state equals
the one the CZ gates give, bit for bit, and a VQE state stays real (float64)
throughout.  The cost step exp(-i gamma * cost) is an angled `diag` over the
Ising model's cached ranking of its cost diagonal, so it takes one exp per
distinct cost value; the Ising offset is a global phase and is never applied.
The mixer step is RX(2*beta) on every qubit (= exp(-i beta X)).
`cost_layer_gates` keeps the gate-level compilation of the cost step,
RZ(2*gamma*c_i) plus a CNOT/RZ(2*gamma*2Q_ik)/CNOT block per coupling, as a
reference for tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import IsingModel
from .statevector import Circuit, Gate, StateVector, cnot, diag, layer, run_circuit, rz

FAMILIES = ("vqe", "qaoa")
ENTANGLEMENTS = ("all-to-all", "ring")


@dataclass(frozen=True)
class AnsatzSpec:
    family: str
    n: int
    p: int
    entanglement: str = "all-to-all"  # vqe only
    ising: IsingModel | None = None  # qaoa only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "vqe":
            if self.p < 0:
                raise ValueError("vqe depth must be >= 0")
            if self.entanglement not in ENTANGLEMENTS:
                raise ValueError(f"unknown entanglement {self.entanglement!r}")
            if self.entanglement == "ring" and self.n < 3:
                raise ValueError("ring entanglement needs n >= 3")
        else:
            if self.p < 1:
                raise ValueError("qaoa depth must be >= 1")
            if self.ising is None:
                raise ValueError("qaoa requires an Ising model")
            if self.ising.n != self.n:
                raise ValueError(f"ising has n={self.ising.n}, spec has n={self.n}")

    @property
    def parameter_count(self) -> int:
        return self.n * (1 + self.p) if self.family == "vqe" else 2 * self.p


def _check_params(spec: AnsatzSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.parameter_count,):
        raise ValueError(
            f"{spec.family} n={spec.n} p={spec.p} takes {spec.parameter_count} "
            f"parameters, got shape {theta.shape}"
        )
    return theta


def entangler_pairs(n: int, entanglement: str) -> list[tuple[int, int]]:
    """CZ pairs for one entangling block."""
    if entanglement == "all-to-all":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, (i + 1) % n) for i in range(n)]


@cache  # one entry per (n, entanglement): at most 2^n bytes each
def entangler_signs(n: int, entanglement: str) -> np.ndarray:
    """Read-only +-1 diagonal of one CZ entangler block, as int8."""
    idx = np.arange(2**n, dtype=np.uint32)
    parity = np.zeros(2**n, dtype=np.uint32)
    for a, b in entangler_pairs(n, entanglement):
        parity ^= (idx >> (n - 1 - a)) & (idx >> (n - 1 - b))
    signs = (1 - 2 * (parity & 1)).astype(np.int8)
    signs.flags.writeable = False
    return signs


def build_vqe_circuit(spec: AnsatzSpec, theta) -> Circuit:
    """Y-rotation layer, then p repetitions of [CZ entangler, Y-rotation layer]."""
    if spec.family != "vqe":
        raise ValueError(f"expected a vqe spec, got {spec.family}")
    theta = _check_params(spec, theta).tolist()
    n = spec.n
    gates: list[Gate] = [layer("ry", theta[:n])]
    for k in range(1, spec.p + 1):
        gates.append(diag(entangler_signs(n, spec.entanglement)))
        gates.append(layer("ry", theta[k * n : (k + 1) * n]))
    return Circuit(n, gates)


def cost_layer_gates(ising: IsingModel, gamma: float) -> list[Gate]:
    """Gate-level exp(-i gamma * cost), the reference for the cost `diag`; zero terms emit nothing."""
    gates: list[Gate] = []
    for i in range(ising.n):
        if ising.c[i] != 0.0:
            gates.append(rz(i, 2.0 * gamma * ising.c[i]))
    for i, k in zip(*np.nonzero(ising.Q)):
        w = 2.0 * ising.Q[i, k]  # combined coefficient of z_i z_k
        gates.append(cnot(i, k))
        gates.append(rz(k, 2.0 * gamma * w))
        gates.append(cnot(i, k))
    return gates


def mixer_layer(n: int, beta: float) -> Gate:
    """RX(2*beta) on every qubit, as one gate."""
    return layer("rx", [2.0 * beta] * n)


def build_qaoa_circuit(spec: AnsatzSpec, theta) -> Circuit:
    """Hadamard layer, then p alternations of cost and mixer layers."""
    if spec.family != "qaoa":
        raise ValueError(f"expected a qaoa spec, got {spec.family}")
    theta = _check_params(spec, theta)
    betas, gammas = theta[: spec.p], theta[spec.p :]
    cost = spec.ising.ranking
    gates: list[Gate] = [layer("h", [None] * spec.n)]
    for beta, gamma in zip(betas, gammas):
        gates.append(diag(cost.values, gamma, cost.inverse))
        gates.append(mixer_layer(spec.n, beta))
    return Circuit(spec.n, gates)


def build_circuit(spec: AnsatzSpec, theta) -> Circuit:
    return build_vqe_circuit(spec, theta) if spec.family == "vqe" else build_qaoa_circuit(spec, theta)


def trial_state(spec: AnsatzSpec, theta) -> StateVector:
    """Run the built circuit on |0...0>."""
    return run_circuit(build_circuit(spec, theta))
