"""Parameterized circuit families: hardware-efficient Y-rotation/CZ layers and
the alternating cost/mixer construction driven by an Ising model.

Parameter layouts: the layered family takes n*(1+p) angles, ordered layer by
layer; the alternating family takes 2p angles ordered (beta_1..beta_p,
gamma_1..gamma_p).

`build_circuit` compiles either family to whole-register gates: VQE to RY on
every qubit, then [diag, RY on every qubit] x p; QAOA to H on every qubit,
then p x `qaoa_layer` = [cost diag, RX on every qubit].  A CZ block is the
+-1 vector (-1)^(number of its pairs with both bits set),
cached per (n, entanglement); multiplying by -1 is exact, so the state equals
the one the CZ gates give, bit for bit, and a VQE state stays real (float64)
throughout.  The cost step exp(-i gamma * cost) is an angled `diag` over the
Ising model's cached ranking of its cost diagonal, so it takes one exp per
distinct cost value; the Ising offset is a global phase and is never applied.
The mixer step is RX(2*beta) on every qubit (= exp(-i beta X)).  `flatness`
applies the same `qaoa_layer` gates layer by layer.  Every problem here has a
diagonal cost, so the RZ/CNOT compilation a hardware backend would need is
never built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import IsingModel, ValueRanking
from .statevector import Circuit, Gate, StateVector, diag, layer, layer_states, rotate_states, run_circuit

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


def qaoa_layer(cost: ValueRanking, n: int, beta: float, gamma: float) -> list[Gate]:
    """One alternation: the cost step exp(-i gamma * cost) as an angled `diag`, then RX(2*beta) on every qubit."""
    return [diag(cost.values, gamma, cost.inverse), layer("rx", [2.0 * beta] * n)]


def build_circuit(spec: AnsatzSpec, theta) -> Circuit:
    """vqe: RY layer, then p x [CZ entangler, RY layer].  qaoa: H layer, then p x `qaoa_layer`."""
    theta = _check_params(spec, theta)
    n = spec.n
    if spec.family == "vqe":
        angles = theta.tolist()
        gates: list[Gate] = [layer("ry", angles[:n])]
        for k in range(1, spec.p + 1):
            gates.append(diag(entangler_signs(n, spec.entanglement)))
            gates.append(layer("ry", angles[k * n : (k + 1) * n]))
    else:
        gates = [layer("h", [None] * n)]
        for beta, gamma in zip(theta[: spec.p], theta[spec.p :]):
            gates += qaoa_layer(spec.ising.ranking, n, beta, gamma)
    return Circuit(n, gates)


def trial_state(spec: AnsatzSpec, theta) -> StateVector:
    """Run the built circuit on |0...0>."""
    return run_circuit(build_circuit(spec, theta))


def evolve_states(specs: list[AnsatzSpec], thetas) -> np.ndarray:
    """(B, 2^n) amplitudes whose row r equals `trial_state(specs[r], thetas[r]).amplitudes`
    (before its norm check), bit for bit.

    The specs share family, n, p and entanglement; qaoa specs may differ in
    their Ising models.  Each row meets the gates `build_circuit` emits, with
    the same arithmetic on each amplitude; rows are only stacked so that one
    numpy call applies a gate to all of them.
    """
    spec = specs[0]
    n, p = spec.n, spec.p
    angles = [_check_params(s, t).tolist() for s, t in zip(specs, thetas)]
    if spec.family == "vqe":
        amps = layer_states("ry", [a[:n] for a in angles])
        signs = entangler_signs(n, spec.entanglement)
        for k in range(1, p + 1):
            amps *= signs
            amps = rotate_states(amps, "ry", [a[k * n : (k + 1) * n] for a in angles])
        return amps
    amps = np.tile(layer_states("h", [[None] * n]), (len(specs), 1)).astype(complex)
    factors = np.empty_like(amps)
    for k in range(p):
        for row, s, a in zip(factors, specs, angles):
            cost = s.ising.ranking
            phases = np.multiply(cost.values, -1j * a[p + k])  # as the angled diag: one exp per distinct value
            np.take(np.exp(phases, out=phases), cost.inverse, out=row)
        amps *= factors
        amps = rotate_states(amps, "rx", [[2.0 * a[k]] * n for a in angles])
    return amps
