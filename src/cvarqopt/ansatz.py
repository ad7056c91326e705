"""Parameterized circuit families: hardware-efficient Y-rotation/CZ layers and
the alternating cost/mixer construction driven by an Ising model.

Parameter layouts: the layered family takes n*(1+p) angles, ordered layer by
layer; the alternating family takes 2p angles ordered (beta_1..beta_p,
gamma_1..gamma_p).

`build_circuit` compiles either family to whole-register gates: VQE to RY on
every qubit, then [diag, RY on every qubit] x p; QAOA to H on every qubit,
then p x `qaoa_layer` = [cost diag, RX(2*beta) = exp(-i beta X) on every
qubit].  A CZ block is the +-1 vector (-1)^(number of its pairs with both
bits set), cached per (n, entanglement); multiplying by -1 is exact, so the
state equals the one the CZ gates give, bit for bit, and a VQE state stays
real (float64).  The cost step exp(-i gamma * cost) is a complex `diag`
gathered from one exp per distinct value of the Ising model's cached cost
ranking; the Ising offset is a global phase and is never applied.  `flatness`
applies the same `qaoa_layer` gates, and `evolve_states` builds the gates with
one row per state of a stack.  Every problem here has a diagonal cost, so
the RZ/CNOT compilation a hardware backend would need is never built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import IsingModel, ValueRanking
from .statevector import Circuit, Gate, StateVector, _whole, check_qubits, diag, layer, run_circuit, run_stack

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
        object.__setattr__(self, "n", _whole("n", self.n))
        object.__setattr__(self, "p", _whole("p", self.p))
        check_qubits(self.n)
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


def _check_params(spec: AnsatzSpec, theta) -> list[float]:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.parameter_count,):
        raise ValueError(f"{spec.family} n={spec.n} p={spec.p} takes {spec.parameter_count} parameters, "
                         f"got shape {theta.shape}")
    angles = theta.tolist()
    if not math.isfinite(sum(angles)) and not np.isfinite(theta).all():  # finite angles overflow it only if huge
        bad = int(np.argmin(np.isfinite(theta)))
        raise ValueError(f"{spec.family} n={spec.n} p={spec.p}: parameter {bad} is {angles[bad]}, not a finite angle")
    return angles


def entangler_pairs(n: int, entanglement: str) -> list[tuple[int, int]]:
    """CZ pairs for one entangling block."""
    if entanglement == "all-to-all":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, (i + 1) % n) for i in range(n)]


def entangler_signs(n: int, entanglement: str) -> np.ndarray:
    """Read-only +-1 diagonal of one CZ entangler block, as int8."""
    idx = np.arange(2**n, dtype=np.uint32)
    parity = np.zeros(2**n, dtype=np.uint32)
    for a, b in entangler_pairs(n, entanglement):
        parity ^= (idx >> (n - 1 - a)) & (idx >> (n - 1 - b))
    signs = (1 - 2 * (parity & 1)).astype(np.int8)
    signs.flags.writeable = False
    return signs


@cache  # one entry per (n, entanglement): at most 2^n bytes each
def _entangler(n: int, entanglement: str) -> Gate:
    return diag(entangler_signs(n, entanglement))


@cache
def _hadamards(n: int) -> Gate:
    return layer("h", [None] * n)


def qaoa_layer(costs: list[ValueRanking], n: int, betas: list[float], gammas: list[float]) -> list[Gate]:
    """One alternation for each state r of a stack (one row applies to every state): the cost step
    exp(-i gammas[r] * costs[r]) as a complex `diag`, its phases gathered from one exp per distinct
    value, then RX(2*betas[r]) on every qubit."""
    rows = []
    for cost, gamma in zip(costs, gammas):
        step = np.multiply(cost.values, -1j * float(gamma))
        rows.append(np.exp(step, out=step).take(cost.inverse))  # in place: a ranking can hold 2^n values
    phases = rows[0] if len(rows) == 1 else np.stack(rows)
    phases.flags.writeable = False  # a fresh array: the gate need not copy it
    return [diag(phases), layer("rx", [[2.0 * beta] * n for beta in betas])]


def _build(specs: list[AnsatzSpec], thetas) -> Circuit:
    """The circuit whose row r is `build_circuit(specs[r], thetas[r])`; the specs share family, n, p and
    entanglement, and qaoa specs may differ in their Ising models."""
    spec = specs[0]
    n, p = spec.n, spec.p
    angles = [_check_params(s, t) for s, t in zip(specs, thetas)]
    if spec.family == "vqe":
        signs = _entangler(n, spec.entanglement)
        gates: list[Gate] = [layer("ry", [a[:n] for a in angles])]
        for k in range(1, p + 1):
            gates += [signs, layer("ry", [a[k * n : (k + 1) * n] for a in angles])]
    else:
        gates = [_hadamards(n)]
        costs = [s.ising.ranking for s in specs]
        for k in range(p):
            gates += qaoa_layer(costs, n, [a[k] for a in angles], [a[p + k] for a in angles])
    return Circuit(n, gates)


def build_circuit(spec: AnsatzSpec, theta) -> Circuit:
    """vqe: RY layer, then p x [CZ entangler, RY layer].  qaoa: H layer, then p x `qaoa_layer`."""
    return _build([spec], [theta])


def trial_state(spec: AnsatzSpec, theta) -> StateVector:
    """Run the built circuit on |0...0>."""
    return run_circuit(build_circuit(spec, theta))


def evolve_states(specs: list[AnsatzSpec], thetas) -> np.ndarray:
    """(B, 2^n) amplitudes whose row r equals `trial_state(specs[r], thetas[r]).amplitudes`
    (before its norm check), bit for bit: the built circuit with one row per spec, run as one stack."""
    return run_stack(_build(specs, thetas))
