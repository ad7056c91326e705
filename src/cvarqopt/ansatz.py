"""Parameterized circuit families: hardware-efficient Y-rotation/CZ layers and
the alternating cost/mixer construction driven by an Ising model.

Parameter layouts: the layered family takes n*(1+p) angles, ordered layer by
layer; the alternating family takes 2p angles ordered (beta_1..beta_p,
gamma_1..gamma_p).

Each family compiles to whole-register gates: VQE to RY on every qubit, then
[diag, RY on every qubit] x p; QAOA to H on every qubit, then p x [cost diag,
RX(2*beta) = exp(-i beta X) on every qubit].  A CZ block is the +-1 vector
(-1)^(number of its pairs with both bits set), cached per (n, entanglement);
multiplying by -1 is exact, so the state equals the one the CZ gates give,
bit for bit, and a VQE state stays real (float64).  The cost step
exp(-i gamma * cost) is a complex diag gathered from one exp per distinct
value of the Ising model's cached cost ranking (`cost_phases`); the Ising
offset is a global phase and is never applied.  Every problem here has a
diagonal cost, so the RZ/CNOT compilation a hardware backend would need is
never built.  A mirrored ranking (table[j] == table[~j], as in every
field-free Ising model: maxcut, number partitioning) gathers only the 2^(n-1)
phases of the states with qubit 0 = 0.  A run from |0...0> then evolves that
half of the register and mirrors it into the 2^n state, with the bytes of the
whole-register run (see `statevector`).  VQE and every other cost run on the
whole register.

Per evaluation `build_circuit` binds theta into Python-scalar 2x2 entries
for each rotation layer (one for the shared RX angle) and the gathered cost
phases, and returns a `BoundCircuit` of `Step`s; `_qaoa_layer` binds one
alternating layer, for `build_circuit` and `flatness` alike.  What theta does
not change is cached outside the spec: the entangler diag per (n,
entanglement), the H layer per n (a run from |0...0> starts from it as one
cached state), and the cost ranking on the Ising model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import IsingModel, ValueRanking
from .statevector import BoundCircuit, StateVector, Step, _entries, _whole, check_qubits, run_circuit

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
        object.__setattr__(self, "n", check_qubits(self.n))
        object.__setattr__(self, "p", _whole("p", self.p))
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
def _entangler(n: int, entanglement: str) -> Step:
    return Step("diag", diagonal=entangler_signs(n, entanglement))


def cost_phases(cost: ValueRanking, gamma: float) -> np.ndarray:
    """exp(-i gamma * cost) per basis state, read-only, gathered from one exp per distinct value.
    Of a mirrored ranking only the first half, the states with qubit 0 = 0: the state at ~j has j's phase."""
    step = np.multiply(cost.values, -1j * float(gamma))
    ranks = cost.inverse[: cost.inverse.size // 2] if cost.mirrored else cost.inverse
    phases = np.exp(step, out=step).take(ranks)  # in place: a ranking can hold 2^n values
    phases.setflags(write=False)  # a fresh array: read-only, so a diag that holds it cannot change
    return phases


@cache  # one entry per n
def _hadamards(n: int) -> Step:
    return Step("h", [_entries("h", None)] * n)


def _qaoa_layer(ranking: ValueRanking, beta: float, gamma: float, n: int) -> tuple[Step, Step]:
    """One alternating layer: the cost diag exp(-i gamma * cost), then RX(2*beta) on every qubit."""
    return Step("diag", None, cost_phases(ranking, gamma)), Step("rx", [_entries("rx", 2.0 * beta)] * n)


def build_circuit(spec: AnsatzSpec, theta) -> BoundCircuit:
    """vqe: RY layer, then p x [CZ entangler, RY layer].  qaoa: H layer, then p x [cost diag, RX layer]."""
    angles = _check_params(spec, theta)
    n, p = spec.n, spec.p
    if spec.family == "vqe":
        signs = _entangler(n, spec.entanglement)
        gates = [Step("ry", [_entries("ry", angle) for angle in angles[:n]])]
        for k in range(1, p + 1):
            gates += [signs, Step("ry", [_entries("ry", angle) for angle in angles[k * n : (k + 1) * n]])]
    else:
        ranking = spec.ising.ranking
        gates = [_hadamards(n)]
        for k in range(p):
            gates += _qaoa_layer(ranking, angles[k], angles[p + k], n)
    return BoundCircuit(n, tuple(gates))


def trial_state(spec: AnsatzSpec, theta) -> StateVector:
    """Run the built circuit on |0...0>."""
    return run_circuit(build_circuit(spec, theta))
