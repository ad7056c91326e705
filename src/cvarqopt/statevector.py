"""Dense state-vector simulation of the small gate set used by the ansatz builders.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y, Z}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20

GATE_NAMES = ("ry", "rx", "rz", "h", "cz", "cnot")
_TWO_QUBIT = ("cz", "cnot")


class InvalidGateError(ValueError):
    """Raised for malformed gates or gate indices out of range."""


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise InvalidGateError(f"unknown gate {self.name!r}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index in {self.qubits}")
        want = 2 if self.name in _TWO_QUBIT else 1
        if len(self.qubits) != want:
            raise InvalidGateError(f"{self.name} takes {want} qubit(s), got {self.qubits}")
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise InvalidGateError(f"{self.name} control equals target: {self.qubits}")
        if self.name in ("ry", "rx", "rz") and self.angle is None:
            raise InvalidGateError(f"{self.name} requires an angle")

    def matrix(self) -> np.ndarray:
        """2x2 unitary of this single-qubit gate."""
        if self.name == "h":
            return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        if self.name == "ry":
            c, s = math.cos(self.angle / 2), math.sin(self.angle / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.name == "rx":
            c, s = math.cos(self.angle / 2), math.sin(self.angle / 2)
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.name == "rz":
            return np.array(
                [[np.exp(-0.5j * self.angle), 0], [0, np.exp(0.5j * self.angle)]],
                dtype=complex,
            )
        raise InvalidGateError(f"{self.name} is a two-qubit gate and has no 2x2 matrix")


def ry(qubit: int, angle: float) -> Gate:
    return Gate("ry", (qubit,), float(angle))


def rx(qubit: int, angle: float) -> Gate:
    return Gate("rx", (qubit,), float(angle))


def rz(qubit: int, angle: float) -> Gate:
    return Gate("rz", (qubit,), float(angle))


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.n for q in g.qubits):
                raise InvalidGateError(f"gate {g} out of range for n={self.n}")


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        """|0...0> on n qubits."""
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        """Equal-amplitude superposition, the n-Hadamard state."""
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        return cls(n, np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _apply_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutate the 1-D amplitude array. Qubit q maps to axis q of the [2]*n view."""
    psi = amps.reshape([2] * n)
    if gate.name in ("ry", "rx", "h"):
        m = gate.matrix()
        view = np.moveaxis(psi, gate.qubits[0], 0)
        r0 = view[0].copy()
        view[0] = m[0, 0] * r0 + m[0, 1] * view[1]
        view[1] = m[1, 0] * r0 + m[1, 1] * view[1]
    elif gate.name == "rz":
        view = np.moveaxis(psi, gate.qubits[0], 0)
        view[0] *= np.exp(-0.5j * gate.angle)
        view[1] *= np.exp(0.5j * gate.angle)
    elif gate.name == "cz":
        a, b = gate.qubits
        idx = [slice(None)] * n
        idx[a] = 1
        idx[b] = 1
        psi[tuple(idx)] *= -1.0
    else:  # cnot
        c, t = gate.qubits
        idx = [slice(None)] * n
        idx[c] = 1
        sub = psi[tuple(idx)]
        # after fixing the control axis, the target axis shifts down by one if it came later
        psi[tuple(idx)] = np.flip(sub, axis=t if t < c else t - 1)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new normalized state."""
    if any(q >= state.n for q in gate.qubits):
        raise InvalidGateError(f"gate {gate} out of range for n={state.n}")
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate, state.n)
    return StateVector(state.n, amps)


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply all gates in order, starting from |0...0> unless an initial state is given."""
    if initial is None:
        initial = StateVector.zero(circuit.n)
    if initial.n != circuit.n:
        raise ValueError(f"state has n={initial.n} but circuit has n={circuit.n}")
    amps = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_inplace(amps, gate, circuit.n)
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return StateVector(circuit.n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis index."""
    return np.abs(state.amplitudes) ** 2
