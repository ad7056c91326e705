"""Dense state-vector simulation of the small gate set used by the ansatz builders.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y, Z}.  Two gates apply a whole layer:
`diag` multiplies amplitude j by d[j], or by exp(-i * angle * d[j]) given an
angle; `layer` applies one 2x2 matrix per qubit, qubit 0 first, and a run
from |0...0> that opens with one starts from that layer's product state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20

GATE_NAMES = ("ry", "rx", "rz", "h", "cz", "cnot", "diag", "layer")
_TWO_QUBIT = ("cz", "cnot")


class InvalidGateError(ValueError):
    """Raised for malformed gates or gate indices out of range."""


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    diagonal: np.ndarray | None = field(default=None, compare=False, repr=False)  # diag only; read-only, not compared
    matrices: np.ndarray | None = field(default=None, compare=False, repr=False)  # layer only; (n, 2, 2), read-only

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise InvalidGateError(f"unknown gate {self.name!r}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index in {self.qubits}")
        if (self.name == "diag") != (self.diagonal is not None) or (self.name == "layer") != (self.matrices is not None):
            raise InvalidGateError("a diagonal goes with diag and per-qubit matrices with layer, each only there")
        if self.name == "diag":
            object.__setattr__(self, "diagonal", _read_only(self.diagonal))
            if self.diagonal.ndim != 1:
                raise InvalidGateError(f"diag takes a 1-D vector, got shape {self.diagonal.shape}")
        if self.name == "layer":
            object.__setattr__(self, "matrices", _read_only(self.matrices, complex))
            if self.matrices.shape[1:] != (2, 2):  # (n, 2, 2) exactly
                raise InvalidGateError(f"layer takes one 2x2 matrix per qubit, got shape {self.matrices.shape}")
        want = 0 if self.name in ("diag", "layer") else 2 if self.name in _TWO_QUBIT else 1
        if len(self.qubits) != want:
            raise InvalidGateError(f"{self.name} takes {want} qubit(s), got {self.qubits}")
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise InvalidGateError(f"{self.name} control equals target: {self.qubits}")
        if self.name in ("ry", "rx", "rz") and self.angle is None:
            raise InvalidGateError(f"{self.name} requires an angle")

    def matrix(self) -> np.ndarray:
        """2x2 unitary of this single-qubit gate."""
        if self.name not in ("h", "ry", "rx", "rz"):
            raise InvalidGateError(f"{self.name} is not a single-qubit gate and has no 2x2 matrix")
        return np.array(_entries(self.name, self.angle), dtype=complex)


def _read_only(a, dtype=None) -> np.ndarray:
    """`a` as an array that cannot change after the gate is built: a read-only copy unless it is one."""
    a = np.asarray(a, dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _entries(name: str, angle: float | None) -> list:
    """Entries of the h, ry, rx or rz matrix as nested lists (h has no angle)."""
    if name == "h":
        r = 1 / math.sqrt(2)
        return [[r, r], [r, -r]]
    if name == "rz":
        return [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]]
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return [[c, -s], [s, c]] if name == "ry" else [[c, -1j * s], [-1j * s, c]]


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


def diag(d: np.ndarray, angle: float | None = None) -> Gate:
    """Multiply amplitude j by d[j], or by exp(-i * angle * d[j]) given an angle."""
    return Gate("diag", (), None if angle is None else float(angle), d)


def layer(name: str, angles) -> Gate:
    """One h, ry, rx or rz gate per qubit as one gate: qubit q turns by angles[q]."""
    return Gate("layer", (), matrices=[_entries(name, a) for a in angles])


def _check_fits(gate: Gate, n: int) -> None:
    if any(q >= n for q in gate.qubits):
        raise InvalidGateError(f"gate {gate} out of range for n={n}")
    if gate.name == "diag" and gate.diagonal.size != 2**n:
        raise InvalidGateError(f"diag of length {gate.diagonal.size} does not fit n={n}")
    if gate.name == "layer" and len(gate.matrices) != n:
        raise InvalidGateError(f"layer of {len(gate.matrices)} matrices does not fit n={n}")


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_fits(g, self.n)


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


def _apply_matrix(amps: np.ndarray, q: int, m: np.ndarray) -> None:
    """Apply the 2x2 matrix m to qubit q of the 1-D amplitude array, in place."""
    # contiguous view: axis 1 is the qubit, axes 0 and 2 the more and less significant bits
    psi = amps.reshape(2**q, 2, -1)
    v0, v1 = psi[:, 0], psi[:, 1]
    r0 = v0.copy()
    v0[...] = m[0, 0] * r0 + m[0, 1] * v1
    v1[...] = m[1, 0] * r0 + m[1, 1] * v1


def _apply_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutate the 1-D amplitude array in place."""
    if gate.name == "diag":
        if gate.angle is None:
            amps *= gate.diagonal
        else:
            phases = np.multiply(gate.diagonal, -1j * gate.angle)  # the one scratch array
            amps *= np.exp(phases, out=phases)
    elif gate.name == "layer":
        for q, m in enumerate(gate.matrices):
            _apply_matrix(amps, q, m)
    elif gate.name in ("ry", "rx", "h", "rz"):
        _apply_matrix(amps, gate.qubits[0], gate.matrix())
    elif gate.name == "cz":
        psi = amps.reshape([2] * n)  # qubit q is axis q
        a, b = gate.qubits
        idx = [slice(None)] * n
        idx[a] = 1
        idx[b] = 1
        psi[tuple(idx)] *= -1.0
    else:  # cnot
        psi = amps.reshape([2] * n)  # qubit q is axis q
        c, t = gate.qubits
        idx = [slice(None)] * n
        idx[c] = 1
        sub = psi[tuple(idx)]
        # after fixing the control axis, the target axis shifts down by one if it came later
        psi[tuple(idx)] = np.flip(sub, axis=t if t < c else t - 1)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new normalized state."""
    _check_fits(gate, state.n)
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate, state.n)
    return StateVector(state.n, amps)


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply all gates in order, starting from |0...0> unless an initial state is given."""
    if initial is not None and initial.n != circuit.n:
        raise ValueError(f"state has n={initial.n} but circuit has n={circuit.n}")
    gates = circuit.gates
    if initial is None and gates and gates[0].name == "layer":
        # the layer's product state: column entry times amplitude so far, qubit 0 first, as gates do
        amps = gates[0].matrices[0, :, 0].copy()
        for m in gates[0].matrices[1:]:
            amps = np.multiply(m[None, :, 0], amps[:, None]).ravel()
        gates = gates[1:]
    else:
        amps = (StateVector.zero(circuit.n) if initial is None else initial).amplitudes.copy()
    for gate in gates:
        _apply_inplace(amps, gate, circuit.n)
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return StateVector(circuit.n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis index."""
    return np.abs(state.amplitudes) ** 2
