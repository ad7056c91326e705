"""Dense state-vector simulation of the small gate set used by the ansatz builders.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y, Z}.  Two gates apply a whole layer:
`diag` multiplies amplitude j by d[j], or by exp(-i * angle * values[ranks[j]])
given an angle, distinct values and per-state ranks (one exp per distinct
value); `layer` applies one 2x2 matrix per qubit, qubit 0 first, and a run
from |0...0> that opens with one starts from that layer's product state.

A state stays float64 while every gate it meets is real (h, ry, cz, cnot, a
real diag or layer), and turns complex128 the first time a complex gate (rx,
rz, an angled diag, a complex diag or layer) meets it; the cast is exact, and
real arithmetic gives the same values as complex arithmetic on the real parts.
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


@dataclass(frozen=True, eq=False)  # by identity: field-wise == would ignore or mis-compare the arrays
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    diagonal: np.ndarray | None = field(default=None, repr=False)  # diag only; read-only
    matrices: np.ndarray | None = field(default=None, repr=False)  # layer only; (n, 2, 2), read-only
    ranks: np.ndarray | None = field(default=None, repr=False)  # angled diag only; read-only

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise InvalidGateError(f"unknown gate {self.name!r}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index in {self.qubits}")
        if (self.name == "diag") != (self.diagonal is not None) or (self.name == "layer") != (self.matrices is not None):
            raise InvalidGateError("a diagonal goes with diag and per-qubit matrices with layer, each only there")
        if (self.name == "diag" and self.angle is not None) != (self.ranks is not None):
            raise InvalidGateError("an angled diag takes distinct values and per-state ranks, and only it takes ranks")
        if self.name == "diag":
            object.__setattr__(self, "diagonal", _read_only(self.diagonal))
            if self.diagonal.ndim != 1:
                raise InvalidGateError(f"diag takes a 1-D vector, got shape {self.diagonal.shape}")
        if self.ranks is not None:
            object.__setattr__(self, "ranks", _read_only(self.ranks))
            if self.ranks.ndim != 1 or self.ranks.dtype.kind not in "iu":
                raise InvalidGateError(f"diag ranks must be a 1-D integer vector, got {self.ranks.dtype} {self.ranks.shape}")
        if self.name == "layer":
            m = np.asarray(self.matrices)
            object.__setattr__(self, "matrices", _read_only(m, complex if np.iscomplexobj(m) else float))
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
        """2x2 unitary of this single-qubit gate: float64 for h and ry, complex128 for rx and rz."""
        if self.name not in ("h", "ry", "rx", "rz"):
            raise InvalidGateError(f"{self.name} is not a single-qubit gate and has no 2x2 matrix")
        return np.array(_entries(self.name, self.angle))

    @property
    def is_complex(self) -> bool:
        """Whether applying this gate can give a real state a nonzero imaginary part."""
        if self.name == "diag":
            return self.angle is not None or self.diagonal.dtype.kind == "c"
        if self.name == "layer":
            return self.matrices.dtype.kind == "c"
        return self.name in ("rx", "rz")


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


def diag(d: np.ndarray, angle: float | None = None, ranks: np.ndarray | None = None) -> Gate:
    """Multiply amplitude j by d[j]; or, given an angle, d as distinct values and
    per-state ranks, by exp(-i * angle * d[ranks[j]])."""
    return Gate("diag", (), None if angle is None else float(angle), d, ranks=ranks)


def layer(name: str, angles) -> Gate:
    """One h, ry, rx or rz gate per qubit as one gate: qubit q turns by angles[q]."""
    return Gate("layer", (), matrices=[_entries(name, a) for a in angles])


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
            length = (g.diagonal if g.ranks is None else g.ranks).size if g.name == "diag" else 2**self.n
            if length != 2**self.n:
                raise InvalidGateError(f"diag of length {length} does not fit n={self.n}")
            if g.name == "layer" and len(g.matrices) != self.n:
                raise InvalidGateError(f"layer of {len(g.matrices)} matrices does not fit n={self.n}")


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.dtype != np.float64:  # real states stay float64; everything else is complex
            amps = amps.astype(complex, copy=False)
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
    (a, b), (c, d) = m.tolist()  # Python scalars: no numpy scalar arithmetic per call
    r0 = v0.copy()
    v0[...] = a * r0 + b * v1
    v1[...] = c * r0 + d * v1


def _apply_inplace(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Mutate the 1-D amplitude array in place."""
    if gate.name == "diag":
        if gate.angle is None:
            amps *= gate.diagonal
        else:
            phases = np.multiply(gate.diagonal, -1j * gate.angle)  # one exp per distinct value
            amps *= np.exp(phases, out=phases)[gate.ranks]
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
        if gate.is_complex and amps.dtype != complex:
            amps = amps.astype(complex)  # exact: the imaginary parts start at zero
        _apply_inplace(amps, gate, circuit.n)
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return StateVector(circuit.n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis index."""
    a = state.amplitudes
    return a * a if a.dtype == np.float64 else np.abs(a) ** 2
