"""Dense state-vector simulation of the gates the ansatz builders and fixtures run:
RY, RX, H, CNOT and `diag`.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y}; a rotation gate holds only its
angles, one per qubit.  Two gates act on every qubit: `diag` multiplies
amplitude j by d[j], or by exp(-i * angle * values[ranks[j]]) given an angle,
distinct values and per-state ranks (one exp per distinct value); `layer` is
a rotation on every qubit, applied qubit 0 first, and a run from |0...0> that
opens with one starts from that layer's product state.  A layer takes n
steps over two buffers: each writes a*v0 + b*v1 and c*v0 + d*v1, from the top
qubit's contiguous halves v0 and v1, to the even and odd slots of the other
buffer, so the next qubit comes on top.  Each amplitude gets the products and
sum of the 2x2 matrix product, so the bytes equal one qubit at a time.

A state stays float64 while every gate it meets is real (h, ry, cnot, a real
diag), and turns complex128 the first time a complex gate (rx, an angled diag,
a complex diag) meets it; the cast is exact, and real
arithmetic gives the same values as complex arithmetic on the real parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20

GATE_NAMES = ("ry", "rx", "h", "cnot", "diag")
_ROTATIONS = ("h", "ry", "rx")


class InvalidGateError(ValueError):
    """Raised for malformed gates or gate indices out of range."""


@dataclass(frozen=True, eq=False)  # by identity: field-wise == would ignore or mis-compare the arrays
class Gate:
    name: str
    qubits: tuple[int, ...]  # () for a gate on every qubit: diag, or a rotation layer
    angles: tuple = ()  # rotations: one per qubit, None for h; an angled diag: its one angle
    diagonal: np.ndarray | None = field(default=None, repr=False)  # diag only; read-only
    ranks: np.ndarray | None = field(default=None, repr=False)  # angled diag only; read-only

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise InvalidGateError(f"unknown gate {self.name!r}")
        if any(q < 0 for q in self.qubits) or len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError(f"negative or repeated qubit index in {self.qubits}")
        if (self.name == "diag") != (self.diagonal is not None):
            raise InvalidGateError("a diagonal goes with diag, and only there")
        if (self.name == "diag" and len(self.angles) == 1) != (self.ranks is not None):
            raise InvalidGateError("an angled diag takes distinct values and per-state ranks, and only it takes ranks")
        if self.name == "diag":
            object.__setattr__(self, "diagonal", _read_only(self.diagonal))
            if self.diagonal.ndim != 1:
                raise InvalidGateError(f"diag takes a 1-D vector, got shape {self.diagonal.shape}")
        if self.ranks is not None:
            object.__setattr__(self, "ranks", _read_only(self.ranks))
            if self.ranks.ndim != 1 or self.ranks.dtype.kind not in "iu":
                raise InvalidGateError(f"diag ranks must be a 1-D integer vector, got {self.ranks.dtype} {self.ranks.shape}")
        if self.name in _ROTATIONS:
            if not self.angles or len(self.qubits) > 1 or (self.qubits and len(self.angles) > 1):
                raise InvalidGateError(f"{self.name} takes one qubit and one angle, or every qubit and an angle each")
            if any((a is None) != (self.name == "h") for a in self.angles):
                raise InvalidGateError(f"h takes no angle and ry and rx one per qubit, got {self.name} {self.angles}")
        else:
            want = 2 if self.name == "cnot" else 0
            if len(self.qubits) != want or len(self.angles) > (self.name == "diag"):
                raise InvalidGateError(f"{self.name} takes {want} qubit(s) and no angle, or one if diag: {self}")

    @property
    def is_complex(self) -> bool:
        """Whether applying this gate can give a real state a nonzero imaginary part."""
        if self.name == "diag":
            return bool(self.angles) or self.diagonal.dtype.kind == "c"
        return self.name == "rx"


def _read_only(a) -> np.ndarray:
    """`a` as an array that cannot change after the gate is built: a read-only copy unless it is one."""
    a = np.asarray(a)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _entries(name: str, angle: float | None) -> list:
    """Entries of the h, ry or rx matrix as nested Python scalars (h has no angle)."""
    if name == "h":
        r = 1 / math.sqrt(2)
        return [[r, r], [r, -r]]
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return [[c, -s], [s, c]] if name == "ry" else [[c, -1j * s], [-1j * s, c]]


def ry(qubit: int, angle: float) -> Gate:
    return Gate("ry", (qubit,), (float(angle),))


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,), (None,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def diag(d: np.ndarray, angle: float | None = None, ranks: np.ndarray | None = None) -> Gate:
    """Multiply amplitude j by d[j]; or, given an angle, d as distinct values and
    per-state ranks, by exp(-i * angle * d[ranks[j]])."""
    return Gate("diag", (), () if angle is None else (float(angle),), d, ranks)


def layer(name: str, angles) -> Gate:
    """An h, ry or rx rotation on every qubit: qubit q turns by angles[q]."""
    return Gate(name, (), tuple(angles))


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
            if g.name in _ROTATIONS and not g.qubits and len(g.angles) != self.n:
                raise InvalidGateError(f"{g.name} on every qubit with {len(g.angles)} angles does not fit n={self.n}")


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


def _mix(m, v0: np.ndarray, v1: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """even = a*v0 + b*v1 and odd = c*v0 + d*v1 for m = ((a, b), (c, d)); leaves v0 and v1 overwritten."""
    (a, b), (c, d) = m
    np.multiply(a, v0, out=even)
    np.multiply(d, v1, out=odd)
    np.add(even, np.multiply(b, v1, out=v1), out=even)  # v1 and then v0 are read: they are scratch now
    np.add(np.multiply(c, v0, out=v0), odd, out=odd)


def _rotate(amps: np.ndarray, matrices) -> np.ndarray:
    """Apply matrices[q], entries Python scalars or (B, 1) per-state arrays, to qubit q of the
    (..., 2^n) amplitudes as the module describes a layer; returns the result, leaving `amps` overwritten."""
    cur, nxt = amps, np.empty_like(amps)
    half = amps.shape[-1] // 2
    for m in matrices:
        out = nxt.reshape(*nxt.shape[:-1], half, 2)
        _mix(m, cur[..., :half], cur[..., half:], out[..., 0], out[..., 1])
        cur, nxt = nxt, cur
    return cur


def _stacked_entries(name: str, angles) -> np.ndarray:
    """`_entries(name, angles[r][q])` for every state r and qubit q, as a (B, n, 2, 2) array."""
    return np.array([[_entries(name, angle) for angle in row] for row in angles])


def layer_states(name: str, angles) -> np.ndarray:
    """(B, 2^n) product states: row r is what the layer `layer(name, angles[r])` makes of |0...0>.

    Each qubit's column-0 entries multiply the amplitudes so far, qubit 0
    first, as the layer's gates would: once the stack is long, as two
    column multiplies into the even and odd slots of the next stack."""
    columns = _stacked_entries(name, angles)[..., 0]  # (B, n, 2)
    amps = columns[:, 0].copy()
    for k in range(1, columns.shape[1]):
        if amps.size < 256:  # one broadcast call costs less than two multiplies here
            out = np.multiply(columns[:, k, None], amps[:, :, None])
        else:
            out = np.empty((*amps.shape, 2), columns.dtype)
            np.multiply(columns[:, k, :1], amps, out=out[..., 0])
            np.multiply(columns[:, k, 1:], amps, out=out[..., 1])
        amps = out.reshape(len(amps), -1)
    return amps


def rotate_states(amps: np.ndarray, name: str, angles) -> np.ndarray:
    """Apply `layer(name, angles[r])` to row r of the (B, 2^n) stack; returns it, leaving `amps` overwritten."""
    entries = _stacked_entries(name, angles).transpose(1, 2, 3, 0)[..., None]  # (n, 2, 2, B, 1)
    return _rotate(amps, entries)


def checked_state(n: int, amps: np.ndarray) -> StateVector:
    """The state with these amplitudes; a FloatingPointError if its norm left 1 by more than 1e-10."""
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return StateVector(n, amps)


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply the gate to the 1-D amplitudes; returns the result and leaves `amps` overwritten."""
    if gate.name == "diag":
        if not gate.angles:
            amps *= gate.diagonal
        else:
            phases = np.multiply(gate.diagonal, -1j * gate.angles[0])  # one exp per distinct value
            amps *= np.exp(phases, out=phases)[gate.ranks]
    elif gate.name in _ROTATIONS and not gate.qubits:
        return _rotate(amps, [_entries(gate.name, angle) for angle in gate.angles])
    elif gate.name in _ROTATIONS:
        psi = amps.reshape(2 ** gate.qubits[0], 2, -1)  # axis 1 is the qubit
        _mix(_entries(gate.name, gate.angles[0]), psi[:, 0].copy(), psi[:, 1].copy(), psi[:, 0], psi[:, 1])
    else:  # cnot
        psi = amps.reshape([2] * n)  # qubit q is axis q
        c, t = gate.qubits
        idx = [slice(None)] * n
        idx[c] = 1
        sub = psi[tuple(idx)]
        # after fixing the control axis, the target axis shifts down by one if it came later
        psi[tuple(idx)] = np.flip(sub, axis=t if t < c else t - 1)
    return amps


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply all gates in order, starting from |0...0> unless an initial state is given."""
    if initial is not None and initial.n != circuit.n:
        raise ValueError(f"state has n={initial.n} but circuit has n={circuit.n}")
    gates = circuit.gates
    if initial is None and gates and gates[0].name in _ROTATIONS and not gates[0].qubits:
        amps = layer_states(gates[0].name, [gates[0].angles])[0]
        gates = gates[1:]
    else:
        amps = (StateVector.zero(circuit.n) if initial is None else initial).amplitudes.copy()
    for gate in gates:
        if gate.is_complex and amps.dtype != complex:
            amps = amps.astype(complex)  # exact: the imaginary parts start at zero
        amps = _apply_gate(amps, gate, circuit.n)
    return checked_state(circuit.n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis index."""
    a = state.amplitudes
    return a * a if a.dtype == np.float64 else np.abs(a) ** 2
