"""Dense state-vector simulation of the gates the ansatz builders and fixtures run:
RY, RX, H, CNOT and `diag`.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y}.  Two gates act on every qubit:
`diag` multiplies amplitude j by d[j]; `layer` is a rotation on every qubit,
applied qubit 0 first in n two-buffer steps (`_rotate`) whose bytes equal one
qubit at a time, and a run from |0...0> that opens with one starts from that
layer's product state.

One interpreter runs a circuit on one state (`run_circuit`, a 1-D array) or
on a stack of B states (`run_stack`, (B, 2^n)), with the same arithmetic on
each row.  A `diag` or `layer` holds one row of parameters, which every state
takes (a layer's entries then are Python scalars), or one row per state.

A state stays float64 while every gate it meets is real (h, ry, cnot, a real
diag), and turns complex128 at the first complex gate (rx, a complex diag);
the cast is exact, and real arithmetic gives the same values as complex
arithmetic on the real parts.
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


def check_qubits(n: int) -> None:
    """A ValueError unless 1 <= n <= MAX_QUBITS, the sizes the dense simulator holds."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")


@dataclass(frozen=True, eq=False)  # by identity: field-wise == would ignore or mis-compare the arrays
class Gate:
    name: str
    qubits: tuple[int, ...]  # () for a gate on every qubit: diag, or a rotation layer
    angles: tuple = ()  # one qubit's rotation: its angle; a layer: rows of one angle per qubit, None for h
    diagonal: np.ndarray | None = field(default=None, repr=False)  # diag only: (2^n,) or (B, 2^n); read-only
    rows: int = field(init=False, default=1)  # states it holds parameters for; one row applies to every state

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise InvalidGateError(f"unknown gate {self.name!r}")
        if self.qubits and (min(self.qubits) < 0 or len(set(self.qubits)) != len(self.qubits)):
            raise InvalidGateError(f"negative or repeated qubit index in {self.qubits}")
        if (self.name == "diag") != (self.diagonal is not None):
            raise InvalidGateError("a diagonal goes with diag, and only there")
        if self.name == "diag":
            d = np.asarray(self.diagonal)
            d = d.copy() if d.flags.writeable else d  # read-only, so the gate cannot change once built
            d.flags.writeable = False
            object.__setattr__(self, "diagonal", d[0] if d.ndim == 2 and len(d) == 1 else d)  # one row: every state's
            object.__setattr__(self, "rows", len(d) if d.ndim == 2 else 1)
            if d.ndim not in (1, 2) or self.angles or self.qubits:
                raise InvalidGateError(f"diag takes a vector or one row per state, and no qubit or angle: {self}")
        elif self.name in _ROTATIONS:
            rows = (self.angles,) if self.qubits else self.angles
            if not rows or len(self.qubits) > 1 or (self.qubits and len(self.angles) > 1) or not all(
                    type(row) is tuple and row and row.count(None) == (self.name == "h") * len(row) for row in rows):
                raise InvalidGateError(f"{self.name} takes one qubit and an angle, or every qubit and rows of an angle "
                                       f"each (None for h), got {self.qubits} {self.angles}")
            object.__setattr__(self, "rows", 1 if self.qubits else len(self.angles))
        elif len(self.qubits) != 2 or self.angles:
            raise InvalidGateError(f"cnot takes 2 qubits and no angle: {self}")

    @property
    def is_complex(self) -> bool:
        """Whether applying this gate can give a real state a nonzero imaginary part."""
        return self.diagonal.dtype.kind == "c" if self.name == "diag" else self.name == "rx"


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


def diag(d: np.ndarray) -> Gate:
    """Multiply amplitude j by d[j]; given a (B, 2^n) array, amplitude j of state r by d[r, j]."""
    return Gate("diag", (), (), d)


def layer(name: str, angles) -> Gate:
    """An h, ry or rx rotation on every qubit: qubit q turns by angles[q]; given
    one row of angles per state of a stack, qubit q of state r by angles[r][q]."""
    stacked = len(angles) and isinstance(angles[0], (list, tuple, np.ndarray))
    return Gate(name, (), tuple(map(tuple, angles)) if stacked else (tuple(angles),))


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    rows: int = field(init=False, default=1)  # states it runs on: its gates' row count, or 1

    def __post_init__(self):
        check_qubits(self.n)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.qubits and max(g.qubits) >= self.n:
                raise InvalidGateError(f"gate {g} out of range for n={self.n}")
            if g.name == "diag" and g.diagonal.shape[-1] != 2**self.n:
                raise InvalidGateError(f"diag of width {g.diagonal.shape[-1]} does not fit n={self.n}")
            if g.name in _ROTATIONS and not g.qubits and set(map(len, g.angles)) != {self.n}:
                raise InvalidGateError(f"{g.name} rows of {[len(r) for r in g.angles]} angles do not fit n={self.n}")
        rows = {g.rows for g in self.gates} - {1}
        if len(rows) > 1:
            raise InvalidGateError(f"gates hold {sorted(rows)} rows of parameters")
        object.__setattr__(self, "rows", rows.pop() if rows else 1)


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
        check_qubits(n)
        return cls(n, np.eye(1, 2**n, dtype=complex)[0])

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        """Equal-amplitude superposition, the n-Hadamard state."""
        check_qubits(n)
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


def checked_state(n: int, amps: np.ndarray) -> StateVector:
    """The state with these amplitudes; a FloatingPointError if its norm left 1 by more than 1e-10."""
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return StateVector(n, amps)


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply the gate to the (..., 2^n) amplitudes; returns the result and leaves `amps` overwritten."""
    if gate.name == "diag":
        amps *= gate.diagonal
    elif gate.name in _ROTATIONS and not gate.qubits:
        if gate.rows == 1:
            return _rotate(amps, [_entries(gate.name, angle) for angle in gate.angles[0]])
        return _rotate(amps, _stacked_entries(gate.name, gate.angles).transpose(1, 2, 3, 0)[..., None])
    elif gate.name in _ROTATIONS:
        psi = amps.reshape(*amps.shape[:-1], 2 ** gate.qubits[0], 2, -1)  # axis -2 is the qubit
        v0, v1 = psi[..., 0, :], psi[..., 1, :]
        _mix(_entries(gate.name, gate.angles[0]), v0.copy(), v1.copy(), v0, v1)
    else:  # cnot
        psi = amps.reshape(*amps.shape[:-1], *[2] * n)  # qubit q is axis q - n
        c, t = gate.qubits
        on = (..., 1) + (slice(None),) * (n - 1 - c)  # the control set
        # with the control axis fixed, the target's axis from the end moves up by one if it came before
        psi[on] = np.flip(psi[on], axis=t - n + (t < c))
    return amps


def _run(circuit: Circuit, amps: np.ndarray | None) -> np.ndarray:
    """Apply the circuit's gates in order to `amps`, (2^n,) or (B, 2^n) and left overwritten,
    or else to |0...0>: as one (2^n,) state for a circuit of one row, or in each of its rows."""
    gates = circuit.gates
    if amps is None:
        if gates and gates[0].name in _ROTATIONS and not gates[0].qubits:
            amps = layer_states(gates[0].name, gates[0].angles)
            gates = gates[1:]
        else:
            amps = StateVector.zero(circuit.n).amplitudes[None]
        if circuit.rows == 1:
            amps = amps[0]
        elif len(amps) == 1:
            amps = np.repeat(amps, circuit.rows, axis=0)
    for gate in gates:
        if gate.is_complex and amps.dtype != complex:
            amps = amps.astype(complex)  # exact: the imaginary parts start at zero
        amps = _apply_gate(amps, gate, circuit.n)
    return amps


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply all gates of a one-row circuit in order, starting from |0...0> unless an initial state is given."""
    if circuit.rows != 1:
        raise ValueError(f"a circuit of {circuit.rows} rows runs on a stack (run_stack)")
    if initial is not None and initial.n != circuit.n:
        raise ValueError(f"state has n={initial.n} but circuit has n={circuit.n}")
    return checked_state(circuit.n, _run(circuit, None if initial is None else initial.amplitudes.copy()))


def run_stack(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """(B, 2^n) amplitudes, not norm-checked: row r is the circuit's row r run on |0...0>,
    or on row r of the (B, 2^n) `initial` stack, which is left as it is."""
    if initial is not None:
        initial = np.array(initial, dtype=complex if np.iscomplexobj(initial) else float)
        if initial.shape[1:] != (2**circuit.n,) or circuit.rows not in (1, len(initial)):
            raise ValueError(f"stack of shape {initial.shape} for {circuit.rows} row(s) and n={circuit.n}")
    return _run(circuit, initial).reshape(-1, 2**circuit.n)


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis index."""
    a = state.amplitudes
    return a * a if a.dtype == np.float64 else np.abs(a) ** 2
