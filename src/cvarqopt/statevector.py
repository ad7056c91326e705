"""Dense state-vector simulation of the two whole-register steps the ansatz
builders and fixtures run: `diag`, and a layer of H, RY or RX on every qubit.

Basis convention: basis index j encodes qubit 0 as the most significant bit,
so |q0 q1 ... q_{n-1}> sits at index sum_i q_i * 2^(n-1-i).  Rotations follow
R_A(t) = exp(-i t A / 2) for A in {X, Y}.  `diag` multiplies amplitude j by
d[j]; a rotation layer turns every qubit by its own 2x2 matrix, applied qubit
0 first in n steps (`_rotate`) whose bytes equal one qubit at a time, and a
run from |0...0> that opens with one starts from that layer's product state
(for H, one cached read-only state per n).

Each step reads the top qubit's halves v0, v1 and writes a*v0 + b*v1 and
c*v0 + d*v1 to the even and odd slots of the other buffer, so the next qubit
comes on top.  No step works on more than `BLOCK` = 2^14 amplitudes at once,
since two complex buffers of that size and a third still fit a 2 MB L2 cache
and a step streams all it touches.  A state of more amplitudes (n > 14)
first applies its leading n - 14 qubits in the natural layout, where qubit q's
pairs lie 2^(n-1-q) apart, each step writing out of place into the second
buffer; then each contiguous block of 2^14 amplitudes takes the other 14 steps
in turn, with scratch carved from the layer's free buffer (with an odd number
of steps per block, each block ends in the scratch and is copied back).  Which
form a step takes:
- ry on a float64 state, ((c, -s), (s, c)), in all but a leading step:
  s*state into a spare buffer and c*state in place, then even = c*v0 - s*v1
  and odd = s*v0 + c*v1, four calls.  It is exact because
  fl((-s)*x) = -fl(s*x) and fl(x + (-y)) = fl(x - y) in IEEE arithmetic,
  signed zeros included.
- rx, ((a, b), (b, a)), in all but a leading step: b*state into a spare
  buffer and a*state in place, then even = a*v0 + b*v1 and odd = b*v0 + a*v1,
  four calls with the products and sums as written, and no negation.
- every other step (h, ry on a complex state, a leading step) takes the four
  half-array products and two sums as written, six calls.  On complex
  numbers (-s)*v and -(s*v) can differ in the sign of a zero; on a float64
  state the leading ry steps give the four-call bytes by the argument above.
So every amplitude gets the products and sums of the per-qubit 2x2 steps, in
qubit order, whatever the path.

A qaoa circuit run from |0...0> whose cost diags hold 2^(n-1) phases runs on
half the register.  `ansatz.cost_phases` binds a cost that way when its table
is mirror-symmetric, table[j] == table[~j] (every field-free Ising model, such
as maxcut or number partitioning), keeping the phases of the states with
qubit 0 = 0.  The H start, those phases and rx commute with the global flip,
and bit for bit: amplitudes j and ~j get the same two products, added in
swapped order, so amplitude(~j) = amplitude(j) after every step.  So the run
starts from the first half of the cached H state and applies each diag to the
half.  In each rx layer, qubit 0's step pairs v[j] with its mirror v[H-1-j]
(`_fold`): b*v and a*v are taken on the contiguous half as the whole step
takes them, and only the add reads the reversed view, so
even = fl(a*v[j]) + fl(b*v[H-1-j]) holds the whole step's bytes.  The other
n - 1 steps are `_rotate` on the half.  The run ends by mirroring
the half into 2^n amplitudes.  A run from a given state takes the whole
register and expands a half diag to its 2^n phases (d[~j] = d[j]) first.

One interpreter (`_run`) runs a `BoundCircuit` of `Step`s on one state, a
1-D array (`run_circuit`).  A step holds three fields: name, a rotation
layer's 2x2 entries per qubit (`matrices`, Python scalars) and a diag's
diagonal.  Nothing checks them: only `ansatz` (`build_circuit`, and its
alternating layer, which `flatness.qaoa_snapshots` runs too) and
`fixtures.two_qubit_circuit` build steps, and they fit them to n by
construction.  Every run allocates its buffers afresh, as a buffer kept
across runs would be handed out as a state: one per rotation layer, and a
spare for four-call steps unless the layer is blocked, so a blocked layer
holds no more than two state-sized buffers.

A state stays float64 while every gate it meets is real (h, ry, a real
diag), and turns complex128 at the first complex gate (rx, a complex diag);
the cast is exact, and real arithmetic gives the same values as complex
arithmetic on the real parts.  A `StateVector`'s amplitudes are read-only: it
copies a caller's array unless no array down its `.base` chain can be
written.  Its probabilities |amplitude|^2, computed once at construction,
serve the norm check (`checked_state`) and every scorer.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

MAX_QUBITS = 20
# Amplitudes a rotation step works on at a time (see the module docstring).  One ry layer on a
# float64 state at n=16 took 0.86 ms in blocks of 2^14, 0.94 ms in blocks of 2^13 and 1.09 ms in
# blocks of 2^12, on one core.
BLOCK = 2**14

_ROTATIONS = ("h", "ry", "rx")


def _whole(name: str, value) -> int:
    """An integer entry as an int; a ValueError naming it for a bool, a string or a fractional number."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} takes integers, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """A PRNG seed as an int; a ValueError naming it unless it is a whole number >= 0."""
    if (seed := _whole("seed", value)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_qubits(n: int) -> int:
    """n as an int; a ValueError unless it is a whole number in [1, MAX_QUBITS], the sizes the dense simulator holds."""
    if not 1 <= (n := _whole("n", n)) <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


class Step(NamedTuple):
    """One whole-register gate as the interpreter reads it: h, ry or rx on every qubit, or diag."""

    name: str
    matrices: list | None = None  # a rotation's 2x2 entries per qubit, qubit 0 first, as `_entries` gives them
    diagonal: np.ndarray | None = None  # diag: (2^n,)

    @property
    def is_complex(self) -> bool:
        """Whether applying this step can give a real state a nonzero imaginary part."""
        return self.diagonal.dtype.kind == "c" if self.name == "diag" else self.name == "rx"


def _entries(name: str, angle: float | None) -> list:
    """Entries of the h, ry or rx matrix as nested Python scalars (h has no angle)."""
    if name == "h":
        r = 1 / math.sqrt(2)
        return [[r, r], [r, -r]]
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if name == "ry":
        return [[c, -s], [s, c]]
    c = complex(c)  # as numpy would cast it for a complex state, once rather than per call
    return [[c, -1j * s], [-1j * s, c]]


class BoundCircuit(NamedTuple):
    """`Step`s that run in order on n qubits, taken as given: `ansatz.build_circuit` binds one per evaluation."""

    n: int
    gates: tuple


def _writeable(amps: np.ndarray) -> bool:
    """Whether the array, or memory it views, may still be written: false only if every array down
    its `.base` chain is read-only and the last owns its data."""
    while isinstance(amps, np.ndarray):
        if amps.flags.writeable:
            return True
        amps = amps.base
    return amps is not None


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray  # read-only
    probabilities: np.ndarray = field(init=False, repr=False, compare=False)  # |amplitude|^2, read-only

    def __post_init__(self):
        if not (type(n := self.n) is int and 1 <= n <= MAX_QUBITS):  # the check, but cheap on a plain int
            object.__setattr__(self, "n", n := check_qubits(n))
        amps = np.asarray(self.amplitudes)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got shape {amps.shape}")
        if _writeable(amps) or amps.dtype not in (np.float64, complex):  # a copy, as its owner may still write
            amps = amps.astype(np.float64 if amps.dtype == np.float64 else complex)  # real states stay float64
            amps.setflags(write=False)
        probs = amps * amps if amps.dtype == np.float64 else np.abs(amps) ** 2
        probs.setflags(write=False)  # half the cost of `flags.writeable = False`, once per evaluation
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        """Equal-amplitude superposition, the n-Hadamard state."""
        n = check_qubits(n)
        return cls(n, np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex))


def _mix(m, v0: np.ndarray, v1: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """even = a*v0 + b*v1 and odd = c*v0 + d*v1 for m = ((a, b), (c, d)); leaves v0 and v1 overwritten."""
    (a, b), (c, d) = m
    np.multiply(a, v0, out=even)
    np.multiply(d, v1, out=odd)
    np.add(even, np.multiply(b, v1, out=v1), out=even)  # v1 and then v0 are read: they are scratch now
    np.add(np.multiply(c, v0, out=v0), odd, out=odd)


def _shuffle(amps: np.ndarray, free: np.ndarray, spare: np.ndarray | None, name: str, matrices) -> np.ndarray:
    """Apply matrices[q] to qubit q of the 2^m amplitudes in m steps between `amps` and `free`,
    taking four calls per ry or rx step when `spare` is a third buffer (see the module docstring);
    returns the buffer that holds the result, leaving the other overwritten."""
    half = amps.size // 2
    sides = []  # per buffer: the whole of it, its halves (qubit q at 0, at 1) and its even and odd slots
    for buf in (amps, free):
        sides.append((buf, buf[:half], buf[half:], buf[0::2], buf[1::2]))
    if spare is not None:
        spare_top, spare_bottom = spare[:half], spare[half:]
        combine = np.subtract if name == "ry" else np.add
    k = 0
    for m in matrices:
        cur, top, bottom, _, _ = sides[k]
        _, _, _, even, odd = sides[1 - k]
        if spare is None:
            _mix(m, top, bottom, even, odd)
        else:  # ry ((a, -c), (c, a)) or rx ((a, c), (c, a)): even = a*v0 -+ c*v1, odd = c*v0 + a*v1
            (a, _), (c, _) = m
            np.multiply(c, cur, out=spare)
            np.multiply(a, cur, out=cur)
            combine(top, spare_bottom, out=even)
            np.add(spare_top, bottom, out=odd)
        k = 1 - k
    return sides[k][0]


def _rotate(amps: np.ndarray, name: str, matrices) -> np.ndarray:
    """Apply matrices[q] to qubit q of the 2^n amplitudes as the module describes a layer;
    returns the result, leaving `amps` overwritten."""
    free = np.empty_like(amps)
    four_calls = name == "rx" or name == "ry" and amps.dtype == np.float64
    if amps.size <= BLOCK:
        return _shuffle(amps, free, np.empty_like(amps) if four_calls else None, name, matrices)
    lead = len(matrices) - BLOCK.bit_length() + 1  # qubits whose pairs lie a block or more apart
    for q, m in enumerate(matrices[:lead]):
        cur, out = amps.reshape(2**q, 2, -1), free.reshape(2**q, 2, -1)
        _mix(m, cur[:, 0], cur[:, 1], out[:, 0], out[:, 1])
        amps, free = free, amps
    scratch, spare = free[:BLOCK], free[BLOCK:2 * BLOCK] if four_calls else None
    inner = matrices[lead:]
    for start in range(0, amps.size, BLOCK):
        block = amps[start:start + BLOCK]
        if (result := _shuffle(block, scratch, spare, name, inner)) is not block:
            block[...] = result  # an odd number of steps per block ends in the scratch
    return amps


def _product_state(matrices: list) -> np.ndarray:
    """The (2^n,) state a layer of these entries makes of |0...0>:
    each qubit's column-0 entries times the amplitudes so far, qubit 0 first."""
    columns = [(m[0][0], m[1][0]) for m in matrices]
    amps = np.array(columns[0])
    for top, bottom in columns[1:]:
        out = np.empty(2 * amps.size, amps.dtype)
        np.multiply(top, amps, out=out[0::2])
        np.multiply(bottom, amps, out=out[1::2])
        amps = out
    return amps


@cache  # one entry per n: the start of every qaoa circuit, shared read-only
def _hadamard_start(n: int) -> np.ndarray:
    amps = _product_state([_entries("h", None)] * n)
    amps.flags.writeable = False
    return amps


def _freeze(amps: np.ndarray) -> None:
    """Mark the array, and every array down its `.base` chain, read-only."""
    while isinstance(amps, np.ndarray):
        amps.setflags(write=False)
        amps = amps.base


def checked_state(n: int, amps: np.ndarray) -> StateVector:
    """The state of these amplitudes, taken over read-only with the memory they view;
    a FloatingPointError if its norm is NaN or off 1 by > 1e-10."""
    _freeze(amps)
    state = StateVector(n, amps)
    nrm = math.sqrt(state.probabilities.sum())
    if not abs(nrm - 1.0) <= 1e-10:
        raise FloatingPointError(f"state norm drifted to {nrm}")
    return state


def _fold(amps: np.ndarray, m) -> np.ndarray:
    """Qubit 0's step of an rx layer ((a, b), (b, a)) on the half with qubit 0 = 0 of a mirrored state,
    where v[j + H] is v[H-1-j]: even = a*v[j] + b*v[H-1-j], the products taken on the contiguous half."""
    (a, b), _ = m
    spare = np.multiply(b, amps)
    np.multiply(a, amps, out=amps)
    return np.add(amps, spare[::-1], out=amps)


def _apply(amps: np.ndarray, gate, mirrored: bool) -> np.ndarray:
    """Apply the step to the amplitudes, the half with qubit 0 = 0 of a mirrored state if `mirrored`;
    returns the result and leaves `amps` overwritten."""
    if gate.name == "diag":
        diagonal = gate.diagonal
        if diagonal.size < amps.size:  # a mirrored cost's half on a whole state: the phase at ~j is j's
            diagonal = np.concatenate((diagonal, diagonal[::-1]))
        amps *= diagonal
        return amps
    if mirrored:
        return _rotate(_fold(amps, gate.matrices[0]), gate.name, gate.matrices[1:])
    return _rotate(amps, gate.name, gate.matrices)


def _run(circuit: BoundCircuit, amps: np.ndarray | None) -> np.ndarray:
    """Apply the circuit's gates in order to the (2^n,) `amps`, left overwritten, or else to |0...0>
    (a qaoa circuit of a mirrored cost on the half with qubit 0 = 0, mirrored into 2^n at the end)."""
    gates, n = circuit.gates, circuit.n
    mirrored = False
    if amps is None:
        first = gates[0] if gates else None
        if first is None or first.name not in _ROTATIONS:
            amps = np.eye(1, 2**n, dtype=complex)[0]
        else:  # start from the opening layer's product state
            gates = gates[1:]
            amps = _hadamard_start(n) if first.name == "h" else _product_state(first.matrices)
            if first.name == "h" and gates and gates[0].name == "diag" and 2 * gates[0].diagonal.size == amps.size:
                mirrored, amps = True, amps[: amps.size // 2]
        if not amps.flags.writeable and not (gates and gates[0].is_complex):  # else the cast below copies it
            amps = amps.copy()
    for gate in gates:
        if gate.is_complex and amps.dtype != complex:
            amps = amps.astype(complex)  # exact: the imaginary parts start at zero
        amps = _apply(amps, gate, mirrored)
    return np.concatenate((amps, amps[::-1])) if mirrored else amps


def run_circuit(circuit: BoundCircuit, initial: StateVector | None = None) -> StateVector:
    """Apply all gates of the circuit in order, starting from |0...0> unless an initial state is given."""
    if initial is not None and initial.n != circuit.n:
        raise ValueError(f"state has n={initial.n} but circuit has n={circuit.n}")
    return checked_state(circuit.n, _run(circuit, None if initial is None else initial.amplitudes.copy()))
