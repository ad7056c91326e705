import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarqopt import fixtures
from cvarqopt.ansatz import AnsatzSpec, build_circuit
from cvarqopt.hamiltonian import IsingModel
from cvarqopt.statevector import (
    GATE_NAMES,
    Circuit,
    Gate,
    InvalidGateError,
    StateVector,
    _entries,
    cnot,
    diag,
    h,
    layer,
    layer_states,
    probabilities,
    run_circuit,
    run_stack,
    ry,
)
from gate_reference import apply_matrix, bit, cz, product_states, rotate_per_qubit, rx, rz

S2 = 1.0 / np.sqrt(2.0)


def test_hadamard_on_zero():
    out = run_circuit(Circuit(1, [h(0)]))
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-12)


def test_cz_identity_on_zero():
    out = run_circuit(Circuit(2, [cz(2, 0, 1)]))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 3, np.pi / 2, 2.2, np.pi])
def test_reference_two_qubit_circuit(theta):
    """The 3-gate circuit pins the basis ordering for the whole codebase."""
    out = run_circuit(fixtures.two_qubit_circuit(theta))
    np.testing.assert_allclose(out.amplitudes, fixtures.two_qubit_amplitudes(theta), atol=1e-12)


def test_reference_circuit_at_zero_is_bell():
    out = run_circuit(fixtures.two_qubit_circuit(0.0))
    np.testing.assert_allclose(out.amplitudes, np.array([1, 0, 0, 1]) * S2, atol=1e-12)


def test_empty_circuit_is_identity():
    out = run_circuit(Circuit(3))
    np.testing.assert_allclose(out.amplitudes, StateVector.zero(3).amplitudes)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_parallel_hadamards_give_uniform(n):
    out = run_circuit(Circuit(n, [h(q) for q in range(n)]))
    np.testing.assert_allclose(out.amplitudes, np.full(2**n, 1 / np.sqrt(2**n)), atol=1e-12)


def test_qubit0_is_most_significant_bit():
    # RY(pi) flips qubit 0, landing on basis index 2 of a 2-qubit register
    out = run_circuit(Circuit(2, [ry(0, np.pi)]))
    np.testing.assert_allclose(probabilities(out), [0, 0, 1, 0], atol=1e-12)


def test_cnot_flips_target_when_control_set():
    out = run_circuit(Circuit(2, [ry(0, np.pi), cnot(0, 1)]))
    np.testing.assert_allclose(probabilities(out), [0, 0, 0, 1], atol=1e-12)


def test_probabilities_basics():
    np.testing.assert_allclose(probabilities(StateVector.zero(1)), [1, 0])
    plus = run_circuit(Circuit(1, [h(0)]))
    np.testing.assert_allclose(probabilities(plus), [0.5, 0.5], atol=1e-12)


def test_probabilities_reference_quarter_point():
    out = run_circuit(fixtures.two_qubit_circuit(np.pi / 2))
    np.testing.assert_allclose(probabilities(out), [0.25] * 4, atol=1e-12)
    assert abs(probabilities(out).sum() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "gate",
    [h(0), ry(0, 0.7), rx(0, -1.3)],
    ids=lambda g: g.name,
)
def test_every_gate_matrix_is_unitary(gate):
    m = np.array(_entries(gate.name, gate.angles[0]))
    np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_random_circuit_preserves_norm(n, rng):
    gates = []
    for _ in range(200):
        kind = rng.integers(6)
        q = int(rng.integers(n))
        q2 = int((q + 1 + rng.integers(n - 1)) % n)
        angle = float(rng.uniform(-np.pi, np.pi))
        gates.append(
            [h(q), ry(q, angle), rx(q, angle), rz(n, q, angle), cz(n, q, q2), cnot(q, q2)][kind]
        )
    out = run_circuit(Circuit(n, gates))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_cz_is_symmetric(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    a = run_circuit(Circuit(3, [cz(3, 0, 2)]), state)
    b = run_circuit(Circuit(3, [cz(3, 2, 0)]), state)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_gate_index_out_of_range():
    with pytest.raises(InvalidGateError):
        run_circuit(Circuit(2, [ry(2, 0.5)]))
    with pytest.raises(InvalidGateError):
        Circuit(2, [cnot(0, 3)])


def test_control_equals_target_rejected():
    with pytest.raises(InvalidGateError):
        cnot(1, 1)


def test_run_circuit_dimension_mismatch():
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, [h(0)]), StateVector.zero(3))


def test_run_circuit_leaves_initial_state_untouched():
    """Snapshots of a state evolved layer by layer rely on this."""
    state = StateVector.zero(2)
    before = state.amplitudes.copy()
    gates = [h(0), diag(np.array([1, -1, -1, 1])), layer("ry", [0.3, -0.4]), cnot(1, 0), rx(1, 0.2)]
    assert not np.array_equal(run_circuit(Circuit(2, gates), state).amplitudes, before)
    np.testing.assert_array_equal(state.amplitudes, before)


@given(st.integers(1, 6), st.integers(1, 130))
def test_wrong_length_diag_is_rejected(n, length):
    gate = diag(np.ones(length))
    if length == 2**n:
        assert np.linalg.norm(run_circuit(Circuit(n, [gate])).amplitudes) == 1.0
        return
    with pytest.raises(InvalidGateError):
        Circuit(n, [gate])


def test_diag_gate_applies_vector_or_phases(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    phases = np.exp(-0.7j * rng.uniform(-2.0, 2.0, 8))
    assert np.array_equal(run_circuit(Circuit(3, [diag(phases)]), state).amplitudes, state.amplitudes * phases)
    signs = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=np.int8)
    assert np.array_equal(run_circuit(Circuit(3, [diag(signs)]), state).amplitudes, state.amplitudes * signs)


def test_diag_gate_keeps_a_read_only_copy():
    d = np.ones(4)
    gate = diag(d)
    d[0] = -1.0  # the caller's array stays its own
    assert gate.diagonal[0] == 1.0 and not gate.diagonal.flags.writeable
    with pytest.raises(InvalidGateError):
        diag(np.ones((2, 2, 2)))  # a vector, or one row per state of a stack


def per_qubit(name, angles):
    """The gates a layer stands for, one per qubit."""
    make = {"h": lambda q, a: h(q), "ry": ry, "rx": rx}[name]
    return [make(q, a) for q, a in enumerate(angles)]


@pytest.mark.parametrize("name", ["h", "ry", "rx"])
def test_layer_equals_its_single_qubit_gates(name, rng):
    for n in range(1, 9):
        angles = [None] * n if name == "h" else rng.uniform(-np.pi, np.pi, n).tolist()
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        want = run_circuit(Circuit(n, per_qubit(name, angles)), state).amplitudes
        assert np.array_equal(run_circuit(Circuit(n, [layer(name, angles)]), state).amplitudes, want), n
        # from |0...0> a leading layer starts from its product state instead
        want = run_circuit(Circuit(n, per_qubit(name, angles))).amplitudes
        assert np.array_equal(run_circuit(Circuit(n, [layer(name, angles)])).amplitudes, want), n


# angles whose matrices hold exact and signed zeros (+-0 gives the identity), and any others
layer_angle = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([math.pi, -math.pi, 2 * math.pi]),
                        st.floats(-7.0, 7.0))


@st.composite
def layers_and_states(draw):
    """A rotation kind, per-row angles and a (B, 2^n) stack of amplitudes; B = 1
    stands for a single state.  Scattered zeros and one qubit's half of the
    register are +-0 in each part, so a qubit at angle +-0 carries signed zeros
    to the output."""
    name = draw(st.sampled_from(["h", "ry", "rx"]))
    n, rows = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    dtype = complex if name == "rx" else draw(st.sampled_from([np.float64, complex]))
    angles = [[None] * n if name == "h" else draw(st.lists(layer_angle, min_size=n, max_size=n))
              for _ in range(rows)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(rows, 2**n)).astype(dtype)
    if dtype is complex:
        amps.imag = rng.normal(size=(rows, 2**n))
    zero = (rng.random((rows, 2**n)) < 0.2) | (bit(n, int(rng.integers(n))) == rng.integers(2))
    for part in (amps.real, amps.imag) if dtype is complex else (amps,):
        part[zero] = np.where(rng.random((rows, 2**n)) < 0.5, -0.0, 0.0)[zero]
    amps[~amps.any(axis=1), 0] = 1.0  # every row has a norm
    return name, angles, amps / np.linalg.norm(amps, axis=1, keepdims=True)


@settings(deadline=None, max_examples=150)
@given(layers_and_states())
def test_layer_kernel_equals_the_per_qubit_steps_byte_for_byte(case):
    """A layer, on one state or a stack (one row of angles per state), its single-qubit gates,
    and its product state from |0...0> carry the bytes of the per-qubit 2x2 steps (`tobytes`,
    so signed zeros count)."""
    name, angles, amps = case
    want = amps.copy()
    rotate_per_qubit(want, name, angles)
    n = len(angles[0])
    assert run_stack(Circuit(n, [layer(name, angles)]), amps).tobytes() == want.tobytes()
    for row, row_angles, start in zip(want, angles, amps):
        for gates in ([layer(name, row_angles)], per_qubit(name, row_angles)):
            assert run_circuit(Circuit(n, gates), StateVector(n, start)).amplitudes.tobytes() == row.tobytes()
    assert layer_states(name, angles).tobytes() == product_states(name, angles).tobytes()


@pytest.mark.parametrize("name", ["ry", "rx"])
def test_layer_kernel_at_twenty_qubits(name, rng):
    angles = rng.uniform(-np.pi, np.pi, 20).tolist()
    amps = rng.normal(size=2**20) + (1j * rng.normal(size=2**20) if name == "rx" else 0.0)
    amps /= np.linalg.norm(amps)
    want = amps.copy()
    for q, angle in enumerate(angles):
        apply_matrix(want, q, _entries(name, angle))
    assert run_circuit(Circuit(20, [layer(name, angles)]), StateVector(20, amps)).amplitudes.tobytes() == want.tobytes()


def test_product_state_start_at_twenty_qubits(rng):
    angles = rng.uniform(-np.pi, np.pi, 20).tolist()
    want = run_circuit(Circuit(20, per_qubit("ry", angles))).amplitudes
    assert np.array_equal(run_circuit(Circuit(20, [layer("ry", angles)])).amplitudes, want)


def test_one_qubit_layers_match_closed_forms():
    c, s = math.cos(0.35), math.sin(0.35)
    assert np.array_equal(run_circuit(Circuit(1, [layer("ry", [0.7])])).amplitudes, [c, s])
    assert np.array_equal(run_circuit(Circuit(1, [layer("rx", [0.7])])).amplitudes, [c, -1j * s])
    r = 1 / math.sqrt(2)
    assert np.array_equal(run_circuit(Circuit(1, [layer("h", [None])])).amplitudes, [r, r])


@given(st.integers(1, 6), st.integers(1, 8))
def test_wrong_size_layer_is_rejected(n, size):
    gate = layer("ry", [0.3] * size)
    if size == n:
        assert abs(np.linalg.norm(run_circuit(Circuit(n, [gate])).amplitudes) - 1.0) < 1e-12
        return
    with pytest.raises(InvalidGateError):
        Circuit(n, [gate])


def test_rotation_gates_check_their_qubits_and_angles():
    assert layer("ry", np.array([0.1, 0.2])).angles == ((0.1, 0.2),) and ry(2, 1).angles == (1.0,)
    for qubits, angles in [((0,), ()), ((), ()), ((0, 1), (0.1, 0.2)), ((0,), (0.1, 0.2))]:
        with pytest.raises(InvalidGateError):
            Gate("ry", qubits, angles)
    for name, angles in [("h", (0.1,)), ("ry", (None,)), ("rx", (0.1, None)), ("layer", (0.1,))]:
        with pytest.raises(InvalidGateError):
            Gate(name, (), angles)
    with pytest.raises(InvalidGateError):
        Gate("ry", (-1,), (0.1,))
    with pytest.raises(InvalidGateError):
        Gate("cnot", (0, 1), (0.1,))
    for name in ("rz", "cz"):  # tests build these as diags; the package runs neither
        with pytest.raises(InvalidGateError, match="unknown gate"):
            Gate(name, (0,), (0.1,))
    with pytest.raises(InvalidGateError):
        Gate("diag", (), (0.1,), np.ones(4))  # a diag takes no angle


def test_package_keeps_only_the_gate_kinds_it_runs():
    """Every gate kind is emitted by an ansatz build or the published two-qubit circuit."""
    ising = IsingModel(3, np.ones(3), np.triu(np.ones((3, 3)), 1))
    circuits = [
        build_circuit(AnsatzSpec("vqe", n=3, p=1), np.zeros(6)),
        build_circuit(AnsatzSpec("qaoa", n=3, p=1, ising=ising), np.zeros(2)),
        fixtures.two_qubit_circuit(0.3),
    ]
    assert {g.name for c in circuits for g in c.gates} == set(GATE_NAMES)
    assert GATE_NAMES == ("ry", "rx", "h", "cnot", "diag")


def test_gates_compare_by_identity():
    """Gates that differ only in their arrays are different gates."""
    assert layer("ry", [0.1]) != layer("ry", [0.2])
    assert diag(np.ones(4)) != diag(-np.ones(4))
    gate = ry(0, 0.5)
    assert gate == gate and gate != ry(0, 0.5)


def test_circuit_rejects_rows_that_disagree():
    """A gate holds one row, which every state of a stack takes, or one row per state."""
    stacked = layer("ry", [[0.1, 0.2], [0.3, 0.4]])
    assert stacked.rows == 2 and Circuit(2, [stacked, diag(np.ones(4)), layer("rx", [0.5, 0.6])]).rows == 2
    assert layer("ry", [[0.1, 0.2]]).angles == ((0.1, 0.2),) and diag(np.ones((1, 4))).diagonal.shape == (4,)
    with pytest.raises(InvalidGateError, match="rows"):
        Circuit(2, [stacked, diag(np.ones((3, 4)))])
    with pytest.raises(InvalidGateError, match="width 3"):
        Circuit(2, [diag(np.ones((2, 3)))])
    with pytest.raises(InvalidGateError, match=r"rows of \[2, 1\] angles do not fit n=2"):
        Circuit(2, [layer("ry", [[0.1, 0.2], [0.3]])])  # a short row
    with pytest.raises(InvalidGateError):
        Gate("ry", (0,), ((0.1,), (0.2,)))  # a single-qubit gate holds one row
    with pytest.raises(InvalidGateError):
        layer("h", [[None, None], [None, 0.1]])
    with pytest.raises(ValueError, match="run_stack"):
        run_circuit(Circuit(2, [stacked]))
    with pytest.raises(ValueError):
        run_stack(Circuit(2, [stacked]), np.eye(4)[:3])  # three states for two rows


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stack_rows_equal_their_own_circuits_byte_for_byte(n, rows, seed):
    """Row r of a stacked circuit, run on a stack, is its own one-row circuit run on row r."""
    rng = np.random.default_rng(seed)
    stacked, per_row = [], [[] for _ in range(rows)]
    for _ in range(8):
        kind, q = int(rng.integers(5)), int(rng.integers(n))
        if kind == 0:
            d = np.exp(1j * rng.uniform(-7, 7, (rows, 2**n)))
            gates = [diag(d)] + [diag(row) for row in d]
        elif kind == 1:
            name = str(rng.choice(["h", "ry", "rx"]))
            angles = [[None] * n if name == "h" else rng.uniform(-7, 7, n).tolist() for _ in range(rows)]
            gates = [layer(name, angles)] + [layer(name, row) for row in angles]
        elif kind == 2:
            gates = [diag(np.where(rng.random(2**n) < 0.5, -1, 1).astype(np.int8))] * (rows + 1)
        elif kind == 3:
            gates = [ry(q, rng.uniform(-7, 7))] * (rows + 1)
        else:
            gates = [cnot(q, (q + 1) % n)] * (rows + 1) if n > 1 else [h(q)] * (rows + 1)
        stacked.append(gates[0])
        for row, gate in zip(per_row, gates[1:]):
            row.append(gate)
    start = rng.normal(size=(rows, 2**n))
    start /= np.linalg.norm(start, axis=1, keepdims=True)
    circuit = Circuit(n, stacked)
    for initial in (None, start):
        got = run_stack(circuit, initial)
        assert got.shape == (rows if initial is not None or circuit.rows > 1 else 1, 2**n)  # |0...0> is one state
        for r, gates in enumerate(per_row):
            want = run_circuit(Circuit(n, gates), None if initial is None else StateVector(n, start[r]))
            assert got[min(r, len(got) - 1)].tobytes() == want.amplitudes.tobytes()


def test_real_amplitudes_stay_float64_and_others_turn_complex():
    assert StateVector(1, np.array([0.6, 0.8])).amplitudes.dtype == np.float64
    for amps in ([1, 0], np.array([0.6, 0.8], dtype=np.float32), [0.6 + 0j, 0.8]):
        assert StateVector(1, amps).amplitudes.dtype == complex
    a = np.array([0.6, -0.8])
    assert np.array_equal(probabilities(StateVector(1, a)), probabilities(StateVector(1, a.astype(complex))))
    assert probabilities(StateVector(1, a)).tolist() == [0.6 * 0.6, 0.8 * 0.8]


def test_real_gates_keep_a_real_state_real(rng):
    assert not any(g.is_complex for g in [layer("ry", [0.3, 0.4]), layer("h", [None]), ry(0, 0.3), h(1), cnot(0, 1)])
    assert not diag(np.array([1, -1], dtype=np.int8)).is_complex
    assert all(g.is_complex for g in [layer("rx", [0.3]), rx(0, 0.3), diag(np.ones(2) + 0j)])
    assert diag(np.ones((2, 2)) + 0j).is_complex and not layer("ry", [[0.1], [0.2]]).is_complex
    amps = rng.normal(size=8)
    gates = [h(0), ry(1, 0.3), layer("ry", [0.1, 0.2, 0.3]), diag(np.array([1, -1] * 4)), cz(3, 0, 2), cnot(2, 1)]
    out = run_circuit(Circuit(3, gates), StateVector(3, amps / np.linalg.norm(amps)))
    assert out.amplitudes.dtype == np.float64


def test_ry_then_rx_layer_promotes_exactly(rng):
    for n in range(1, 9):
        ry_angles, rx_angles = rng.uniform(-np.pi, np.pi, (2, n)).tolist()
        assert run_circuit(Circuit(n, [layer("ry", ry_angles)])).amplitudes.dtype == np.float64
        circuit = Circuit(n, [layer("ry", ry_angles), layer("rx", rx_angles)])
        got = run_circuit(circuit).amplitudes
        want = run_circuit(circuit, StateVector.zero(n)).amplitudes  # complex from the start
        assert got.dtype == complex and np.array_equal(got, want), n


def test_sign_diag_then_complex_diag_promotes_exactly(rng):
    n = 5
    amps = rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    phases = np.exp(-0.9j * rng.integers(-4, 5, 2**n))
    circuit = Circuit(n, [diag(np.where(rng.random(2**n) < 0.5, -1, 1).astype(np.int8)), diag(phases)])
    got = run_circuit(circuit, StateVector(n, amps)).amplitudes
    want = run_circuit(circuit, StateVector(n, amps.astype(complex))).amplitudes
    assert got.dtype == complex and np.array_equal(got, want)
