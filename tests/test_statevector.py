import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvarqopt import fixtures, statevector
from cvarqopt.ansatz import AnsatzSpec, build_circuit
from cvarqopt.hamiltonian import DiagonalHamiltonian, IsingModel
from cvarqopt.statevector import (BoundCircuit, StateVector, Step, _entries, _rotate, check_qubits, checked_state,
                                  run_circuit)
from gate_reference import (apply_matrix, bit, cnot, cz, diag, h, layer, product_state, rotate_per_qubit, run_reference,
                            rx, ry, rz, zero_state)

S2 = 1.0 / np.sqrt(2.0)


def test_hadamard_on_zero():
    np.testing.assert_allclose(run_reference(1, [h(0)]), [S2, S2], atol=1e-12)


def test_cz_identity_on_zero():
    out = run_circuit(BoundCircuit(2, (cz(2, 0, 1),)))
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
    out = run_circuit(BoundCircuit(3, ()))
    np.testing.assert_allclose(out.amplitudes, zero_state(3).amplitudes)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_parallel_hadamards_give_uniform(n):
    out = run_circuit(BoundCircuit(n, (layer("h", [None] * n),)))
    np.testing.assert_allclose(out.amplitudes, np.full(2**n, 1 / np.sqrt(2**n)), atol=1e-12)


def test_qubit0_is_most_significant_bit():
    # RY(pi) flips qubit 0, landing on basis index 2 of a 2-qubit register
    np.testing.assert_allclose(np.abs(run_reference(2, [ry(0, np.pi)])) ** 2, [0, 0, 1, 0], atol=1e-12)
    out = run_circuit(BoundCircuit(2, (layer("ry", [np.pi, 0.0]),)))
    np.testing.assert_allclose(out.probabilities, [0, 0, 1, 0], atol=1e-12)


def test_cnot_flips_target_when_control_set():
    out = run_reference(2, [ry(0, np.pi), cnot(0, 1)])
    np.testing.assert_allclose(np.abs(out) ** 2, [0, 0, 0, 1], atol=1e-12)


def test_probabilities_basics():
    np.testing.assert_allclose(zero_state(1).probabilities, [1, 0])
    plus = run_circuit(BoundCircuit(1, (layer("h", [None]),)))
    np.testing.assert_allclose(plus.probabilities, [0.5, 0.5], atol=1e-12)


def test_probabilities_reference_quarter_point():
    out = run_circuit(fixtures.two_qubit_circuit(np.pi / 2))
    np.testing.assert_allclose(out.probabilities, [0.25] * 4, atol=1e-12)
    assert abs(out.probabilities.sum() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "gate",
    [layer("h", [None]), layer("ry", [0.7]), layer("rx", [-1.3])],
    ids=lambda g: g.name,
)
def test_every_gate_matrix_is_unitary(gate):
    m = np.array(gate.matrices[0])
    np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_random_circuit_preserves_norm(n, rng):
    gates = []
    for _ in range(200):
        kind = rng.integers(5)
        q = int(rng.integers(n))
        q2 = int((q + 1 + rng.integers(n - 1)) % n)
        angles = rng.uniform(-np.pi, np.pi, n).tolist()
        gates.append(
            [layer("h", [None] * n), layer("ry", angles), layer("rx", angles), rz(n, q, angles[0]), cz(n, q, q2)][kind]
        )
    out = run_circuit(BoundCircuit(n, tuple(gates)))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_cz_is_symmetric(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    a = run_circuit(BoundCircuit(3, (cz(3, 0, 2),)), state)
    b = run_circuit(BoundCircuit(3, (cz(3, 2, 0),)), state)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_run_circuit_dimension_mismatch():
    with pytest.raises(ValueError):
        run_circuit(BoundCircuit(2, (layer("h", [None] * 2),)), zero_state(3))


def test_run_circuit_leaves_initial_state_untouched():
    """Snapshots of a state evolved layer by layer rely on this."""
    state = zero_state(2)
    before = state.amplitudes.copy()
    gates = [layer("h", [None] * 2), diag(np.array([1, -1, -1, 1])), layer("ry", [0.3, -0.4]), layer("rx", [0.0, 0.2])]
    assert not np.array_equal(run_circuit(BoundCircuit(2, tuple(gates)), state).amplitudes, before)
    np.testing.assert_array_equal(state.amplitudes, before)


def test_diag_gate_applies_vector_or_phases(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    phases = np.exp(-0.7j * rng.uniform(-2.0, 2.0, 8))
    assert np.array_equal(run_circuit(BoundCircuit(3, (diag(phases),)), state).amplitudes, state.amplitudes * phases)
    signs = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=np.int8)
    assert np.array_equal(run_circuit(BoundCircuit(3, (diag(signs),)), state).amplitudes, state.amplitudes * signs)


def per_qubit(name, angles):
    """The one-qubit gates a layer stands for, one per qubit, for `run_reference`."""
    make = {"h": lambda q, a: h(q), "ry": ry, "rx": rx}[name]
    return [make(q, a) for q, a in enumerate(angles)]


@pytest.mark.parametrize("name", ["h", "ry", "rx"])
def test_layer_equals_its_single_qubit_gates(name, rng):
    for n in range(1, 9):
        angles = [None] * n if name == "h" else rng.uniform(-np.pi, np.pi, n).tolist()
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        want = run_reference(n, per_qubit(name, angles), state)
        assert np.array_equal(run_circuit(BoundCircuit(n, (layer(name, angles),)), state).amplitudes, want), n
        # from |0...0> a leading layer starts from its product state instead
        want = run_reference(n, per_qubit(name, angles))
        assert np.array_equal(run_circuit(BoundCircuit(n, (layer(name, angles),))).amplitudes, want), n


# angles whose matrices hold exact and signed zeros (+-0 gives the identity), and any others
layer_angle = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([math.pi, -math.pi, 2 * math.pi]),
                        st.floats(-7.0, 7.0))


@st.composite
def layers_and_states(draw):
    """A rotation kind, its angles and a state.  Scattered zeros and one qubit's half of the
    register are +-0 in each part, so a qubit at angle +-0 carries signed zeros to the output."""
    name = draw(st.sampled_from(["h", "ry", "rx"]))
    n = draw(st.integers(1, 12))
    dtype = complex if name == "rx" else draw(st.sampled_from([np.float64, complex]))
    angles = [None] * n if name == "h" else draw(st.lists(layer_angle, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**n).astype(dtype)
    if dtype is complex:
        amps.imag = rng.normal(size=2**n)
    zero = (rng.random(2**n) < 0.2) | (bit(n, int(rng.integers(n))) == rng.integers(2))
    for part in (amps.real, amps.imag) if dtype is complex else (amps,):
        part[zero] = np.where(rng.random(2**n) < 0.5, -0.0, 0.0)[zero]
    if not amps.any():
        amps[0] = 1.0  # the state has a norm
    return name, angles, amps / np.linalg.norm(amps)


SIGNED_ZERO_RY = np.array([-0.0 + 0.0j, 0.533 - 0.846j])  # (-0.0)*v and -(0.0*v) differ here
SIGNED_ZERO_RX = np.array([0.6 - 0.0j, -0.0 + 0.0j, 0.0 - 0.0j, -0.0 - 0.8j])  # +-0 parts in the four-call rx step


def assert_layer_matches_the_per_qubit_steps(case):
    name, angles, amps = case
    want = amps.copy()
    rotate_per_qubit(want, name, angles)
    n = len(angles)
    assert run_circuit(BoundCircuit(n, (layer(name, angles),)), StateVector(n, amps)).amplitudes.tobytes() == want.tobytes()
    assert run_circuit(BoundCircuit(n, (layer(name, angles),))).amplitudes.tobytes() == product_state(name, angles).tobytes()


@settings(deadline=None, max_examples=150)
@given(layers_and_states())
@example(("ry", [0.0], SIGNED_ZERO_RY / np.linalg.norm(SIGNED_ZERO_RY)))
@example(("rx", [0.0, -0.0], SIGNED_ZERO_RX))
def test_layer_kernel_equals_the_per_qubit_steps_byte_for_byte(case):
    """A layer, and its product state from |0...0>, carry the bytes of the per-qubit 2x2 steps (`tobytes`,
    so signed zeros count).  The ry example is a complex state on which an ry step written as
    c*v0 - s*v1 would turn a zero's sign: that form is exact on float64 states only.  The rx
    example puts signed zeros through the four-call rx step."""
    assert_layer_matches_the_per_qubit_steps(case)


@pytest.mark.parametrize("block", [2**2, 2**3])
@settings(deadline=None, max_examples=150)
@given(layers_and_states())
@example(("rx", [math.pi, -0.0, 2 * math.pi], np.repeat(SIGNED_ZERO_RX, 2) / math.sqrt(2)))
def test_blocked_layer_kernel_equals_the_per_qubit_steps_byte_for_byte(block, case):
    """The same with `BLOCK` cut to 2^2 or 2^3, so that a state of 3 to 12 qubits takes
    the blocked path: leading steps, then each block's steps (at 2^3 an odd number of them,
    so each block ends in the scratch and is copied back)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "BLOCK", block)
        assert_layer_matches_the_per_qubit_steps(case)


@pytest.mark.parametrize("name", ["h", "ry", "rx"])
def test_layer_kernel_at_twenty_qubits(name, rng):
    """The blocked path at n=20 (six leading steps, 64 blocks) against the per-qubit steps,
    with scattered +-0 amplitudes whose signs must survive."""
    angles = [None] * 20 if name == "h" else rng.uniform(-np.pi, np.pi, 20).tolist()
    amps = rng.normal(size=2**20) + (1j * rng.normal(size=2**20) if name == "rx" else 0.0)
    for part in (amps.real, amps.imag) if name == "rx" else (amps,):
        zero = rng.random(2**20) < 0.1
        part[zero] = np.where(rng.random(2**20) < 0.5, -0.0, 0.0)[zero]
    amps /= np.linalg.norm(amps)
    want = amps.copy()
    for q, angle in enumerate(angles):
        apply_matrix(want, q, _entries(name, angle))
    assert run_circuit(BoundCircuit(20, (layer(name, angles),)), StateVector(20, amps)).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, dtype", [("rx", complex), ("ry", np.float64)])
def test_a_blocked_layer_holds_one_extra_state_buffer(name, dtype, rng):
    """At n=18 a layer's block scratch, four-call spare included, lies inside its second buffer:
    the peak of numpy's traced allocations rises by one state-sized buffer, and no more."""
    amps = rng.normal(size=2**18).astype(dtype)
    matrices = layer(name, rng.uniform(-np.pi, np.pi, 18).tolist()).matrices
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _rotate(amps, name, matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amps.nbytes <= peak - start <= amps.nbytes + 2**16


def test_product_state_start_at_twenty_qubits(rng):
    angles = rng.uniform(-np.pi, np.pi, 20).tolist()
    want = run_reference(20, per_qubit("ry", angles))
    assert np.array_equal(run_circuit(BoundCircuit(20, (layer("ry", angles),))).amplitudes, want)


def test_one_qubit_layers_match_closed_forms():
    c, s = math.cos(0.35), math.sin(0.35)
    assert np.array_equal(run_circuit(BoundCircuit(1, (layer("ry", [0.7]),))).amplitudes, [c, s])
    assert np.array_equal(run_circuit(BoundCircuit(1, (layer("rx", [0.7]),))).amplitudes, [c, -1j * s])
    r = 1 / math.sqrt(2)
    assert np.array_equal(run_circuit(BoundCircuit(1, (layer("h", [None]),))).amplitudes, [r, r])


def test_a_step_holds_a_name_a_layers_matrices_and_a_diagonal():
    assert Step._fields == ("name", "matrices", "diagonal")


def test_package_keeps_only_the_gate_kinds_it_runs():
    """Every gate kind is emitted by an ansatz build or the published two-qubit circuit."""
    ising = IsingModel(3, np.ones(3), np.triu(np.ones((3, 3)), 1))
    circuits = [
        build_circuit(AnsatzSpec("vqe", n=3, p=1), np.zeros(6)),
        build_circuit(AnsatzSpec("qaoa", n=3, p=1, ising=ising), np.zeros(2)),
        fixtures.two_qubit_circuit(0.3),
    ]
    assert {g.name for c in circuits for g in c.gates} == {"ry", "rx", "h", "diag"}


def test_real_amplitudes_stay_float64_and_others_turn_complex():
    assert StateVector(1, np.array([0.6, 0.8])).amplitudes.dtype == np.float64
    for amps in ([1, 0], np.array([0.6, 0.8], dtype=np.float32), [0.6 + 0j, 0.8]):
        assert StateVector(1, amps).amplitudes.dtype == complex
    a = np.array([0.6, -0.8])
    assert np.array_equal(StateVector(1, a).probabilities, StateVector(1, a.astype(complex)).probabilities)
    assert StateVector(1, a).probabilities.tolist() == [0.6 * 0.6, 0.8 * 0.8]


def test_real_gates_keep_a_real_state_real(rng):
    assert not any(g.is_complex for g in [layer("ry", [0.3, 0.4]), layer("h", [None])])
    assert not diag(np.array([1, -1], dtype=np.int8)).is_complex
    assert all(g.is_complex for g in [layer("rx", [0.3]), diag(np.ones(2) + 0j)])
    amps = rng.normal(size=8)
    gates = [layer("h", [None] * 3), layer("ry", [0.1, 0.2, 0.3]), diag(np.array([1, -1] * 4)), cz(3, 0, 2)]
    out = run_circuit(BoundCircuit(3, tuple(gates)), StateVector(3, amps / np.linalg.norm(amps)))
    assert out.amplitudes.dtype == np.float64


def test_ry_then_rx_layer_promotes_exactly(rng):
    for n in range(1, 9):
        ry_angles, rx_angles = rng.uniform(-np.pi, np.pi, (2, n)).tolist()
        assert run_circuit(BoundCircuit(n, (layer("ry", ry_angles),))).amplitudes.dtype == np.float64
        circuit = BoundCircuit(n, (layer("ry", ry_angles), layer("rx", rx_angles)))
        got = run_circuit(circuit).amplitudes
        want = run_circuit(circuit, zero_state(n)).amplitudes  # complex from the start
        assert got.dtype == complex and np.array_equal(got, want), n


def test_sign_diag_then_complex_diag_promotes_exactly(rng):
    n = 5
    amps = rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    phases = np.exp(-0.9j * rng.integers(-4, 5, 2**n))
    circuit = BoundCircuit(n, (diag(np.where(rng.random(2**n) < 0.5, -1, 1).astype(np.int8)), diag(phases)))
    got = run_circuit(circuit, StateVector(n, amps)).amplitudes
    want = run_circuit(circuit, StateVector(n, amps.astype(complex))).amplitudes
    assert got.dtype == complex and np.array_equal(got, want)


def test_a_state_owns_read_only_amplitudes_and_probabilities():
    for a in (np.array([0.6, 0.8]), np.array([0.6, 0.8j])):
        state = StateVector(1, a)
        a[0] = 1.0  # the caller's array was writeable, so the state holds a copy
        assert state.amplitudes.tolist() == [0.6, 0.8 if a.dtype == np.float64 else 0.8j]
        assert state.probabilities.tolist() == [0.6 * 0.6, 0.8 * 0.8]
        assert state.amplitudes is state.amplitudes and state.probabilities is state.probabilities
        for array in (state.amplitudes, state.probabilities):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    frozen = np.array([0.6, 0.8])
    frozen.flags.writeable = False
    assert StateVector(1, frozen).amplitudes is frozen  # nothing can write to it: no copy


def test_repeated_runs_of_the_fixture_circuit_start_from_the_same_state():
    """The fixture circuit's later gates work in place on its opening layer's product state: a second
    run starts from it unchanged."""
    first, second = (run_circuit(fixtures.two_qubit_circuit(0.7)) for _ in range(2))
    assert first.amplitudes.tobytes() == second.amplitudes.tobytes()
    np.testing.assert_allclose(first.amplitudes, fixtures.two_qubit_amplitudes(0.7), atol=1e-12)


def test_checked_state_takes_the_array_over_and_checks_its_norm():
    amps = np.array([S2, -S2])
    state = checked_state(1, amps)
    assert state.amplitudes is amps and not amps.flags.writeable
    off = r"1\.000000000(1999\d*|2)"  # a norm of 1 + 2e-10, as it rounds
    for bad, shown in [([math.nan, 0.0], "nan"), ([math.inf, 0.0], "inf"), ([1 + 2e-10, 0.0, 0.0, 0.0], off),
                       ([(1 + 2e-10) * S2, (1 + 2e-10) * S2 * 1j], off)]:
        with pytest.raises(FloatingPointError, match=f"^state norm drifted to {shown}$"):
            checked_state(int(math.log2(len(bad))), np.array(bad))
    checked_state(2, np.array([1 + 5e-11, 0.0, 0.0, 0.0]))  # within the tolerance


def test_a_read_only_view_of_a_writeable_array_is_copied():
    a = np.array([0.6, 0.8])
    v = a.view()
    v.flags.writeable = False
    s = StateVector(1, v)
    a[0] = 1.0  # the base stays writeable, so the state must not share it
    assert s.amplitudes.tolist() == [0.6, 0.8] and s.probabilities.tolist() == [0.6 * 0.6, 0.8 * 0.8]
    frozen = np.array([[0.6, 0.8], [0.8, 0.6]])
    frozen.flags.writeable = False
    row = frozen[1]
    assert StateVector(1, row).amplitudes is row  # nothing down the chain can write: no copy


def test_checked_state_takes_over_the_memory_a_row_views():
    stack = np.array([[S2, S2], [S2, -S2]])
    row = stack[1]
    state = checked_state(1, row)
    assert state.amplitudes is row and not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[1, 0] = 0.0


def test_qubit_counts_are_whole_numbers_stored_as_ints():
    assert check_qubits(2.0) == 2 and type(check_qubits(2.0)) is int
    ham = DiagonalHamiltonian(2.0, np.arange(4.0))
    assert ham.n == 2 and type(ham.n) is int
    assert type(StateVector.uniform(2.0).n) is int
    for bad in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="n takes integers"):
            DiagonalHamiltonian(bad, np.arange(4.0))
        with pytest.raises(ValueError, match="n takes integers"):
            check_qubits(bad)
    with pytest.raises(ValueError, match=r"qubit count must be in \[1, 20\], got 21"):
        check_qubits(21.0)


def test_a_state_checks_its_qubit_count():
    for n in (2.0, np.int64(2)):
        assert type(StateVector(n, np.array([1.0, 0, 0, 0])).n) is int
    for bad, amps, message in [(0, [1.0], r"in \[1, 20\], got 0"), (True, [1.0, 0], "n takes integers"),
                               (2.5, [1.0, 0, 0, 0], "n takes integers"), (21, [1.0, 0], "got 21")]:
        with pytest.raises(ValueError, match=message):
            StateVector(bad, np.array(amps))
