import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvarqopt import fixtures
from cvarqopt.statevector import (
    Circuit,
    InvalidGateError,
    StateVector,
    apply_gate,
    cnot,
    cz,
    diag,
    h,
    probabilities,
    run_circuit,
    rx,
    ry,
    rz,
)

S2 = 1.0 / np.sqrt(2.0)


def test_hadamard_on_zero():
    out = apply_gate(StateVector.zero(1), h(0))
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-12)


def test_cz_identity_on_zero():
    out = apply_gate(StateVector.zero(2), cz(0, 1))
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
    plus = apply_gate(StateVector.zero(1), h(0))
    np.testing.assert_allclose(probabilities(plus), [0.5, 0.5], atol=1e-12)


def test_probabilities_reference_quarter_point():
    out = run_circuit(fixtures.two_qubit_circuit(np.pi / 2))
    np.testing.assert_allclose(probabilities(out), [0.25] * 4, atol=1e-12)
    assert abs(probabilities(out).sum() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "gate",
    [h(0), ry(0, 0.7), rx(0, -1.3), rz(0, 2.9)],
    ids=lambda g: g.name,
)
def test_every_gate_matrix_is_unitary(gate):
    m = gate.matrix()
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
            [h(q), ry(q, angle), rx(q, angle), rz(q, angle), cz(q, q2), cnot(q, q2)][kind]
        )
    out = run_circuit(Circuit(n, gates))
    assert abs(out.norm() - 1.0) < 1e-10


def test_cz_is_symmetric(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    a = apply_gate(state, cz(0, 2))
    b = apply_gate(state, cz(2, 0))
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_gate_index_out_of_range():
    with pytest.raises(InvalidGateError):
        apply_gate(StateVector.zero(2), ry(2, 0.5))
    with pytest.raises(InvalidGateError):
        Circuit(2, [cz(0, 3)])


def test_control_equals_target_rejected():
    with pytest.raises(InvalidGateError):
        cnot(1, 1)


def test_run_circuit_dimension_mismatch():
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, [h(0)]), StateVector.zero(3))


def test_apply_gate_is_pure(rng):
    state = StateVector.zero(2)
    before = state.amplitudes.copy()
    apply_gate(state, h(0))
    np.testing.assert_array_equal(state.amplitudes, before)


@given(st.integers(1, 6), st.integers(1, 130))
def test_wrong_length_diag_is_rejected(n, length):
    gate = diag(np.ones(length))
    if length == 2**n:
        assert run_circuit(Circuit(n, [gate])).norm() == 1.0
        return
    with pytest.raises(InvalidGateError):
        Circuit(n, [gate])
    with pytest.raises(InvalidGateError):
        apply_gate(StateVector.zero(n), gate)


def test_diag_gate_applies_vector_or_phases(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    d = rng.uniform(-2.0, 2.0, 8)
    np.testing.assert_allclose(
        apply_gate(state, diag(d, 0.7)).amplitudes, state.amplitudes * np.exp(-0.7j * d), atol=1e-15
    )
    signs = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=np.int8)
    assert np.array_equal(apply_gate(state, diag(signs)).amplitudes, state.amplitudes * signs)


def test_diag_gate_keeps_a_read_only_copy():
    d = np.ones(4)
    gate = diag(d)
    d[0] = -1.0  # the caller's array stays its own
    assert gate.diagonal[0] == 1.0 and not gate.diagonal.flags.writeable
    with pytest.raises(InvalidGateError):
        diag(np.ones((2, 2)))
    with pytest.raises(InvalidGateError):
        diag(np.ones(4)).matrix()
