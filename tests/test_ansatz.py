import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_qubo
from cvarqopt.ansatz import (
    ENTANGLEMENTS,
    AnsatzSpec,
    build_circuit,
    entangler_pairs,
    entangler_signs,
    evolve_states,
    qaoa_layer,
    trial_state,
)
from cvarqopt.hamiltonian import DiagonalHamiltonian, IsingModel, qubo_to_ising
from cvarqopt.statevector import Circuit, StateVector, diag, h, layer, probabilities, run_circuit, run_stack, ry
from gate_reference import cost_layer_gates, cz, rx, spin_cost


def gate_counts(circuit):
    counts = {}
    for g in circuit.gates:
        counts[g.name] = counts.get(g.name, 0) + 1
    return counts


def cz_reference_circuit(spec, theta):
    """The layered family compiled gate by gate: one RY per qubit, one CZ per entangler pair."""
    n = spec.n
    gates = [ry(q, theta[q]) for q in range(n)]
    for k in range(1, spec.p + 1):
        gates += [cz(n, a, b) for a, b in entangler_pairs(n, spec.entanglement)]
        gates += [ry(q, theta[k * n + q]) for q in range(n)]
    return Circuit(n, gates)


def test_layered_counts_three_qubits_depth_two():
    spec = AnsatzSpec("vqe", n=3, p=2)
    circ = build_circuit(spec, np.zeros(9))
    assert gate_counts(circ) == {"ry": 3, "diag": 2}


def test_ring_counts_six_qubits():
    spec = AnsatzSpec("vqe", n=6, p=1, entanglement="ring")
    circ = build_circuit(spec, np.zeros(12))
    assert gate_counts(circ) == {"ry": 2, "diag": 1}
    assert entangler_pairs(6, "ring") == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    signs = next(g.diagonal for g in circ.gates if g.name == "diag")
    np.testing.assert_array_equal(signs, entangler_signs(6, "ring"))
    # |110000> sits on the one ring pair (0, 1): a single CZ flips its sign
    assert signs[0b110000] == -1 and signs[0b101000] == 1


@pytest.mark.parametrize("entanglement", ["all-to-all", "ring"])
def test_sign_entangler_state_equals_cz_gates_bit_for_bit(entanglement):
    for n in range(1, 9):
        if entanglement == "ring" and n < 3:
            continue
        for p in range(4):
            spec = AnsatzSpec("vqe", n=n, p=p, entanglement=entanglement)
            theta = np.random.default_rng(100 * n + p).uniform(-np.pi, np.pi, spec.parameter_count)
            want = run_circuit(cz_reference_circuit(spec, theta)).amplitudes
            assert np.array_equal(trial_state(spec, theta).amplitudes, want), (n, p)


def test_alternating_state_equals_per_qubit_gates_bit_for_bit(rng):
    for n in range(1, 9):
        ising = qubo_to_ising(random_qubo(rng, n))
        values, ranks = ising.ranking.values, ising.ranking.inverse
        for p in range(1, 4):
            theta = rng.uniform(-np.pi, np.pi, 2 * p)
            gates = [h(q) for q in range(n)]
            for beta, gamma in zip(theta[:p], theta[p:]):
                gates += [diag(np.exp(-1j * gamma * values)[ranks]), *(rx(q, 2.0 * beta) for q in range(n))]
            want = run_circuit(Circuit(n, gates)).amplitudes
            got = trial_state(AnsatzSpec("qaoa", n=n, p=p, ising=ising), theta).amplitudes
            assert np.array_equal(got, want), (n, p)


def test_one_qubit_alternating_circuit_matches_closed_form():
    # exp(-i beta X) exp(-i gamma c Z) |+> for the one-spin model c * z
    ising = IsingModel(1, c=[0.8], Q=[[0.0]])
    beta, gamma = 0.3, -1.1
    plus = np.array([np.exp(-1j * gamma * 0.8), np.exp(1j * gamma * 0.8)]) / math.sqrt(2)
    mixer = np.array([[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]])
    got = trial_state(AnsatzSpec("qaoa", n=1, p=1, ising=ising), [beta, gamma]).amplitudes
    np.testing.assert_allclose(got, mixer @ plus, rtol=0, atol=1e-15)


def test_depth_zero_at_zero_angles_is_identity():
    for n in (1, 2, 5):
        spec = AnsatzSpec("vqe", n=n, p=0)
        out = trial_state(spec, np.zeros(n))
        np.testing.assert_allclose(out.amplitudes, StateVector.zero(n).amplitudes, atol=1e-12)


def test_depth_zero_pi_angle_flips_first_qubit():
    out = trial_state(AnsatzSpec("vqe", n=2, p=0), [np.pi, 0.0])
    np.testing.assert_allclose(probabilities(out), [0, 0, 1, 0], atol=1e-12)


def test_depth_zero_spans_all_basis_states():
    for j in range(4):
        theta = [np.pi * ((j >> 1) & 1), np.pi * (j & 1)]
        out = trial_state(AnsatzSpec("vqe", n=2, p=0), theta)
        assert probabilities(out)[j] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,p", [(2, 0), (3, 1), (6, 2), (10, 1), (16, 2)])
def test_layered_parameter_count(n, p):
    assert AnsatzSpec("vqe", n=n, p=p).parameter_count == n * (1 + p)


@pytest.mark.parametrize("n,p", [(2, 1), (6, 2), (10, 3)])
def test_alternating_parameter_count(n, p, rng):
    ising = qubo_to_ising(random_qubo(rng, n))
    assert AnsatzSpec("qaoa", n=n, p=p, ising=ising).parameter_count == 2 * p


def test_zero_angles_give_uniform_state(rng):
    ising = qubo_to_ising(random_qubo(rng, 4))
    spec = AnsatzSpec("qaoa", n=4, p=1, ising=ising)
    out = trial_state(spec, np.zeros(2))
    np.testing.assert_allclose(np.abs(out.amplitudes), 0.25, atol=1e-12)


def test_single_coupling_compiles_to_two_cnots_one_rz():
    ising = IsingModel(3, c=np.zeros(3), Q=[[0, 0.5, 0], [0, 0, 0], [0, 0, 0]])
    assert gate_counts(Circuit(3, cost_layer_gates(ising, 0.7))) == {"cnot": 2, "diag": 1}  # the RZ is a diag
    circ = build_circuit(AnsatzSpec("qaoa", n=3, p=1, ising=ising), [0.3, 0.7])
    assert gate_counts(circ) == {"h": 1, "rx": 1, "diag": 1}


def test_zero_coefficients_emit_no_gates():
    ising = IsingModel(4, c=np.zeros(4), Q=np.zeros((4, 4)))
    assert cost_layer_gates(ising, 1.3) == []


@pytest.mark.parametrize("n,p", [(4, 1), (6, 2)])
def test_dense_gate_count_scales_with_pairs(n, p, rng):
    q = random_qubo(rng, n)
    q = type(q)(n, q.b + 1.0, q.A + np.triu(np.ones((n, n)), 1))  # force dense terms
    ising = qubo_to_ising(q)
    pairs = np.count_nonzero(ising.Q)
    counts = gate_counts(Circuit(n, [g for _ in range(p) for g in cost_layer_gates(ising, 1.0)]))
    assert counts["cnot"] == 2 * pairs * p
    assert counts["diag"] == (pairs + np.count_nonzero(ising.c)) * p  # one RZ diag per term
    circ = build_circuit(AnsatzSpec("qaoa", n=n, p=p, ising=ising), np.ones(2 * p))
    assert gate_counts(circ) == {"h": 1, "rx": p, "diag": p}


def test_parameter_length_mismatch():
    with pytest.raises(ValueError):
        build_circuit(AnsatzSpec("vqe", n=3, p=1), np.zeros(5))
    ising = IsingModel(2, c=np.zeros(2), Q=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        build_circuit(AnsatzSpec("qaoa", n=2, p=2, ising=ising), np.zeros(3))


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec("vqe", n=3, p=-1)
    with pytest.raises(ValueError):
        AnsatzSpec("qaoa", n=3, p=0, ising=IsingModel(3, np.zeros(3), np.zeros((3, 3))))
    with pytest.raises(ValueError):
        AnsatzSpec("qaoa", n=3, p=1)  # missing model
    with pytest.raises(ValueError):
        AnsatzSpec("vqe", n=2, p=1, entanglement="ring")


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_cost_layer_equals_exact_phase_multiplication(n, rng):
    """Compiled cost layer == elementwise exp(-i*gamma*cost) up to global phase."""
    ising = qubo_to_ising(random_qubo(rng, n))
    gamma = float(rng.uniform(-np.pi, np.pi))
    pre = np.exp(1j * rng.uniform(0, 2 * np.pi, 2**n)) / math.sqrt(2**n)
    circ = Circuit(n, cost_layer_gates(ising, gamma))
    got = run_circuit(circ, StateVector(n, pre)).amplitudes
    want = pre * np.exp(-1j * gamma * spin_cost(ising))
    phase = got[np.argmax(np.abs(want))] / want[np.argmax(np.abs(want))]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(got, want * phase, atol=1e-9)


@pytest.mark.parametrize("n,p", [(2, 1), (5, 2), (8, 3)])
def test_qaoa_state_matches_gate_level_cost_layers(n, p, rng):
    """One diag(cost, gamma) per layer == H, cost_layer_gates and mixer gates, up to global phase."""
    ising = qubo_to_ising(random_qubo(rng, n))
    theta = rng.uniform(-np.pi, np.pi, 2 * p)
    gates = [h(q) for q in range(n)]
    for beta, gamma in zip(theta[:p], theta[p:]):
        gates += [*cost_layer_gates(ising, gamma), layer("rx", [2.0 * beta] * n)]
    want = run_circuit(Circuit(n, gates)).amplitudes
    got = trial_state(AnsatzSpec("qaoa", n=n, p=p, ising=ising), theta).amplitudes
    k = int(np.argmax(np.abs(want)))
    got = got * (want[k] / got[k]) / abs(want[k] / got[k])  # align the global phase
    assert np.abs(got - want).max() <= 1e-12


def test_probabilities_periodic_in_gamma_for_integer_values(rng):
    """For integer-valued objectives, gamma has period 2*pi/g with g the value gcd."""
    from cvarqopt.problems import InstanceSpec, generate

    qubo = generate(InstanceSpec("maxcut", 4, seed=3))
    ising = qubo_to_ising(qubo)
    spec = AnsatzSpec("qaoa", n=4, p=1, ising=ising)
    values = ising.ranking.values + ising.offset
    diffs = np.unique(np.round(values - values.min()).astype(int))
    g = int(np.gcd.reduce(diffs[diffs > 0]))
    beta, gamma = 0.4, 1.1
    p1 = probabilities(trial_state(spec, [beta, gamma]))
    p2 = probabilities(trial_state(spec, [beta, gamma + 2 * np.pi / g]))
    np.testing.assert_allclose(p1, p2, atol=1e-9)


def test_entangler_order_does_not_matter(rng):
    n = 5
    theta = rng.uniform(-np.pi, np.pi, size=2 * n)
    reference = trial_state(AnsatzSpec("vqe", n=n, p=1), theta)
    pairs = entangler_pairs(n, "all-to-all")
    for _ in range(3):
        rng.shuffle(pairs)
        gates = [ry(q, theta[q]) for q in range(n)]
        gates += [cz(n, a, b) for a, b in pairs]
        gates += [ry(q, theta[n + q]) for q in range(n)]
        out = run_circuit(Circuit(n, gates))
        np.testing.assert_allclose(out.amplitudes, reference.amplitudes, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 10), st.sampled_from([0, 1, 2]), st.sampled_from(ENTANGLEMENTS), st.integers(0, 2**32 - 1))
def test_vqe_float64_state_equals_complex_evolution(n, p, entanglement, seed):
    if entanglement == "ring" and n < 3:
        entanglement = "all-to-all"
    spec = AnsatzSpec("vqe", n=n, p=p, entanglement=entanglement)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, spec.parameter_count)
    got = trial_state(spec, theta).amplitudes
    want = run_circuit(build_circuit(spec, theta), StateVector.zero(n)).amplitudes
    assert got.dtype == np.float64 and want.dtype == complex
    assert np.array_equal(got, want)


def test_vqe_trial_state_is_float64_and_qaoa_complex(rng):
    spec = AnsatzSpec("vqe", n=6, p=2)
    assert trial_state(spec, rng.uniform(-np.pi, np.pi, spec.parameter_count)).amplitudes.dtype == np.float64
    spec = AnsatzSpec("qaoa", n=6, p=2, ising=qubo_to_ising(random_qubo(rng, 6)))
    assert trial_state(spec, rng.uniform(-np.pi, np.pi, 4)).amplitudes.dtype == complex


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(["vqe", "qaoa"]), st.integers(1, 10), st.integers(0, 3), st.sampled_from(ENTANGLEMENTS),
       st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_stacked_rows_equal_the_built_circuit_bit_for_bit(family, n, p, entanglement, rows, seed):
    """Each row of `evolve_states` is `run_circuit(build_circuit(spec, theta))` for its own spec and point;
    qaoa rows come from different instances."""
    if entanglement == "ring" and n < 3:
        entanglement = "all-to-all"
    rng = np.random.default_rng(seed)
    if family == "qaoa":
        specs = [AnsatzSpec("qaoa", n=n, p=max(p, 1), ising=qubo_to_ising(random_qubo(rng, n))) for _ in range(rows)]
    else:
        specs = [AnsatzSpec("vqe", n=n, p=p, entanglement=entanglement)] * rows
    thetas = [rng.uniform(-np.pi, np.pi, specs[0].parameter_count) for _ in range(rows)]
    stacked = evolve_states(specs, thetas)
    assert stacked.shape == (rows, 2**n)
    for spec, theta, row in zip(specs, thetas, stacked):
        want = run_circuit(build_circuit(spec, theta)).amplitudes
        assert row.dtype == want.dtype
        assert np.array_equal(row, want)


@settings(deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.one_of(  # with ties (few distinct values) or all distinct
            st.lists(st.integers(-3, 3).map(float), min_size=2**n, max_size=2**n),
            st.lists(st.floats(-50, 50), min_size=2**n, max_size=2**n, unique=True),
        ), min_size=1, max_size=4),
    )),
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_qaoa_cost_phases_equal_full_length_exp_bit_for_bit(case, gammas, seed):
    """`qaoa_layer`'s cost diag, gathered from one exp per distinct value, holds row r's
    exp(-1j * gammas[r] * table) bit for bit, and one row is a plain vector."""
    n, tables = case
    tables, gammas = np.array(tables), gammas[: len(tables)]
    cost_step, mixer = qaoa_layer([DiagonalHamiltonian(n, t).ranking for t in tables], n, [0.3] * len(tables), gammas)
    want = np.array([np.exp(-1j * gamma * t) for gamma, t in zip(gammas, tables)])
    assert np.array_equal(cost_step.diagonal, want if len(tables) > 1 else want[0])
    assert cost_step.rows == mixer.rows == len(tables)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(len(tables), 2**n)) + 1j * rng.normal(size=(len(tables), 2**n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    assert np.array_equal(run_stack(Circuit(n, [cost_step]), amps), amps * want)
