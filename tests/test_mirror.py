"""A QAOA circuit whose cost table is mirror-symmetric (table[j] == table[~j], as for every
field-free Ising model) runs from |0...0> on the half of the register with qubit 0 = 0 and is
mirrored into 2^n amplitudes at the end.  These tests check that the state carries the bytes of the
whole-register run, and that only a mirrored ranking takes that path."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rotated_sizes
from gate_reference import diag, full_diagonal, h, run_reference, rx
from cvarqopt import statevector
from cvarqopt.ansatz import AnsatzSpec, build_circuit, cost_phases, trial_state
from cvarqopt.flatness import needle_hamiltonian
from cvarqopt.hamiltonian import DiagonalHamiltonian, IsingModel, qubo_to_ising
from cvarqopt.problems import InstanceSpec, generate
from cvarqopt.statevector import BoundCircuit, Step, run_circuit

SPECIAL_ANGLES = (0.0, math.pi, -math.pi, 2 * math.pi, -0.0, 1e-300)
ANGLES = st.one_of(st.floats(-7, 7), st.sampled_from(SPECIAL_ANGLES))


def reference_state(ising: IsingModel, theta) -> np.ndarray:
    """The state built gate by gate: H on every qubit, then per layer exp(-i gamma * table) over the
    whole table and RX(2 beta) one qubit at a time."""
    n, p = ising.n, len(theta) // 2
    values, ranks = ising.ranking.values, ising.ranking.inverse
    gates = [h(q) for q in range(n)]
    for beta, gamma in zip(theta[:p], theta[p:]):
        gates += [diag(np.exp(-1j * gamma * values)[ranks]), *(rx(q, 2.0 * beta) for q in range(n))]
    return run_reference(n, gates)


def whole_register_state(spec: AnsatzSpec, theta) -> np.ndarray:
    """The built circuit with each cost diag expanded to its 2^n phases, so it runs on the whole register."""
    gates = tuple(Step("diag", None, full_diagonal(spec.n, g.diagonal)) if g.name == "diag" else g
                  for g in build_circuit(spec, theta).gates)
    return run_circuit(BoundCircuit(spec.n, gates)).amplitudes


@st.composite
def field_free_models(draw):
    """An Ising model with no field (entries +0.0 or -0.0) and couplings with ties or without."""
    n = draw(st.integers(1, 12))
    weights = st.one_of(st.integers(-3, 3).map(float), st.floats(-5, 5))
    Q = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            Q[i, k] = draw(weights)
    c = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    return IsingModel(n, c, Q)


@pytest.mark.parametrize("block", [statevector.BLOCK, 2**2, 2**3])
@settings(deadline=None, max_examples=60)
@given(field_free_models(), st.integers(1, 3).flatmap(lambda p: st.lists(ANGLES, min_size=2 * p, max_size=2 * p)))
def test_a_field_free_qaoa_state_equals_the_gate_by_gate_state(block, ising, theta):
    """At n = 1 to 12, and with `BLOCK` cut to 2^2 or 2^3 so that the half of 3 or more qubits takes
    the blocked layout, the half path gives the bytes of the gate-by-gate state."""
    assert ising.ranking.mirrored
    spec = AnsatzSpec("qaoa", n=ising.n, p=len(theta) // 2, ising=ising)
    assert all(g.diagonal.size == 2 ** (ising.n - 1) for g in build_circuit(spec, theta).gates if g.name == "diag")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "BLOCK", block)
        got = trial_state(spec, theta).amplitudes
    assert got.tobytes() == reference_state(ising, theta).tobytes()


@pytest.mark.parametrize("problem", ["maxcut", "partition"])
@pytest.mark.parametrize("n", [14, 15, 16, 17, 20])
def test_maxcut_and_partition_states_equal_the_whole_register_run(problem, n):
    """Both sides of the blocked layout: the half of n = 14 or 15 fits one block and the half of
    16 or more does not.  theta holds random angles in [-7, 7] and the special ones."""
    ising = qubo_to_ising(generate(InstanceSpec(problem, n, seed=n)))
    assert ising.ranking.mirrored
    rng = np.random.default_rng(n)
    depths = (1,) if n == 20 else (1, 2)
    for p in depths:
        spec = AnsatzSpec("qaoa", n=n, p=p, ising=ising)
        thetas = [rng.uniform(-7, 7, 2 * p), np.resize(SPECIAL_ANGLES, 2 * p), np.resize(SPECIAL_ANGLES[::-1], 2 * p)]
        for theta in thetas:
            assert trial_state(spec, theta).amplitudes.tobytes() == whole_register_state(spec, theta).tobytes()


def test_models_and_tables_are_classified_by_their_table(monkeypatch):
    """A field of 1e-300 on its own, portfolio and the needle have no mirror symmetry and take the
    whole-register path; a constant one-qubit table has it.  Under couplings of order one a 1e-300
    field rounds away, so that table is mirrored, and the half path still gives the bytes."""
    tiny_field = IsingModel(3, [1e-300, 0.0, 0.0], np.zeros((3, 3)))
    couplings = np.triu(np.ones((3, 3)), k=1)
    rounded_field = IsingModel(3, [1e-300, 0.0, 0.0], couplings)
    portfolio = qubo_to_ising(generate(InstanceSpec("portfolio", 6, seed=0)))
    constant = IsingModel(1, [0.0], [[0.0]])
    assert not tiny_field.ranking.mirrored and not portfolio.ranking.mirrored
    assert rounded_field.ranking.mirrored and constant.ranking.mirrored
    field_free = IsingModel(3, [0.0, 0.0, 0.0], couplings).ranking
    assert all(np.array_equal(a, b) for a, b in zip(rounded_field.ranking, field_free))
    for n in (1, 2, 5):
        assert not needle_hamiltonian(n).ranking.mirrored
        assert cost_phases(needle_hamiltonian(n).ranking, 0.7).size == 2**n
    assert DiagonalHamiltonian(1, [2.5, 2.5]).ranking.mirrored
    assert not DiagonalHamiltonian(1, [2.5, 3.5]).ranking.mirrored
    theta = [0.3, -1.2, 2.0, 0.9]
    for ising, half in ((tiny_field, False), (portfolio, False), (rounded_field, True), (constant, True)):
        sizes = rotated_sizes(monkeypatch)
        got = trial_state(AnsatzSpec("qaoa", n=ising.n, p=2, ising=ising), theta).amplitudes
        assert sizes == [2**ising.n // (2 if half else 1)] * 2
        assert got.tobytes() == reference_state(ising, theta).tobytes()
        monkeypatch.undo()


def test_a_half_diag_on_a_given_state_applies_all_its_phases(rng):
    """A run from a given state takes the whole-register path: the half cost diag is mirrored first."""
    ising = qubo_to_ising(generate(InstanceSpec("maxcut", 5, seed=2)))
    step = build_circuit(AnsatzSpec("qaoa", n=5, p=1, ising=ising), [0.0, 0.8]).gates[1]
    assert step.name == "diag" and step.diagonal.size == 2**4
    amps = rng.normal(size=2**5) + 1j * rng.normal(size=2**5)
    amps /= np.linalg.norm(amps)
    got = run_circuit(BoundCircuit(5, (step,)), statevector.StateVector(5, amps)).amplitudes
    assert got.tobytes() == (amps * full_diagonal(5, step.diagonal)).tobytes()
    table = ising.ranking.values[ising.ranking.inverse]
    assert np.array_equal(full_diagonal(5, step.diagonal), np.exp(-1j * 0.8 * table))
