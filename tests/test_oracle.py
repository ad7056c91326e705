import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_cvar_landscape
from cvarqopt import fixtures
from cvarqopt.flatness import needle_hamiltonian
from cvarqopt.hamiltonian import DiagonalHamiltonian, IsingModel, ising_to_hamiltonian
from cvarqopt.oracle import enumerate_hamiltonian, ground_value
from cvarqopt.statevector import run_circuit


def test_reference_diagonal():
    truth = enumerate_hamiltonian(DiagonalHamiltonian(2, [0.0, 1.0, 1.0, 2.0]))
    assert truth.min_value == 0.0
    assert truth.minimizers == (0,)
    assert truth.histogram == {0.0: 1, 1.0: 2, 2.0: 1}


def test_constant_diagonal_has_all_minimizers():
    truth = enumerate_hamiltonian(DiagonalHamiltonian(3, np.full(8, 2.5)))
    assert truth.minimizers == tuple(range(8))
    assert truth.histogram == {2.5: 8}


def test_needle_has_single_minimizer():
    truth = enumerate_hamiltonian(needle_hamiltonian(5, index=17))
    assert truth.minimizers == (17,)
    assert truth.min_value == 0.0
    assert truth.histogram == {0.0: 1, 1.0: 31}


def test_enumeration_consistent_with_pointwise_evaluation(rng):
    table = rng.integers(-5, 6, size=16).astype(float)
    ham = DiagonalHamiltonian(4, table)
    truth = enumerate_hamiltonian(ham)
    for j in range(16):
        v = float(ham.table[j])
        assert truth.histogram[v] >= 1
        if v == truth.min_value:
            assert j in truth.minimizers
    assert sum(truth.histogram.values()) == 16
    assert ground_value(ham) == truth.min_value


def test_size_cap():
    with pytest.raises(ValueError):
        enumerate_hamiltonian(DiagonalHamiltonian(21, np.zeros(2**21)))


def landscape(alpha, thetas):
    return exact_cvar_landscape(
        lambda t: run_circuit(fixtures.two_qubit_circuit(float(t))),
        fixtures.two_qubit_hamiltonian(),
        alpha,
        thetas,
    )


def test_landscape_mean_is_flat():
    thetas = np.linspace(0, 2 * np.pi, 60)
    np.testing.assert_allclose(landscape(1.0, thetas), 1.0, atol=1e-12)


def test_landscape_half_tail_at_pi():
    assert landscape(0.5, [np.pi])[0] == pytest.approx(1.0, abs=1e-12)


def test_landscape_tiny_alpha_at_zero():
    assert landscape(0.01, [0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_landscape_matches_closed_form(rng):
    thetas = rng.uniform(0, 2 * np.pi, size=20)
    for alpha in (0.05, 0.25, 0.5, 0.9, 1.0):
        want = [fixtures.two_qubit_cvar(t, alpha) for t in thetas]
        np.testing.assert_allclose(landscape(alpha, thetas), want, atol=1e-12)


def test_landscape_grid_cap():
    with pytest.raises(ValueError):
        exact_cvar_landscape(
            lambda t: run_circuit(fixtures.two_qubit_circuit(float(t))),
            fixtures.two_qubit_hamiltonian(),
            0.5,
            np.zeros(101),
            max_points=100,
        )


def test_landscape_accepts_ansatz_spec(rng):
    from cvarqopt.ansatz import AnsatzSpec
    from cvarqopt.hamiltonian import qubo_to_hamiltonian
    from cvarqopt.problems import InstanceSpec, generate

    qubo = generate(InstanceSpec("maxcut", 3, 1))
    ham = qubo_to_hamiltonian(qubo)
    spec = AnsatzSpec("vqe", n=3, p=0)
    grid = [rng.uniform(-np.pi, np.pi, 3) for _ in range(5)]
    vals = exact_cvar_landscape(spec, ham, 0.5, grid)
    assert vals.shape == (5,)
    assert np.all(vals >= ground_value(ham) - 1e-12)


def test_landscape_rejects_non_state_callable():
    with pytest.raises(TypeError):
        exact_cvar_landscape(
            lambda t: np.zeros(4), fixtures.two_qubit_hamiltonian(), 0.5, [0.0]
        )


def table_ground_truth(ham):
    """The ground truth scanned off the rebuilt 2^n table, with its own ranking."""
    table = ham.table
    values, counts = np.unique(table, return_counts=True)
    return (float(table.min()), tuple(int(j) for j in np.flatnonzero(table == table.min())),
            list(zip(values.tolist(), counts.tolist())))


@st.composite
def hamiltonians(draw):
    """A table with ties, or an Ising model whose offset may round distinct energies into one value."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return DiagonalHamiltonian(n, draw(st.lists(st.integers(-3, 3).map(float), min_size=2**n, max_size=2**n)))
    c = draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n))
    Q = np.triu(np.array(draw(st.lists(st.integers(-2, 2).map(float), min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    offset = draw(st.sampled_from([0.0, -1.5, 2.0**52, 2.0**53, 3e16]))  # ulps of 1, 2 and 4 merge energies
    return ising_to_hamiltonian(IsingModel(n, c, Q, offset))


@settings(deadline=None, max_examples=150)
@given(hamiltonians())
def test_ground_truth_read_off_the_ranking_equals_the_table_scan(ham):
    min_value, minimizers, histogram = table_ground_truth(ham)
    truth = enumerate_hamiltonian(ham)
    assert truth.min_value == min_value == ground_value(ham)
    assert truth.minimizers == minimizers
    assert list(truth.histogram.items()) == histogram
