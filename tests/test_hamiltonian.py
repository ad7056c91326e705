import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_bitstrings, ising_value, qubo_value, random_qubo
from cvarqopt.hamiltonian import (
    DiagonalHamiltonian,
    IsingModel,
    QuboProblem,
    _spin_table,
    ising_to_hamiltonian,
    qubo_to_hamiltonian,
    qubo_to_ising,
)
from cvarqopt.problems import PROBLEM_NAMES, InstanceSpec, generate


def test_single_variable_transform():
    m = qubo_to_ising(QuboProblem(1, b=[2.0], A=[[0.0]]))
    np.testing.assert_allclose(m.c, [-1.0])
    np.testing.assert_allclose(m.Q, [[0.0]])
    assert m.offset == 1.0
    # x=0 (z=+1) -> 0, x=1 (z=-1) -> 2
    assert ising_value(m, [1.0]) == 0.0
    assert ising_value(m, [-1.0]) == 2.0


def test_zero_problem_maps_to_zero_model():
    m = qubo_to_ising(QuboProblem(3, b=np.zeros(3), A=np.zeros((3, 3))))
    assert m.offset == 0.0
    np.testing.assert_array_equal(m.c, np.zeros(3))
    np.testing.assert_array_equal(m.Q, np.zeros((3, 3)))


def test_four_variable_round_trip_is_exact(rng):
    q = random_qubo(rng, 4, integer=True)
    m = qubo_to_ising(q)
    for x in all_bitstrings(4):
        assert qubo_value(q, x) == ising_value(m, 1.0 - 2.0 * x)


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_float_round_trip_matches_to_machine_precision(n, rng):
    q = random_qubo(rng, n)
    m = qubo_to_ising(q)
    ham = ising_to_hamiltonian(m)
    xs = all_bitstrings(n)
    for j, x in enumerate(xs):
        z = 1.0 - 2.0 * x
        assert abs(qubo_value(q, x) - ising_value(m, z)) < 1e-10
        assert abs(qubo_value(q, x) - ham.table[j]) < 1e-10


def test_single_spin_hamiltonian():
    ham = ising_to_hamiltonian(IsingModel(1, c=[1.0], Q=[[0.0]]))
    np.testing.assert_array_equal(ham.table, [1.0, -1.0])


def test_composed_single_variable_hamiltonian():
    ham = qubo_to_hamiltonian(QuboProblem(1, b=[2.0], A=[[0.0]]))
    np.testing.assert_array_equal(ham.table, [0.0, 2.0])


@pytest.mark.parametrize("n", [2, 4, 7])
def test_diagonal_sums_to_offset_times_dimension(n, rng):
    m = qubo_to_ising(random_qubo(rng, n, integer=True))
    ham = ising_to_hamiltonian(m)
    assert ham.table.sum() == pytest.approx(2**n * m.offset, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_diagonal_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        DiagonalHamiltonian(2, [0.0, bad, 1.0, 2.0])


@pytest.mark.parametrize("c0,offset", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf)])
def test_ising_energies_that_are_not_finite_are_rejected(c0, offset):
    with pytest.raises(ValueError, match="finite"):
        ising_to_hamiltonian(IsingModel(2, [c0, 0.0], np.zeros((2, 2)), offset))


@pytest.mark.parametrize("n", [0, -1, 21])
def test_diagonal_rejects_qubit_count_out_of_range(n):
    with pytest.raises(ValueError, match="qubit count"):
        DiagonalHamiltonian(n, [1.0])


def test_triangle_cut_values():
    from cvarqopt.problems import InstanceSpec, generate

    tri = generate(InstanceSpec("maxcut", 3, 0, {"edges": [[0, 1], [1, 2], [0, 2]]}))
    ham = qubo_to_hamiltonian(tri)
    # any single-vertex cut severs two unit edges
    for j in (0b100, 0b010, 0b001):
        assert ham.table[j] == -2.0
    assert ham.table[0] == 0.0


def test_json_round_trips(rng):
    q = random_qubo(rng, 4)
    q2 = QuboProblem.from_json(q.to_json())
    assert q2.n == q.n and q2.const == q.const
    np.testing.assert_array_equal(q.b, q2.b)
    np.testing.assert_array_equal(q.A, q2.A)


def test_ising_requires_strict_upper_triangle():
    with pytest.raises(ValueError):
        IsingModel(2, c=[0.0, 0.0], Q=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        IsingModel(2, c=[0.0, 0.0], Q=[[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad,message", [(True, "n takes integers"), (1.5, "n takes integers"), ("1", "n takes integers"),
                                         (0, "n must be at least 1, got 0"), (-1, "n must be at least 1, got -1")])
def test_a_qubo_checks_its_size(bad, message):
    """As `IsingModel` does: a bool would be stored as n and written to JSON as `true`."""
    with pytest.raises(ValueError, match=message):
        QuboProblem(bad, [1.0], [[1.0]])
    with pytest.raises(ValueError, match=message):  # an instance file is read without truncating its n
        QuboProblem.from_json(json.dumps({"n": bad, "b": [1.0], "A": [[1.0]]}))
    qubo = QuboProblem(2.0, np.zeros(2), np.eye(2))
    assert qubo.n == 2 and type(qubo.n) is int and '"n": 2,' in qubo.to_json()


def test_an_ising_model_checks_its_size():
    model = IsingModel(2.0, np.zeros(2), np.zeros((2, 2)))
    assert model.n == 2 and type(model.n) is int and model.ranking.values.tolist() == [0.0]
    assert IsingModel(21, np.zeros(21), np.zeros((21, 21))).n == 21  # no upper bound: it may still be ranked
    for bad, message in [(True, "n takes integers"), (1.5, "n takes integers"), (0, "n must be at least 1, got 0"),
                         (-1, "n must be at least 1, got -1")]:
        with pytest.raises(ValueError, match=message):
            IsingModel(bad, np.zeros(1), np.zeros((1, 1)))


def test_table_agrees_with_model_value(rng):
    m = qubo_to_ising(random_qubo(rng, 5))
    ham = ising_to_hamiltonian(m)
    for j, x in enumerate(all_bitstrings(5)):
        assert ham.table[j] == pytest.approx(ising_value(m, 1.0 - 2.0 * x), abs=1e-12)


def assert_ranks_shifted_table(ising):
    """The Hamiltonian's ranking equals ranking offset + the model's cost table from scratch."""
    got = ising_to_hamiltonian(ising).ranking
    values, inverse = np.unique(ising.offset + _spin_table(ising.n, ising.c, ising.Q), return_inverse=True)
    assert np.array_equal(got.values, values) and np.array_equal(got.inverse, inverse)
    assert np.array_equal(got.ground, np.flatnonzero(inverse == 0))
    assert got.inverse.dtype == np.min_scalar_type(values.size - 1)


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
@pytest.mark.parametrize("n", [6, 9, 12])
def test_derived_ranking_equals_ranking_the_shifted_table(problem, n):
    assert_ranks_shifted_table(qubo_to_ising(generate(InstanceSpec(problem, n, seed=n))))


@settings(deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([0.0, 1e-17, -3e-16, 0.25, 1.0, 2.5]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 1e-17, 0.5, -0.75]), min_size=n * n, max_size=n * n),
    )),
    st.sampled_from([0.0, 1.0, -7.0, 1e16, -3e15, 0.1]),
)
def test_derived_ranking_merges_values_the_offset_rounds_together(model, offset):
    n, c, q = model
    ising = IsingModel(n, c, np.triu(np.reshape(q, (n, n)), k=1), offset)
    assert_ranks_shifted_table(ising)


def test_offset_that_rounds_two_values_together_merges_them():
    ising = IsingModel(1, c=[1e-17], Q=[[0.0]], offset=1.0)  # cost values -1e-17 and 1e-17
    assert ising.ranking.values.size == 2
    ham = ising_to_hamiltonian(ising)
    assert ham.ranking.values.tolist() == [1.0] and ham.ranking.inverse.tolist() == [0, 0]
    assert ham.ranking.ground.tolist() == [0, 1]
    assert_ranks_shifted_table(ising)


def test_ising_keeps_its_cost_diagonal_as_a_ranking():
    ising = qubo_to_ising(generate(InstanceSpec("maxcut", 10, seed=1)))
    assert ising.ranking is ising.ranking
    table = _spin_table(ising.n, ising.c, ising.Q)
    assert np.array_equal(table, ising.ranking.values[ising.ranking.inverse])
    assert all(not a.flags.writeable for a in ising.ranking[:3])  # the arrays; then the mirrored flag


def test_a_model_and_a_qubo_keep_read_only_copies_of_the_callers_arrays():
    """Writing the arrays a model was built from changes neither the model nor its cached ranking."""
    c, Q = np.zeros(3), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    model = IsingModel(3, c, Q)
    assert model.ranking.values.tolist() == [-6.0, -2.0, 2.0, 6.0] and model.ranking.mirrored
    c[0], Q[0, 1] = 5.0, 9.0
    assert model.c.tolist() == [0.0, 0.0, 0.0] and model.Q[0, 1] == 1.0
    assert model.ranking.values.tolist() == [-6.0, -2.0, 2.0, 6.0] and model.ranking.mirrored
    assert ising_to_hamiltonian(model).ranking.values.tolist() == [-6.0, -2.0, 2.0, 6.0]
    assert not IsingModel(3, c, Q).ranking.mirrored  # what the written arrays would have given
    b, A = np.array([1.0, -1.0]), np.eye(2)
    qubo = QuboProblem(2, b, A)
    b[0], A[1, 1] = 7.0, 3.0
    assert qubo.b.tolist() == [1.0, -1.0] and qubo.A.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    for owner, name in ((model, "c"), (model, "Q"), (qubo, "b"), (qubo, "A")):
        array = getattr(owner, name)
        assert array.dtype == np.float64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
