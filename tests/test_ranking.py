"""Properties of the value ranking a DiagonalHamiltonian keeps and of the
objectives built on it, checked against brute-force references.

Tables are drawn from a few repeated values, so ties and degenerate minima
are common, and amplitudes are often exactly zero, so some values carry no
probability at all.
"""
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ising_value, qubo_value
from cvarqopt.hamiltonian import DiagonalHamiltonian, QuboProblem, qubo_to_hamiltonian, qubo_to_ising
from cvarqopt.objective import (
    SUPPORT_EPS,
    OutcomeDistribution,
    best_support_bitstring,
    cvar_exact,
    cvar_from_samples,
    outcome_distribution,
    overlap_with_optimum,
)
from cvarqopt.oracle import enumerate_hamiltonian
from cvarqopt.problems import InstanceSpec, generate
from cvarqopt.statevector import StateVector

_VALUE = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)
_COMPONENT = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    return DiagonalHamiltonian(n, draw(st.lists(st.sampled_from(pool), min_size=2**n, max_size=2**n)))


@st.composite
def cases(draw):
    """A Hamiltonian and a normalized state on the same qubits."""
    ham = draw(hamiltonians())
    size = 2**ham.n
    re = np.array(draw(st.lists(_COMPONENT, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(_COMPONENT, min_size=size, max_size=size)))
    amps = re + 1j * im
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps, norm = np.eye(size)[draw(st.integers(0, size - 1))].astype(complex), 1.0
    return ham, StateVector(ham.n, amps / norm)


@settings(deadline=None)
@given(hamiltonians())
def test_ranking_reproduces_the_table(ham):
    r = ham.ranking
    np.testing.assert_array_equal(r.values[r.inverse], ham.table)
    assert np.all(np.diff(r.values) > 0)


@settings(deadline=None)
@given(hamiltonians())
def test_ranking_counts_and_ground_match_the_oracle(ham):
    truth = enumerate_hamiltonian(ham)
    r = ham.ranking
    counts = np.bincount(r.inverse, minlength=r.values.size)
    assert dict(zip(r.values.tolist(), counts.tolist())) == truth.histogram
    assert tuple(r.ground.tolist()) == truth.minimizers


@settings(deadline=None)
@given(cases())
def test_outcome_distribution_matches_dict_accumulation(case):
    ham, state = case
    merged: dict[float, float] = {}
    for value, p in zip(ham.table.tolist(), state.probabilities.tolist()):
        merged[value] = merged.get(value, 0.0) + p
    support = sorted((v, p) for v, p in merged.items() if p > 0.0)
    dist = outcome_distribution(state, ham)
    np.testing.assert_array_equal(dist.values, [v for v, _ in support])
    np.testing.assert_array_equal(dist.probs, [p for _, p in support])


@settings(deadline=None)
@given(cases())
def test_overlap_matches_brute_force_sum(case):
    ham, state = case
    table, probs = ham.table.tolist(), state.probabilities.tolist()
    expected = sum(p for v, p in zip(table, probs) if v == min(table))
    # at most 32 terms of size <= 1, summed in a different order
    assert overlap_with_optimum(state, ham) == pytest.approx(expected, rel=0, abs=1e-14)


@settings(deadline=None)
@given(cases())
def test_best_support_bitstring_matches_brute_force(case):
    ham, state = case
    table, probs = ham.table.tolist(), state.probabilities.tolist()
    want = min((v, j) for j, (v, p) in enumerate(zip(table, probs)) if p > SUPPORT_EPS)
    assert best_support_bitstring(state, ham) == (want[1], want[0])


@settings(deadline=None)
@given(cases())
def test_cvar_at_alpha_one_is_the_mean(case):
    ham, state = case
    dist = outcome_distribution(state, ham)
    scale = max(1.0, float(np.abs(dist.values).max()))
    assert cvar_exact(dist, 1.0) == pytest.approx(dist.values @ dist.probs, rel=0, abs=1e-12 * scale)


@settings(deadline=None)
@given(cases(), st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=6))
def test_cvar_is_nondecreasing_in_alpha(case, alphas):
    ham, state = case
    dist = outcome_distribution(state, ham)
    scale = max(1.0, float(np.abs(dist.values).max()))
    curve = [cvar_exact(dist, a) for a in sorted(alphas)]
    assert all(lo <= hi + 1e-12 * scale for lo, hi in zip(curve, curve[1:]))


@st.composite
def distributions(draw):
    values = sorted(set(draw(st.lists(_VALUE, min_size=1, max_size=6))))
    weights = np.array(draw(st.lists(st.floats(1e-12, 1.0), min_size=len(values), max_size=len(values))))
    return OutcomeDistribution(np.array(values), weights / weights.sum())


@settings(deadline=None)
@given(distributions(), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
@example(OutcomeDistribution(np.array([0.0, 100.0]), np.array([1e-9, 1.0 - 1e-9])), 1.0)
def test_cvar_below_the_first_probability_is_the_minimum(dist, fraction):
    alpha = dist.probs[0] * fraction
    assume(alpha >= 1e-300)  # v * alpha / alpha loses v's low bits once alpha is subnormal
    ulp = np.spacing(max(1.0, float(np.abs(dist.values).max())))
    assert abs(cvar_exact(dist, alpha) - dist.values[0]) <= 4 * ulp


@settings(deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=300), st.floats(0.0, 1.0))
def test_sampled_cvar_below_one_shot_is_the_minimum_sample(samples, fraction):
    values = np.array(samples)
    alpha = fraction / values.size
    assume(alpha > 0.0)
    assert cvar_from_samples(values, alpha) == values.min()


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
    st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n),
    st.floats(-10.0, 10.0),
)))
def test_qubo_ising_and_table_agree_at_every_basis_state(problem):
    n, b, a, const = problem
    qubo = QuboProblem(n, b, np.reshape(a, (n, n)), const)
    ising = qubo_to_ising(qubo)
    table = qubo_to_hamiltonian(qubo).table
    scale = 1.0 + abs(const) + np.abs(b).sum() + np.abs(a).sum()
    for j in range(2**n):
        x = np.array([(j >> (n - 1 - i)) & 1 for i in range(n)], dtype=float)
        want = qubo_value(qubo, x)
        assert ising_value(ising, 1.0 - 2.0 * x) == pytest.approx(want, rel=0, abs=1e-13 * scale)
        assert table[j] == pytest.approx(want, rel=0, abs=1e-13 * scale)


def test_ranking_is_computed_once_and_survives_pickling():
    ham = DiagonalHamiltonian(2, [2.0, 0.0, 2.0, 0.0])
    assert ham.ranking is ham.ranking
    back = pickle.loads(pickle.dumps(ham))
    for got, want in zip(back.ranking, ham.ranking):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        ham.ranking.inverse[0] = 1  # the ranking is the Hamiltonian's only copy of its values


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(_VALUE.map(lambda v: v + 0.0), min_size=2**n, max_size=2**n)  # v + 0.0: no -0.0
))
def test_table_is_bit_equal_to_the_input(values):
    table = np.array(values)
    ham = DiagonalHamiltonian(int(np.log2(table.size)), table)
    assert ham.table.tobytes() == table.tobytes()  # the oracle tests read an independent copy


@settings(deadline=None)
@given(hamiltonians())
def test_table_is_read_only_and_survives_pickling(ham):
    back = pickle.loads(pickle.dumps(ham))
    assert back.table.tobytes() == ham.table.tobytes()
    for h in (ham, back):
        with pytest.raises(ValueError):
            h.table[0] = 1.0


def test_maxcut_hamiltonian_keeps_less_than_its_table():
    ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", 12, seed=5)))
    assert vars(ham).keys() == {"n", "ranking"}  # no table kept beside the ranking
    kept = sum(a.nbytes for a in ham.ranking[:3])  # values, inverse and ground; then the mirrored flag
    assert kept < ham.table.nbytes == 8 * 2**12
