import re
import time

import numpy as np
import pytest

from conftest import all_bitstrings
from cvarqopt import fixtures
from cvarqopt.hamiltonian import qubo_to_hamiltonian
from cvarqopt.oracle import enumerate_hamiltonian
from cvarqopt.problems import (
    PARAM_KEYS,
    PROBLEM_NAMES,
    Clause,
    InstanceSpec,
    PortfolioFixture,
    clause_unsatisfied,
    generate,
    max3sat_clauses,
    portfolio_qubo,
)

TRIANGLE = {"edges": [[0, 1], [1, 2], [0, 2]]}


def test_triangle_maxcut_optimum():
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(generate(InstanceSpec("maxcut", 3, 0, TRIANGLE))))
    assert truth.min_value == -2.0  # best cut severs two of the three unit edges
    assert len(truth.minimizers) == 6  # every split except the two trivial ones


def test_perfect_partition_reaches_zero():
    qubo = generate(InstanceSpec("partition", 3, 0, {"numbers": [1, 1, 2]}))
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(qubo))
    assert truth.min_value == 0.0
    assert qubo.value([0, 0, 1]) == 0.0
    assert qubo.value([1, 1, 0]) == 0.0


def test_partition_value_is_squared_difference(rng):
    numbers = rng.integers(1, 11, size=5).astype(float)
    qubo = generate(InstanceSpec("partition", 5, 1, {"numbers": numbers.tolist()}))
    for x in all_bitstrings(5):
        diff = numbers[x == 1].sum() - numbers[x == 0].sum()
        assert qubo.value(x) == pytest.approx(diff**2, abs=1e-9)


def test_single_clause_penalizes_exactly_one_assignment():
    clause = Clause([(0, False), (1, True), (2, False)])
    unsat = [clause_unsatisfied(clause, x) for x in all_bitstrings(3)]
    assert sum(unsat) == 1
    assert unsat[0b010] == 1  # x0 false, x1 true, x2 false kills every literal


@pytest.mark.parametrize("n", [6, 9, 12])
def test_max3sat_qubo_counts_unsatisfied_clauses(n):
    spec = InstanceSpec("max3sat", n, seed=5)
    qubo = generate(spec)
    clauses = max3sat_clauses(n, seed=5)
    assert len(clauses) == 2 * round(4.0 * n / 2)
    for x in all_bitstrings(n):
        unsat = sum(clause_unsatisfied(c, x) for c in clauses)
        assert qubo.value(x) == pytest.approx(unsat, abs=1e-9)


def test_max3sat_clause_pairs_share_prefix():
    clauses = max3sat_clauses(6, seed=0)
    for first, second in zip(clauses[0::2], clauses[1::2]):
        assert first[0] == second[0] and first[1] == second[1]
        assert first[2][0] == second[2][0] and first[2][1] != second[2][1]


def test_max3sat_rejects_bad_size():
    with pytest.raises(ValueError):
        InstanceSpec("max3sat", 7, 0)


def test_generation_is_deterministic():
    for problem, n in [("maxcut", 8), ("stable_set", 8), ("partition", 8),
                       ("market_split", 8), ("max3sat", 9), ("portfolio", 8)]:
        a = generate(InstanceSpec(problem, n, seed=3))
        b = generate(InstanceSpec(problem, n, seed=3))
        assert np.array_equal(a.b, b.b) and np.array_equal(a.A, b.A) and a.const == b.const
        c = generate(InstanceSpec(problem, n, seed=4))
        assert not (np.array_equal(a.b, c.b) and np.array_equal(a.A, c.A))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stable_set_optima_are_stable_sets(seed, rng):
    n = 10
    spec = InstanceSpec("stable_set", n, seed)
    qubo = generate(spec)
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(qubo))
    # reconstruct the edge penalties from the quadratic matrix
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if qubo.A[i, j] > 0]
    for j in truth.minimizers:
        x = all_bitstrings(n)[j]
        assert all(not (x[a] and x[b]) for a, b in edges)


def test_market_split_value_is_squared_residual():
    n = 6
    qubo = generate(InstanceSpec("market_split", n, seed=2))
    rng = np.random.default_rng(2)
    M = rng.integers(1, 10, size=(2, n)).astype(float)
    d = np.floor(M.sum(axis=1) / 2.0)
    for x in all_bitstrings(n):
        assert qubo.value(x) == pytest.approx(np.sum((M @ x - d) ** 2), abs=1e-9)


def test_portfolio_fixture_value_at_zero():
    qubo = portfolio_qubo()
    assert qubo.value(np.zeros(6)) == pytest.approx(108.0, abs=1e-12)


def test_portfolio_penalty_vanishes_on_budget():
    f = PortfolioFixture()
    qubo = portfolio_qubo(f)
    for x in all_bitstrings(6):
        if x.sum() == 3:
            raw = f.returns @ x - f.risk_factor * x @ f.covariance @ x
            assert qubo.value(x) == pytest.approx(-raw, abs=1e-9)


def test_portfolio_fixture_matches_frozen_optimum():
    data = fixtures.load_golden_json()
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(portfolio_qubo()))
    assert truth.min_value == data["portfolio_optimum"]["value"]
    assert list(truth.minimizers) == data["portfolio_optimum"]["bitstrings"]


def test_portfolio_covariance_psd_check():
    bad = np.array(fixtures.PORTFOLIO_COVARIANCE)
    bad[0, 0] = -10.0
    with pytest.raises(ValueError):
        PortfolioFixture(covariance=bad)


def test_generated_portfolio_covariance_is_psd():
    qubo = generate(InstanceSpec("portfolio", 8, seed=9))
    assert qubo.n == 8  # construction already enforces the PSD invariant


def test_largest_instances_enumerate_quickly():
    start = time.monotonic()
    for problem in ("maxcut", "portfolio"):
        truth = enumerate_hamiltonian(qubo_to_hamiltonian(generate(InstanceSpec(problem, 16, 0))))
        assert truth.minimizers
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_one_qubit_instances_are_valid_or_rejected(problem):
    """Every class gives a valid one-qubit QUBO or a ValueError, never a crash."""
    if problem in ("maxcut", "stable_set", "max3sat"):
        with pytest.raises(ValueError):
            InstanceSpec(problem, 1, seed=0)
        return
    for seed in range(3):
        qubo = generate(InstanceSpec(problem, 1, seed))
        assert qubo.n == 1 and np.isfinite(qubo.value([0])) and np.isfinite(qubo.value([1]))


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        InstanceSpec("knapsack", 6, 0)


# every key a generator reads, each set away from its default
ACCEPTED = {
    "maxcut": (4, {"edges": [[0, 1], [1, 2]], "weights": [2.0, 3.0], "edge_density": 0.9}),
    "stable_set": (6, {"edge_density": 0.9}),
    "partition": (4, {"numbers": [1, 2, 3, 4]}),
    "market_split": (6, {"constraints": 3}),
    "max3sat": (6, {"clause_ratio": 2.0}),
    "portfolio": (4, {"risk_factor": 0.3, "budget": 1, "penalty": 5.0}),
}


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_every_generator_takes_the_keys_it_reads(problem):
    n, params = ACCEPTED[problem]
    assert set(params) == set(PARAM_KEYS[problem])
    for key, value in params.items():
        base = {"edges": params["edges"]} if key == "weights" else {}  # weights go with edges only
        default = generate(InstanceSpec(problem, n, 2, base))
        qubo = generate(InstanceSpec(problem, n, 2, {**base, key: value}))
        assert not (np.array_equal(qubo.b, default.b) and np.array_equal(qubo.A, default.A)), key
    assert generate(InstanceSpec(problem, n, 2, params)).n == n


@pytest.mark.parametrize("edge", [[0, 5], [-1, 0], [1, 1], [0, 1.0], [0, True], [0, 1, 2], 0],
                         ids=["out-of-range", "negative", "loop", "float", "bool", "three-ends", "not-a-pair"])
def test_maxcut_rejects_an_edge_that_is_not_two_distinct_vertices(edge):
    with pytest.raises(ValueError, match=re.escape(f"two distinct integer vertices in [0, 3), got {edge!r}")):
        generate(InstanceSpec("maxcut", 3, 0, {"edges": [[0, 1], edge]}))


@pytest.mark.parametrize("params,match", [
    ({"edges": [[0, 1], [1, 2]], "weights": [1]}, "one weight per edge, got 1 for 2 edges"),
    ({"edges": [[0, 1]], "weights": [1, 2]}, "one weight per edge, got 2 for 1 edges"),
    ({"weights": [1, 2, 3]}, "weights go with edges"),
], ids=["short", "long", "without-edges"])
def test_maxcut_rejects_weights_that_do_not_match_the_edges(params, match):
    with pytest.raises(ValueError, match=match):
        generate(InstanceSpec("maxcut", 3, 0, params))


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_unknown_generator_key_is_rejected_naming_the_accepted_ones(problem):
    n, _ = ACCEPTED[problem]
    with pytest.raises(ValueError, match=f"no parameter edge_densty; it reads {PARAM_KEYS[problem][0]}"):
        InstanceSpec(problem, n, 0, {"edge_densty": 0.9})
