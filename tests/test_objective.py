import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_distribution, reference_cvar, same_bits
from cvarqopt import fixtures, objective
from cvarqopt.hamiltonian import DiagonalHamiltonian
from cvarqopt.harness import make_scorer
from cvarqopt.objective import (
    CvarConfig,
    OutcomeDistribution,
    best_support_bitstring,
    cvar_exact,
    cvar_from_samples,
    cvar_sampled,
    inverse_cdf_indices,
    outcome_distribution,
    overlap_with_optimum,
    sample_outcomes,
)
from cvarqopt.statevector import StateVector, run_circuit
from gate_reference import zero_state

REF_H = fixtures.two_qubit_hamiltonian()


def ref_state(theta):
    return run_circuit(fixtures.two_qubit_circuit(theta))


@pytest.mark.parametrize("theta", [0.4, 1.1, 2.8])
def test_distribution_of_reference_state(theta):
    d = outcome_distribution(ref_state(theta), REF_H)
    c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
    np.testing.assert_array_equal(d.values, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(d.probs, [c2 / 2, s2, c2 / 2], atol=1e-12)


def test_distribution_of_basis_state():
    d = outcome_distribution(zero_state(2), DiagonalHamiltonian(2, [3.0, 1.0, 4.0, 1.0]))
    np.testing.assert_array_equal(d.values, [3.0])
    np.testing.assert_array_equal(d.probs, [1.0])


def test_distribution_of_uniform_state_counts_multiplicity():
    d = outcome_distribution(StateVector.uniform(2), REF_H)
    np.testing.assert_array_equal(d.values, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-12)


@pytest.mark.parametrize("theta", np.linspace(0, 2 * np.pi, 17))
def test_mean_objective_is_constant_on_reference(theta):
    assert cvar_exact(outcome_distribution(ref_state(theta), REF_H), 1.0) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("theta", np.linspace(0, 2 * np.pi, 17))
def test_half_tail_objective_is_sine_squared(theta):
    got = cvar_exact(outcome_distribution(ref_state(theta), REF_H), 0.5)
    assert got == pytest.approx(np.sin(theta / 2) ** 2, abs=1e-12)


def test_small_alpha_hits_the_minimum(rng):
    for _ in range(50):
        d = random_distribution(rng)
        assert cvar_exact(d, d.probs[0]) == pytest.approx(d.values[0], abs=1e-12)
        assert cvar_exact(d, d.probs[0] / 3) == pytest.approx(d.values[0], abs=1e-12)


def test_alpha_one_is_the_mean(rng):
    for _ in range(100):
        d = random_distribution(rng)
        assert cvar_exact(d, 1.0) == pytest.approx(d.values @ d.probs, abs=1e-12)


def test_monotone_in_alpha(rng):
    alphas = np.linspace(0.01, 1.0, 40)
    for _ in range(20):
        d = random_distribution(rng)
        vals = [cvar_exact(d, a) for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bounded_by_min_and_mean(rng):
    for _ in range(30):
        d = random_distribution(rng)
        for a in (0.05, 0.3, 0.77, 1.0):
            v = cvar_exact(d, a)
            assert d.values[0] - 1e-12 <= v <= d.values @ d.probs + 1e-12


def test_boundary_outcome_taken_fractionally():
    d = OutcomeDistribution([0.0, 10.0], [0.25, 0.75])
    # tail of 0.5: all of the 0-outcome plus half of the rest
    assert cvar_exact(d, 0.5) == pytest.approx((0.25 * 0 + 0.25 * 10) / 0.5, abs=1e-12)


def test_continuity_in_alpha():
    d = OutcomeDistribution([-3.0, 2.0, 9.0], [0.2, 0.5, 0.3])
    eps = 1e-9
    for a in (0.2, 0.7):
        below, above = cvar_exact(d, a - eps), cvar_exact(d, a + eps)
        assert abs(above - below) < 1e-6


def test_no_reward_for_ground_mass_beyond_alpha():
    alpha = 0.01
    lean = OutcomeDistribution([0.0, 5.0], [0.02, 0.98])
    fat = OutcomeDistribution([0.0, 5.0], [0.60, 0.40])
    assert cvar_exact(lean, alpha) == cvar_exact(fat, alpha) == 0.0


def test_sampled_alpha_one_is_sample_mean(rng):
    state = ref_state(0.9)
    rng_a = np.random.Generator(np.random.PCG64(5))
    _, values = sample_outcomes(state, REF_H, 400, rng_a)
    got = cvar_sampled(state, REF_H, CvarConfig(1.0, "sampled", shots=400, seed=5))
    assert got == pytest.approx(values.mean(), abs=1e-12)


def test_single_shot_returns_single_sample():
    state = ref_state(1.2)
    for alpha in (0.01, 0.4, 1.0):
        v = cvar_sampled(state, REF_H, CvarConfig(alpha, "sampled", shots=1, seed=11))
        assert v in (0.0, 1.0, 2.0)


def test_deterministic_state_samples_exactly():
    ham = DiagonalHamiltonian(2, [7.0, 1.0, 3.0, 5.0])
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    state = StateVector(2, amps)
    for alpha in (0.05, 0.5, 1.0):
        assert cvar_sampled(state, ham, CvarConfig(alpha, "sampled", shots=64, seed=0)) == 3.0


def test_sampling_never_lands_on_a_zero_probability_tail():
    # the probabilities sum to just under 1, and the draw is the largest one PCG64 can give
    amps = np.sqrt([0.5, 0.5 - 4e-16, 0.0, 0.0]).astype(complex)
    top_draw = SimpleNamespace(random=lambda shots: np.full(shots, 1.0 - 2.0**-53))
    ham = DiagonalHamiltonian(2, [3.0, 1.0, 4.0, 0.0])
    indices, values = sample_outcomes(StateVector(2, amps), ham, 3, top_draw)
    np.testing.assert_array_equal(indices, [1, 1, 1])
    np.testing.assert_array_equal(values, [1.0, 1.0, 1.0])


# zero-probability entries anywhere, and a total at or just under 1
weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
weights = st.lists(weight, min_size=1, max_size=64)
shortfall = st.integers(0, 64).map(lambda k: 1.0 - k * 2.0**-53)


@st.composite
def cdf_and_keys(draw):
    """A CDF with leading, interior and trailing zero-probability entries, and
    keys on bucket edges, on CDF values, next to them and anywhere in [0, 1)."""
    w = np.array([0.0] * draw(st.integers(0, 3)) + draw(weights) + [0.0] * draw(st.integers(0, 3)))
    assume(w.sum() > 0)
    cum = np.minimum(np.cumsum(w / w.sum()) * draw(shortfall), 1.0)
    # the finest bucket table the sampler builds for this CDF and up to 160 keys; coarser tables' edges are among its edges
    g = max(4 << (cum.size - 1).bit_length(), 128)
    edges = np.concatenate([np.arange(g) / g, cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    on_edge = st.sampled_from(sorted(set(edges[edges < 1.0].tolist())))
    keys = st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True), on_edge), min_size=1, max_size=160)
    return cum, np.array(draw(keys))


QUARTERS = np.array([0.25, 0.5, 0.75, 1.0])
STEPS = np.cumsum([0.1, 0.2, 0.0, 0.3, 0.4])


@settings(deadline=None)
@given(cdf_and_keys())
@example((np.array([0.3, 1.0]), np.arange(8) / 8))  # keys on bucket edges
@example((np.array([0.3, 1.0]), np.arange(64) / 64))  # on the edges of a table sized by the key count
@example((QUARTERS, np.arange(16) / 16))  # bucket edges that are CDF values
# keys on a CDF value and on its neighbours
@example((STEPS, np.repeat([np.nextafter(STEPS[1], 0.0), STEPS[1], np.nextafter(STEPS[1], 1.0)], 2)))
# zero-probability entries: leading, interior and trailing
@example((np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0]), np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])))
@example((np.array([0.5, 1.0 - 2.0**-52]), np.full(4, 1.0 - 2.0**-53)))  # the top draw past a short CDF
@example((np.array([1.0]), np.array([0.5])))  # one shot, table branch
@example((QUARTERS, np.array([0.6])))  # one shot, binary-search branch
@example((QUARTERS, np.full(4, 0.75)))  # as many entries as shots: table
@example((QUARTERS, np.full(3, 0.75)))  # more entries than shots: binary search
def test_bucket_table_gives_the_binary_search_indices(case):
    cum, u = case
    for c in (cum, cum / cum[-1]):  # as drawn, and normalised as `sample_outcomes` does
        got, want = inverse_cdf_indices(c, u), np.searchsorted(c, u, side="right")
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


@st.composite
def states_and_shots(draw):
    n = draw(st.integers(1, 6))
    w = np.array(draw(st.lists(weight, min_size=2**n, max_size=2**n)))
    assume(w.sum() > 0)
    state = StateVector(n, np.sqrt(w / w.sum() * draw(shortfall)))
    return state, draw(st.integers(1, 100)), draw(st.integers(0, 2**32))


@settings(deadline=None)
@given(states_and_shots())
@example((StateVector(2, np.sqrt([0.0, 0.5, 0.0, 0.5 - 4e-16])), 1, 7))
@example((StateVector.uniform(3), 8, 1))  # 2^n == shots: table
@example((StateVector.uniform(3), 7, 1))  # 2^n > shots: binary search
def test_sample_outcomes_draws_once_and_matches_the_binary_search(case):
    state, shots, seed = case
    table = np.arange(2**state.n) % 3 - 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    indices, values = sample_outcomes(state, DiagonalHamiltonian(state.n, table), shots, rng)
    reference = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(state.probabilities)
    cum /= cum[-1]
    np.testing.assert_array_equal(indices, np.searchsorted(cum, reference.random(shots), side="right"))
    np.testing.assert_array_equal(values, table[indices])
    assert rng.random() == reference.random()  # exactly `shots` doubles consumed


CHUNK = objective.CUMSUM_CHUNK


@st.composite
def distributions_and_alphas(draw, sizes):
    """Distributions of `sizes` outcomes, with zero-probability outcomes anywhere
    and a total at or just under 1, and alphas on a running-sum value, next to
    it, at 1 and below the first probability."""
    k = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(k) ** draw(st.sampled_from([1, 8]))  # 8: many tiny probabilities
    w[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    w[draw(st.integers(0, k - 1))] += 1.0  # at least one outcome in the support
    probs = w / w.sum() * draw(shortfall)
    values = np.cumsum(rng.random(k) + 1e-3) - rng.random() * k
    cum = np.cumsum(probs)
    # any entry, or the last of a chunk (of 3 entries too): alpha there, just below and just above
    j = draw(st.one_of(st.integers(0, k - 1), st.sampled_from([min(c, k) - 1 for c in (3, 6, CHUNK, 2 * CHUNK)])))
    first = probs[np.flatnonzero(probs)[0]]
    alphas = [1.0, cum[j], np.nextafter(cum[j], 0.0), np.nextafter(cum[j], 2.0), first * draw(st.floats(0.01, 0.99)),
              draw(st.floats(0.0, 1.0, exclude_min=True))]
    return OutcomeDistribution(values, probs), [float(a) for a in alphas if 0.0 < a <= 1.0]


@pytest.mark.parametrize("sizes", [
    st.integers(1, 64), st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]), st.integers(CHUNK + 2, 3 * CHUNK),
    st.integers(3 * CHUNK + 1, 3 * CHUNK + 100),
], ids=["short", "one-chunk-edge", "two-or-three-chunks", "over-three-chunks"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_exact_cvar_equals_the_full_length_formula_bit_for_bit(sizes, data):
    dist, alphas = data.draw(distributions_and_alphas(sizes))
    # 3: many chunks, even for short distributions
    for chunk in (CHUNK, 3) if dist.probs.size <= 64 else (CHUNK,):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objective, "CUMSUM_CHUNK", chunk)
            for alpha in alphas:
                assert same_bits(cvar_exact(dist, alpha), reference_cvar(dist, alpha)), (chunk, alpha)


def reference_distribution(state: StateVector, ham: DiagonalHamiltonian) -> OutcomeDistribution:
    """The values in the state's support, each with its basis states' probabilities
    added one at a time in basis order."""
    totals = {}
    for v, p in zip(ham.table.tolist(), state.probabilities.tolist()):
        totals[v] = totals.get(v, 0.0) + p
    support = sorted(v for v, p in totals.items() if p > 0.0)
    return OutcomeDistribution(support, [totals[v] for v in support])


def assert_exact_scorer_matches_the_reference(state, ham, alphas=(0.05, 0.3, 0.5, 1.0)):
    ref = reference_distribution(state, ham)
    d = outcome_distribution(state, ham)
    np.testing.assert_array_equal(d.values, ref.values)
    np.testing.assert_array_equal(d.probs, ref.probs)
    for alpha in alphas:
        value, _ = make_scorer(ham, alpha)(state)
        assert same_bits(value, reference_cvar(ref, alpha)), alpha
    return d


ONE_QUBIT_H = DiagonalHamiltonian(1, [2.0, -1.0])
# the two lowest values, -4 and -2, lie on basis states 1, 3 and 6, and value 0 on state 4
ZERO_TAIL_H = DiagonalHamiltonian(3, [5.0, -2.0, 3.0, -4.0, 0.0, 1.0, -2.0, 7.0])
ZERO_TAIL_STATE = StateVector(3, np.sqrt(np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]) / 10.0))


@pytest.mark.parametrize("state, ham, full_support", [
    (StateVector(1, np.array([0.6, 0.8j])), ONE_QUBIT_H, True),
    (StateVector(1, np.array([0.0, 1.0])), ONE_QUBIT_H, False),
    (StateVector.uniform(3), ZERO_TAIL_H, True),
    (ZERO_TAIL_STATE, ZERO_TAIL_H, False),
], ids=["n1", "n1-basis-state", "uniform", "zero-probability-tail"])
def test_exact_scorer_equals_the_reference_bit_for_bit(state, ham, full_support):
    d = assert_exact_scorer_matches_the_reference(state, ham)
    # a full support shares the ranking's values; otherwise the support is copied out
    assert (d.values is ham.ranking.values) is full_support


@settings(deadline=None)
@given(states_and_shots(), st.integers(1, 5))
def test_exact_scorer_equals_the_reference_on_any_support(case, spread):
    state, _, seed = case
    table = np.random.default_rng(seed).integers(-spread, spread + 1, 2**state.n).astype(float)  # ties
    assert_exact_scorer_matches_the_reference(state, DiagonalHamiltonian(state.n, table))


@pytest.mark.parametrize("state", [StateVector.uniform(3), ZERO_TAIL_STATE], ids=["full-support", "zero-probability-tail"])
def test_a_distribution_is_read_only_and_leaves_the_ranking_as_it_was(state):
    before = ZERO_TAIL_H.ranking.values.copy()
    d = outcome_distribution(state, ZERO_TAIL_H)
    with pytest.raises(ValueError, match="read-only"):
        d.values[0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        d.probs[0] = 0.5
    np.testing.assert_array_equal(ZERO_TAIL_H.ranking.values, before)


@pytest.mark.parametrize("alpha", [True, False, np.True_, "0.5", None, 0.5j, math.nan, math.inf, 0.0, -0.25, 1.5, 2],
                         ids=repr)
def test_every_cvar_entry_point_rejects_a_bad_alpha_with_one_message(alpha):
    message = "^" + re.escape(f"alpha must be a number in (0, 1], got {alpha!r}") + "$"
    d = OutcomeDistribution([0.0, 1.0], [0.5, 0.5])
    for call in (lambda: cvar_exact(d, alpha), lambda: cvar_from_samples(np.array([0.0, 1.0]), alpha),
                 lambda: CvarConfig(alpha)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("alpha", [1, np.float64(0.25), np.float32(0.25), Fraction(1, 4)], ids=repr)
def test_any_real_alpha_scores_as_its_float(alpha):
    d = OutcomeDistribution([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
    samples = np.array([3.0, -1.0, 0.5, 2.0, 0.0])
    assert type(CvarConfig(alpha).alpha) is float and CvarConfig(alpha).alpha == float(alpha)
    assert same_bits(cvar_exact(d, alpha), cvar_exact(d, float(alpha)))
    assert same_bits(cvar_from_samples(samples, alpha), cvar_from_samples(samples, float(alpha)))


@pytest.mark.parametrize("shots", [2, 8], ids=["binary-search", "table"])
@pytest.mark.parametrize("amps", [[np.nan, 0.5, 0.5, 0.5], [np.inf, 0.0, 0.0, 0.0], [0.0] * 4],
                         ids=["nan", "inf", "zero"])
def test_sampling_a_state_without_a_cdf_is_an_error(amps, shots):
    with pytest.raises(ValueError, match="finite with a positive total"):
        sample_outcomes(StateVector(2, np.array(amps)), REF_H, shots, np.random.default_rng(0))


def test_sampled_is_deterministic_given_seed():
    state = ref_state(0.7)
    cfg = CvarConfig(0.3, "sampled", shots=512, seed=42)
    assert cvar_sampled(state, REF_H, cfg) == cvar_sampled(state, REF_H, cfg)


@pytest.mark.parametrize("bad", [None, True, 1.5, "5"])
def test_sampled_seed_defaults_to_zero_and_takes_whole_numbers(bad):
    """The default seed is 0, so a default config draws the same shots every time."""
    state = ref_state(0.7)

    def sampled(**seed):
        return cvar_sampled(state, REF_H, CvarConfig(0.3, "sampled", shots=512, **seed))

    assert sampled() == sampled() == sampled(seed=0) and sampled(seed=2.0) == sampled(seed=2)
    assert CvarConfig(0.3, seed=2.0).seed == 2 and type(CvarConfig(0.3, seed=2.0).seed) is int
    with pytest.raises(ValueError, match=f"^seed takes integers, got {bad!r}$"):
        CvarConfig(0.3, "sampled", shots=512, seed=bad)


def test_sampled_mean_tracks_exact_within_three_standard_errors():
    state = ref_state(1.9)
    d = outcome_distribution(state, REF_H)
    for alpha in (0.1, 0.5, 1.0):
        exact = cvar_exact(d, alpha)
        draws = np.array(
            [
                cvar_sampled(state, REF_H, CvarConfig(alpha, "sampled", shots=8192, seed=s))
                for s in range(100)
            ]
        )
        se = draws.std(ddof=1) / 10.0
        assert abs(draws.mean() - exact) <= 3.0 * se + 1e-9


def test_overlap_on_pure_minimizer():
    ham = DiagonalHamiltonian(2, [4.0, 0.5, 2.0, 3.0])
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    assert overlap_with_optimum(StateVector(2, amps), ham) == 1.0


def test_overlap_of_uniform_state_with_unique_minimizer():
    ham = DiagonalHamiltonian(3, np.arange(8.0))
    assert overlap_with_optimum(StateVector.uniform(3), ham) == pytest.approx(1 / 8, abs=1e-12)


def test_overlap_reference_at_zero():
    assert overlap_with_optimum(ref_state(0.0), REF_H) == pytest.approx(0.5, abs=1e-12)


def test_degenerate_minima_all_count():
    ham = DiagonalHamiltonian(2, [1.0, 0.0, 0.0, 2.0])
    assert overlap_with_optimum(StateVector.uniform(2), ham) == pytest.approx(0.5, abs=1e-12)


def test_best_support_bitstring_ignores_zero_amplitudes():
    ham = DiagonalHamiltonian(2, [0.0, 1.0, 1.0, 2.0])
    amps = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    j, val = best_support_bitstring(StateVector(2, amps), ham)
    assert (j, val) == (1, 1.0)


@pytest.mark.parametrize("values,probs", [
    ([0.0, 1.0], [math.nan, 0.5]), ([0.0, 1.0], [0.5, math.nan]), ([0.0, 1.0], [math.inf, 0.5]),
    ([0.0, math.nan], [0.5, 0.5]), ([math.nan], [1.0]), ([0.0, math.inf], [0.5, 0.5]), ([-math.inf, 0.0], [0.5, 0.5]),
])
def test_distribution_rejects_values_or_probabilities_that_are_not_finite(values, probs):
    with pytest.raises(ValueError, match="finite"):
        OutcomeDistribution(values, probs)


def test_validation_errors():
    d = OutcomeDistribution([1.0], [1.0])
    with pytest.raises(ValueError):
        cvar_exact(d, 0.0)
    with pytest.raises(ValueError):
        cvar_exact(d, 1.5)
    with pytest.raises(ValueError):
        CvarConfig(0.5, "sampled", shots=0)
    with pytest.raises(ValueError):
        cvar_from_samples(np.array([]), 0.5)
    with pytest.raises(ValueError):
        OutcomeDistribution([1.0, 1.0], [0.5, 0.5])  # not strictly increasing
    with pytest.raises(ValueError):
        outcome_distribution(zero_state(2), DiagonalHamiltonian(3, np.zeros(8)))
    with pytest.raises(ValueError, match="state has n=3, hamiltonian has n=2"):
        best_support_bitstring(zero_state(3), DiagonalHamiltonian(2, np.zeros(4)))
