import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvarqopt import fixtures
from cvarqopt.ansatz import AnsatzSpec, trial_state
from cvarqopt.flatness import (
    amplitude_flatness_profile,
    check_bound,
    cluster_fraction_lower_bound,
    compute_delta,
    equal_amplitude_fraction,
    flatness_report,
    needle_hamiltonian,
    qaoa_snapshots,
)
from cvarqopt.hamiltonian import DiagonalHamiltonian, qubo_to_hamiltonian, qubo_to_ising
from cvarqopt.problems import InstanceSpec, generate
from cvarqopt.statevector import StateVector
from gate_reference import diag, run_reference, rx


def test_delta_of_reference_diagonal():
    assert compute_delta(DiagonalHamiltonian(2, [0.0, 1.0, 1.0, 2.0])) == 0.5


@pytest.mark.parametrize("n", [3, 6, 10])
def test_delta_of_needle(n):
    assert compute_delta(needle_hamiltonian(n)) == (2**n - 1) / 2**n


def test_delta_all_distinct():
    assert compute_delta(DiagonalHamiltonian(3, np.arange(8.0))) == 1 / 8


def test_uniform_snapshot_is_fully_clustered():
    amps = np.full(64, 1 / 8, dtype=complex)
    assert equal_amplitude_fraction(amps) == 1.0


def test_distinct_amplitudes_cluster_to_single_states(rng):
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert equal_amplitude_fraction(amps) == 1 / 16


def test_cluster_tolerance_merges_fp_twins():
    amps = np.array([0.5, 0.5 + 1e-12, 0.5 + 2e-12, -0.5], dtype=complex)
    assert equal_amplitude_fraction(amps, tol=1e-9) == 0.75


@st.composite
def twin_clusters(draw):
    """Amplitudes in clusters of fp twins, shuffled, and the largest cluster's share.

    Centres sit on a grid at least 1e-6 apart and often share a real part;
    each member lies within 1e-13 of its centre on both components.
    """
    step = draw(st.floats(1e-6, 1.0))
    centres = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(centres), max_size=len(centres)))
    jitter = st.floats(-1e-13, 1e-13)
    amps = [
        complex(a * step + draw(jitter), b * step + draw(jitter))
        for (a, b), size in zip(centres, sizes)
        for _ in range(size)
    ]
    return np.array(draw(st.permutations(amps))), max(sizes) / len(amps)


@given(twin_clusters())
@example((np.array([0.5 + 0.1j, 0.5 + 1e-16 + 0.3j, 0.5 + 2e-16 + 0.1j, 0.9]), 0.5))
def test_fraction_is_the_largest_twin_cluster(case):
    amps, largest = case
    assert equal_amplitude_fraction(amps) == largest


def test_zero_angles_keep_profile_at_one(rng):
    ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", 4, 0)))
    snaps = qaoa_snapshots(ham, betas=[0, 0, 0], gammas=[0, 0, 0])
    assert amplitude_flatness_profile(snaps) == (1.0, 1.0, 1.0, 1.0)


def test_profile_is_nonincreasing(rng):
    ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", 6, 1)))
    snaps = qaoa_snapshots(ham, betas=rng.uniform(-1, 1, 3), gammas=rng.uniform(-1, 1, 3))
    profile = amplitude_flatness_profile(snaps)
    assert profile[0] == 1.0
    assert all(b <= a for a, b in zip(profile, profile[1:]))


def test_snapshots_match_compiled_circuit(rng):
    """Exact phase application agrees with the compiled alternating circuit."""
    qubo = generate(InstanceSpec("maxcut", 5, 2))
    ising = qubo_to_ising(qubo)
    ham = qubo_to_hamiltonian(qubo)
    betas, gammas = rng.uniform(-np.pi, np.pi, 2), rng.uniform(-np.pi, np.pi, 2)
    snap = qaoa_snapshots(ham, betas, gammas)[-1]
    circ_state = trial_state(
        AnsatzSpec("qaoa", n=5, p=2, ising=ising), np.concatenate([betas, gammas])
    ).amplitudes
    # equal up to one global phase
    k = int(np.argmax(np.abs(snap)))
    phase = circ_state[k] / snap[k]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(snap * phase, circ_state, atol=1e-9)


def test_snapshots_equal_per_qubit_mixer_gates(rng):
    """Each snapshot is the one that RX gates, one per qubit, give, bit for bit."""
    for n in (2, 3, 6):
        ham = qubo_to_hamiltonian(generate(InstanceSpec("portfolio", n, seed=n)))
        betas, gammas = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
        state = StateVector.uniform(n)
        want = [state.amplitudes]
        for beta, gamma in zip(betas, gammas):
            phases = np.exp(-1j * gamma * ham.ranking.values)[ham.ranking.inverse]
            gates = [diag(phases), *(rx(q, 2.0 * beta) for q in range(n))]
            state = StateVector(n, run_reference(n, gates, state))
            want.append(state.amplitudes)
        got = qaoa_snapshots(ham, betas, gammas)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == len(want)


def test_depth_zero_bound_is_equality():
    ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", 6, 0)))
    report = check_bound(ham, qaoa_snapshots(ham, [], []))
    assert report.p == 0
    assert report.bound_value == pytest.approx(1 / np.sqrt(64), abs=1e-15)
    assert report.max_abs_amplitude == pytest.approx(report.bound_value, abs=1e-12)
    assert report.bound_holds


@pytest.mark.parametrize("index", [-1, 16, 17, True, 1.5])
def test_needle_index_out_of_range_rejected(index):
    """A bool would index numpy as a mask, making every basis state the needle."""
    with pytest.raises(ValueError, match="needle index"):
        needle_hamiltonian(4, index)
    assert needle_hamiltonian(4, 15).ranking.ground.tolist() == [15]
    for whole in (2.0, np.int64(2)):
        assert needle_hamiltonian(4, whole).ranking.ground.tolist() == [2]


def test_needle_single_layer_bound_holds(rng):
    ham = needle_hamiltonian(8)
    for _ in range(10):
        rep = flatness_report(ham, betas=rng.uniform(-np.pi, np.pi, 1), gammas=rng.uniform(-np.pi, np.pi, 1))
        assert rep.bound_holds


def test_constant_hamiltonian_zero_angles_never_mixes():
    ham = DiagonalHamiltonian(4, np.full(16, 3.0))
    rep = flatness_report(ham, betas=[0.0, 0.0], gammas=[0.0, 0.0])
    assert rep.delta == 1.0
    assert rep.delta_per_layer == (1.0, 1.0, 1.0)
    assert rep.max_abs_amplitude == pytest.approx(0.25, abs=1e-12)
    assert rep.bound_value == pytest.approx(0.25, abs=1e-12)
    assert rep.bound_holds


@pytest.mark.parametrize("n,p", [(4, 1), (6, 2), (8, 3)])
def test_bound_never_falsified_on_random_draws(n, p, rng):
    cut = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", n, seed=n)))
    needle = needle_hamiltonian(n)
    for ham in (cut, needle):
        for _ in range(10):
            rep = flatness_report(
                ham, betas=rng.uniform(-np.pi, np.pi, p), gammas=rng.uniform(-np.pi, np.pi, p)
            )
            assert rep.bound_holds


def test_closed_form_floor_stays_below_measured(rng):
    for n, p in [(4, 1), (6, 2), (8, 2)]:
        ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", n, seed=p)))
        rep = flatness_report(
            ham, betas=rng.uniform(-np.pi, np.pi, p), gammas=rng.uniform(-np.pi, np.pi, p)
        )
        floor = cluster_fraction_lower_bound(n, p, rep.delta)
        assert floor <= rep.delta_per_layer[-1] + 1e-15


def test_structureless_flag(rng):
    ham = qubo_to_hamiltonian(generate(InstanceSpec("portfolio", 4, seed=1)))
    rep = flatness_report(ham, betas=rng.uniform(-np.pi, np.pi, 2), gammas=rng.uniform(-np.pi, np.pi, 2))
    assert rep.structureless == (rep.delta_per_layer[-1] <= 1 / 16 + 1e-15)


def test_maxcut_regression_values_frozen():
    data = fixtures.load_golden_json()["maxcut_flatness_regression"]
    rng = np.random.Generator(np.random.PCG64(data["angle_seed"]))
    ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", data["n"], data["instance_seed"])))
    angles = rng.uniform(-np.pi, np.pi, size=2 * data["p"])
    rep = flatness_report(ham, betas=angles[: data["p"]], gammas=angles[data["p"] :])
    assert rep.delta_per_layer[-1] == pytest.approx(data["equal_fraction_final"], abs=1e-12)
    assert rep.max_abs_amplitude == pytest.approx(data["max_abs_amplitude"], abs=1e-12)
    assert 2**-data["n"] <= rep.delta_per_layer[-1] <= 1.0


def test_needle_peak_amplitudes_frozen():
    data = fixtures.load_golden_json()["needle_peak_amplitude"]
    for n_str, frozen in data["by_n"].items():
        n = int(n_str)
        rng = np.random.Generator(np.random.PCG64(data["seed_base"] + n))
        peak = 0.0
        for _ in range(data["draws"]):
            beta, gamma = rng.uniform(-np.pi, np.pi, size=2)
            rep = flatness_report(needle_hamiltonian(n), betas=[beta], gammas=[gamma])
            peak = max(peak, rep.max_abs_amplitude)
        assert peak == pytest.approx(frozen, abs=1e-12)


def test_snapshot_validation():
    ham = needle_hamiltonian(3)
    with pytest.raises(ValueError):
        qaoa_snapshots(ham, betas=[0.1], gammas=[0.1, 0.2])
    with pytest.raises(ValueError):
        amplitude_flatness_profile([])
    with pytest.raises(ValueError):
        cluster_fraction_lower_bound(4, 0, 0.5)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf"), True, "0.1"])
def test_negative_or_non_finite_tolerance_is_rejected(tol):
    """True would merge amplitudes within 1.0; a string is no number."""
    ham = needle_hamiltonian(4)
    snapshots = qaoa_snapshots(ham, [0.3], [0.7])
    with pytest.raises(ValueError, match="tolerance"):
        equal_amplitude_fraction(snapshots[0], tol)
    with pytest.raises(ValueError, match="tolerance"):
        check_bound(ham, snapshots, tol)
    assert equal_amplitude_fraction(snapshots[0], 0.0) == 1.0  # zero still merges exact twins
