"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistics-based
criteria (6, 7) share one precomputed batch of optimization runs.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_distribution, random_qubo
from cvarqopt import fixtures
from cvarqopt.ansatz import AnsatzSpec, build_circuit, trial_state
from cvarqopt.flatness import flatness_report, needle_hamiltonian
from cvarqopt.hamiltonian import ising_to_hamiltonian, qubo_to_hamiltonian, qubo_to_ising
from cvarqopt.harness import ExperimentConfig, RunFailure, derive_seed, run_batch, run_single, run_sweep
from cvarqopt.objective import CvarConfig, cvar_exact, cvar_sampled, outcome_distribution
from cvarqopt.oracle import enumerate_hamiltonian
from cvarqopt.problems import InstanceSpec, generate, portfolio_qubo
from cvarqopt.statevector import BoundCircuit, StateVector, run_circuit
from gate_reference import cost_layer_gates, run_reference, spin_cost


def announce(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_01_reference_landscapes():
    """Closed-form CVaR landscapes of the two-qubit case, 100 angles, 1e-9."""
    start = time.monotonic()
    ham = fixtures.two_qubit_hamiltonian()
    thetas = np.linspace(0.0, 2 * np.pi, 100)
    for theta in thetas:
        d = outcome_distribution(run_circuit(fixtures.two_qubit_circuit(theta)), ham)
        assert abs(cvar_exact(d, 1.0) - 1.0) < 1e-9
        assert abs(cvar_exact(d, 0.5) - np.sin(theta / 2) ** 2) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    announce(1, f"mean==1 and half-tail==sin^2(theta/2) on 100 angles ({elapsed:.2f}s)")


def test_criterion_02_alpha_limit_identities():
    """alpha=1 is the mean and alpha below the smallest atom is the minimum, 1e-12."""
    rng = np.random.default_rng(20)
    for _ in range(200):
        d = random_distribution(rng, size=int(rng.integers(2, 20)))
        assert abs(cvar_exact(d, 1.0) - d.values @ d.probs) < 1e-12
        p0 = d.probs[0]
        for alpha in (p0, 0.5 * p0, 0.01 * p0):
            assert abs(cvar_exact(d, alpha) - d.values[0]) < 1e-12
    announce(2, "mean and minimum limits hold on 200 random distributions")


def test_criterion_03_encoding_round_trip():
    """QUBO == Ising-with-offset == diagonal table on all assignments, exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(30)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        q = random_qubo(rng, n, integer=True)
        m = qubo_to_ising(q)
        table = ising_to_hamiltonian(m).table
        x = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(float)
        z = 1.0 - 2.0 * x
        qubo_vals = q.const + x @ q.b + ((x @ q.A) * x).sum(axis=1)
        ising_vals = m.offset + z @ m.c + 2.0 * ((z @ m.Q) * z).sum(axis=1)
        assert np.array_equal(qubo_vals, ising_vals)
        assert np.array_equal(qubo_vals, table)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(3, f"100 random encodings agree exactly on every assignment ({elapsed:.1f}s)")


def test_criterion_04_cost_unitary_matches_exact_phases():
    """The cost diag QAOA runs == exp(-i*gamma*cost) elementwise (cost summed spin by spin)
    and == its gate-level RZ/CNOT compilation, < 1e-9 deviation."""
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ising = qubo_to_ising(random_qubo(rng, n))
        gamma = float(rng.uniform(-np.pi, np.pi))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        cost_step = build_circuit(AnsatzSpec("qaoa", n=n, p=1, ising=ising), [0.0, gamma]).gates[1]
        assert cost_step.name == "diag"
        got = run_circuit(BoundCircuit(n, (cost_step,)), StateVector(n, amps)).amplitudes
        exact = amps * np.exp(-1j * gamma * spin_cost(ising))
        compiled = run_reference(n, cost_layer_gates(ising, gamma), StateVector(n, amps))
        worst = max(worst, float(np.abs(got - exact).max()), float(np.abs(got - compiled).max()))
    assert worst < 1e-9
    announce(4, f"20 random cost diags match exact phases and RZ/CNOT gates (worst dev {worst:.2e})")


def test_criterion_05_amplitude_bound_never_falsified():
    """Bound holds on every run of the grid; needle peaks decay exponentially."""
    rng = np.random.default_rng(50)
    runs = ok = 0
    for n in (4, 6, 8, 10):
        hams = (
            qubo_to_hamiltonian(generate(InstanceSpec("maxcut", n, seed=n))),
            needle_hamiltonian(n),
        )
        for p in (1, 2, 3):
            for ham in hams:
                for _ in range(50):
                    rep = flatness_report(
                        ham,
                        betas=rng.uniform(-np.pi, np.pi, p),
                        gammas=rng.uniform(-np.pi, np.pi, p),
                    )
                    runs += 1
                    ok += rep.bound_holds
    assert ok == runs

    # single-layer needle peaks across sizes: fit peak ~ C * 2^(-eps*n)
    peaks = {}
    for n in (8, 10, 12):
        rng_n = np.random.default_rng(5000 + n)
        peak = 0.0
        for _ in range(50):
            rep = flatness_report(
                needle_hamiltonian(n),
                betas=[rng_n.uniform(-np.pi, np.pi)],
                gammas=[rng_n.uniform(-np.pi, np.pi)],
            )
            peak = max(peak, rep.max_abs_amplitude)
        peaks[n] = peak
    slope, intercept = np.polyfit(list(peaks), np.log2(list(peaks.values())), 1)
    assert slope < 0  # exponential decay in n
    predicted_12 = 2 ** (intercept + slope * 12)
    assert peaks[12] < 10.0 * predicted_12
    announce(
        5,
        f"bound held in {ok}/{runs} runs; needle peaks fit 2^({slope:.2f}n), "
        f"n=12 peak {peaks[12]:.4f} < 10x predicted {predicted_12:.4f}",
    )


def _first_reach(trace, threshold, n):
    for r in trace.records:
        if r.overlap >= threshold:
            return r.index / n
    return math.inf


@pytest.fixture(scope="module")
def trend_batch():
    """Shared batch for criteria 6 and 7: n=10, exact mode, budget 50*n,
    random seeded starts, 5 master seeds over 10 maxcut + 10 portfolio.

    The 300 runs go through `run_batch` on two pool workers.  Returns each
    grid point's reach iterations and every 25th (run, trace) pair for the
    check against `run_single` in this process."""
    n = 10
    instances = [("maxcut", s) for s in range(10)] + [("portfolio", s) for s in range(10)]
    grid = [("vqe", 1, 0.10), ("vqe", 1, 1.00), ("qaoa", 2, 0.10)]
    runs = [
        dict(
            qubo=generate(InstanceSpec(problem, n, inst_seed)),
            algo=algo,
            p=p,
            alpha=alpha,
            seed=derive_seed(master, "trend", problem, inst_seed, algo, p, alpha),
            initial_point="random",
            max_evaluations=50 * n,
        )
        for algo, p, alpha in grid
        for master in range(5)
        for problem, inst_seed in instances
    ]
    traces = run_batch(runs, workers=2)
    reaches = {key: {"r1": [], "r10": []} for key in grid}
    for run, trace in zip(runs, traces):
        assert not isinstance(trace, RunFailure), trace
        key = (run["algo"], run["p"], run["alpha"])
        reaches[key]["r1"].append(_first_reach(trace, 0.01, n))
        reaches[key]["r10"].append(_first_reach(trace, 0.10, n))
    return {"reaches": reaches, "sample": [(runs[i], traces[i]) for i in range(0, len(runs), 25)]}


@pytest.fixture(scope="module")
def trend_runs(trend_batch):
    return trend_batch["reaches"]


def test_trend_batch_traces_equal_run_single(trend_batch):
    """The pooled traces behind criteria 6 and 7 are the serial path's, bit for bit."""
    for run, trace in trend_batch["sample"]:
        want = run_single(**run)
        assert trace.stop_reason == want.stop_reason
        assert [(r.index, r.value, r.overlap, r.bitstring, r.bitstring_value) for r in trace.records] == \
            [(r.index, r.value, r.overlap, r.bitstring, r.bitstring_value) for r in want.records]
        assert all(np.array_equal(a.theta, b.theta) for a, b in zip(trace.records, want.records))
    print(f"\n[trend batch] {len(trend_batch['sample'])} pooled traces equal run_single's")


def _median(values):
    ordered = sorted(values)
    k = len(ordered)
    return ordered[k // 2] if k % 2 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2


def test_criterion_06_small_alpha_reaches_overlap_faster(trend_runs):
    """Fraction reaching 1% overlap and median time-to-1%: alpha=0.10 vs 1.00."""
    start = time.monotonic()
    small, full = trend_runs[("vqe", 1, 0.10)]["r1"], trend_runs[("vqe", 1, 1.00)]["r1"]
    frac_small = np.mean([t < math.inf for t in small])
    frac_full = np.mean([t < math.inf for t in full])
    med_small, med_full = _median(small), _median(full)
    assert frac_small >= frac_full
    assert med_small < med_full
    announce(
        6,
        f"alpha=0.10 frac {frac_small:.2f} >= alpha=1.00 frac {frac_full:.2f}; "
        f"median reach {med_small:.1f} < {med_full if med_full < math.inf else 'inf'} "
        f"({time.monotonic() - start:.0f}s on top of shared batch)",
    )


def test_criterion_07_layered_beats_alternating_at_equal_depth(trend_runs):
    """Fraction reaching 10% overlap: layered p=1 vs alternating p=2 (alpha=0.10)."""
    vqe = np.mean([t < math.inf for t in trend_runs[("vqe", 1, 0.10)]["r10"]])
    qaoa = np.mean([t < math.inf for t in trend_runs[("qaoa", 2, 0.10)]["r10"]])
    assert vqe >= qaoa
    announce(7, f"10%-overlap fraction: layered {vqe:.2f} >= alternating {qaoa:.2f}")


def test_criterion_08_sampled_estimator_consistency():
    """Sampled CVaR mean over 100 seeds within 3 empirical SEs of exact."""
    ham = qubo_to_hamiltonian(portfolio_qubo())
    spec = AnsatzSpec("vqe", n=6, p=1, entanglement="ring")
    rng = np.random.default_rng(80)
    worst_ratio = 0.0
    for _ in range(20):
        state = trial_state(spec, rng.uniform(-np.pi, np.pi, spec.parameter_count))
        d = outcome_distribution(state, ham)
        for alpha in (0.1, 0.25, 1.0):
            exact = cvar_exact(d, alpha)
            draws = np.array(
                [
                    cvar_sampled(state, ham, CvarConfig(alpha, "sampled", shots=8192, seed=s))
                    for s in range(100)
                ]
            )
            se = draws.std(ddof=1) / math.sqrt(100)
            deviation = abs(draws.mean() - exact)
            assert deviation <= 3.0 * se
            worst_ratio = max(worst_ratio, deviation / se if se > 0 else 0.0)
    announce(8, f"60 state/alpha pairs within 3 SEs (worst |dev|/SE {worst_ratio:.2f})")


def test_criterion_09_sweep_is_byte_deterministic():
    """Two sweeps with identical config produce byte-identical CSV."""
    cfg = ExperimentConfig(
        problems=("maxcut", "portfolio"),
        sizes=(4, 6),
        instances_per_size=2,
        alphas=(0.25, 1.0),
        vqe_depths=(1,),
        qaoa_depths=(1,),
        iteration_budget_per_qubit=10,
        master_seed=9,
    )
    first = run_sweep(cfg).to_csv().encode()
    second = run_sweep(cfg).to_csv().encode()
    assert first == second
    announce(9, f"identical CSVs ({len(first)} bytes)")


def test_criterion_10_portfolio_regression():
    """Frozen optimum of the six-asset case; the optimum satisfies the budget."""
    frozen = fixtures.load_golden_json()["portfolio_optimum"]
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(portfolio_qubo()))
    assert truth.min_value == frozen["value"]
    assert list(truth.minimizers) == frozen["bitstrings"]
    for j in truth.minimizers:
        assert bin(j).count("1") == fixtures.PORTFOLIO_BUDGET
    announce(10, f"optimum {truth.min_value!r} at bitstrings {list(truth.minimizers)}, budget met")
