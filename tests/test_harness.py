import hashlib
import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarqopt import fixtures, hamiltonian, harness
from cvarqopt.hamiltonian import DiagonalHamiltonian, qubo_to_hamiltonian
from cvarqopt.objective import (
    CvarConfig,
    OutcomeDistribution,
    best_support_bitstring,
    cvar_exact,
    cvar_from_samples,
    overlap_with_optimum,
    sample_outcomes,
)
from cvarqopt.harness import (
    CSV_HEADER,
    ExperimentConfig,
    RunFailure,
    SweepResult,
    aggregate_fraction_curves,
    derive_seed,
    initial_parameters,
    make_objective,
    make_scorer,
    run_batch,
    run_single,
    run_sweep,
    trace_to_rows,
)
from cvarqopt.optimizer import ObjectiveValueError, OptimizerConfig, best_observed_solution, minimize
from cvarqopt.oracle import enumerate_hamiltonian, ground_value
from cvarqopt.problems import InstanceSpec, generate, portfolio_qubo
from cvarqopt.statevector import StateVector

REF_H = fixtures.two_qubit_hamiltonian()

TINY = dict(
    problems=("maxcut",),
    sizes=(4,),
    instances_per_size=2,
    alphas=(0.25, 1.0),
    vqe_depths=(1,),
    qaoa_depths=(1,),
    iteration_budget_per_qubit=10,
)


def reference_objective(alpha):
    return make_objective(
        REF_H, lambda t: fixtures.two_qubit_circuit(float(t[0])), alpha, mode="exact"
    )


@st.composite
def scored_states(draw):
    """A Hamiltonian whose table holds ties (values from a small range) and a float64 or
    complex state on n = 1 to 12 qubits in which some basis states have zero probability."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(-draw(st.integers(0, 6)), 7, 2**n).astype(float)
    dtype = draw(st.sampled_from([np.float64, complex]))
    amps = rng.normal(size=2**n).astype(dtype)
    if dtype is complex:
        amps.imag = rng.normal(size=2**n)
    zero = rng.random(2**n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    amps[zero] = np.where(rng.random(2**n) < 0.5, -0.0, 0.0)[zero]
    amps[int(rng.integers(2**n))] = 1.0  # every state has a norm
    alpha = draw(st.sampled_from([0.01, 0.1, 0.5, 1.0]) | st.floats(1e-3, 1.0))
    return DiagonalHamiltonian(n, table), StateVector(n, amps / np.linalg.norm(amps)), alpha


@settings(deadline=None, max_examples=150)
@given(scored_states(), st.sampled_from(["exact", "sampled"]))
def test_scorer_equals_the_public_distribution_cvar_and_extras_exactly(case, mode):
    """The run path's scorer gives, bit for bit, what the public objective functions give
    when each computes from the state alone: the distribution from the public constructor
    over the table's distinct values, its exact CVaR or the CVaR of the same shots, and
    the overlap and best bitstring."""
    ham, state, alpha = case
    seed = 7
    score = make_scorer(ham, alpha, mode, 64, np.random.Generator(np.random.PCG64(seed)))
    value, extras = score(state)
    a = state.amplitudes
    probs = a * a if a.dtype == np.float64 else np.abs(a) ** 2
    assert state.probabilities.tobytes() == probs.tobytes()  # the state's own array, which the scorer reads
    distinct, inverse = np.unique(ham.table, return_inverse=True)
    merged = np.bincount(inverse, weights=probs)
    if mode == "exact":
        want = cvar_exact(OutcomeDistribution(distinct[merged > 0], merged[merged > 0]), alpha)
        bitstring, bit_value = best_support_bitstring(state, ham)
    else:
        indices, shots = sample_outcomes(state, ham, 64, np.random.Generator(np.random.PCG64(seed)))
        want = cvar_from_samples(shots, alpha)
        bitstring, bit_value = int(indices[np.argmin(shots)]), float(shots.min())
    got = np.array([value, extras["overlap"], extras["bitstring_value"]])
    assert got.tobytes() == np.array([want, overlap_with_optimum(state, ham), bit_value]).tobytes()
    assert extras["bitstring"] == bitstring


def test_reference_case_converges_to_high_overlap():
    cfg = OptimizerConfig(max_evaluations=120, initial_point=np.array([np.pi / 2]))
    trace = minimize(reference_objective(0.5), cfg)
    assert trace.records[-1].overlap >= 0.49
    assert best_observed_solution(trace) == (0, 0.0)


def test_reference_case_mean_objective_makes_no_progress():
    theta0 = np.array([np.pi / 2])
    cfg = OptimizerConfig(max_evaluations=120, initial_point=theta0)
    trace = minimize(reference_objective(1.0), cfg)
    # the landscape is constant: every evaluation sits at 1 and nothing guides
    # the search toward the 0.5-overlap concentration the tail objective finds
    assert all(r.value == pytest.approx(1.0, abs=1e-9) for r in trace.records)
    assert trace.records[-1].overlap < 0.45
    assert max(r.overlap for r in trace.records) < 0.45


def test_portfolio_run_regression_is_reproducible():
    data = fixtures.load_golden_json()["portfolio_run_regression"]
    trace = run_single(
        portfolio_qubo(), algo=data["algo"], p=data["p"], alpha=data["alpha"],
        mode="sampled", shots=data["shots"], seed=data["seed"],
        entanglement="ring", initial_point="zeros",
    )
    assert trace.n_evaluations == data["n_evaluations"]
    assert trace.best_value == data["best_value"]
    bitstring, bit_value = best_observed_solution(trace)
    assert bitstring == data["best_bitstring"]
    assert bit_value == data["best_bitstring_value"]
    # the frozen snapshot is also held to a value the optimizer did not produce
    truth = enumerate_hamiltonian(qubo_to_hamiltonian(portfolio_qubo()))
    assert truth.minimizers == (bitstring,)
    assert bit_value == truth.min_value
    for index, overlap in data["overlap_checkpoints"].items():
        assert trace.records[int(index) - 1].overlap == pytest.approx(overlap, abs=1e-12)


def test_run_single_exact_records_everything():
    qubo = generate(InstanceSpec("maxcut", 4, 0))
    trace = run_single(qubo, "vqe", p=1, alpha=0.25, seed=3, initial_point="random")
    assert 1 <= trace.n_evaluations <= 200
    gmin = ground_value(qubo_to_hamiltonian(qubo))
    for r in trace.records:
        assert 0.0 <= r.overlap <= 1.0
        assert r.value >= gmin - 1e-9
        assert r.bitstring is not None


@pytest.mark.parametrize("algo,p", [("vqe", 1), ("qaoa", 2)])
def test_run_single_computes_the_cost_diagonal_once(monkeypatch, algo, p):
    calls = []

    def counting(*args):
        calls.append(args[0])
        return spin_table(*args)

    spin_table = hamiltonian._spin_table
    monkeypatch.setattr(hamiltonian, "_spin_table", counting)
    qubo = generate(InstanceSpec("maxcut", 5, 2))
    trace = run_single(qubo, algo, p=p, alpha=0.25, seed=3, max_evaluations=12)
    assert trace.n_evaluations == 12
    assert calls == [5]  # the Hamiltonian and the qaoa cost layers share one table


def test_run_single_seed_controls_everything():
    qubo = generate(InstanceSpec("portfolio", 4, 1))
    a = run_single(qubo, "qaoa", p=1, alpha=0.1, mode="sampled", seed=9, initial_point="random")
    b = run_single(qubo, "qaoa", p=1, alpha=0.1, mode="sampled", seed=9, initial_point="random")
    c = run_single(qubo, "qaoa", p=1, alpha=0.1, mode="sampled", seed=10, initial_point="random")
    assert a.n_evaluations == b.n_evaluations
    assert all(x.value == y.value for x, y in zip(a.records, b.records))
    assert any(x.value != y.value for x, y in zip(a.records, c.records))


def test_initial_parameters_modes():
    assert np.array_equal(initial_parameters(3, "zeros"), np.zeros(3))
    r1 = initial_parameters(5, "random", seed=4)
    assert np.array_equal(r1, initial_parameters(5, "random", seed=4))
    assert np.all(np.abs(r1) <= np.pi)
    with pytest.raises(ValueError):
        initial_parameters(2, "sobol")


def test_derive_seed_is_stable_and_key_sensitive():
    s = derive_seed(7, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s == derive_seed(7, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s != derive_seed(8, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s != derive_seed(7, "run", "maxcut", 10, 1, "vqe", 1, 0.1)
    assert 0 <= s < 2**63
    assert s == int.from_bytes(hashlib.sha256(b"7/run/maxcut/10/0/vqe/1/0.1").digest()[:8], "big") % 2**63


@pytest.mark.parametrize("bad", [True, 1.7, "1", None])
def test_derive_seed_takes_a_whole_master_seed(bad):
    """`int()` would read 1.7 and True as 1, so two different configs would share every seed."""
    with pytest.raises(ValueError, match=f"^master_seed takes integers, got {bad!r}$"):
        derive_seed(bad, "x")
    assert derive_seed(2.0, "x") == derive_seed(np.int64(2), "x") == derive_seed(2, "x")


def test_sweep_rows_are_complete_and_deterministic():
    cfg = ExperimentConfig(**TINY)
    res1 = run_sweep(cfg)
    res2 = run_sweep(cfg)
    assert res1.to_csv() == res2.to_csv()
    assert not res1.failures
    combos = {(r[0], r[1], r[2], r[3], r[4], r[5]) for r in res1.rows}
    assert len(combos) == 2 * 2 * 2  # instances x algos x alphas
    for problem, n, seed, algo, p, alpha, ev, ni, obj, ov in res1.rows:
        assert ni == ev / n
        assert 0.0 <= ov <= 1.0


# the grid of acceptance criterion 9, 1484 rows
CRITERION_9 = dict(problems=("maxcut", "portfolio"), sizes=(4, 6), instances_per_size=2, alphas=(0.25, 1.0),
                   vqe_depths=(1,), qaoa_depths=(1,), iteration_budget_per_qubit=10, master_seed=9)
# a sampled sweep over all six generators at n=6 and 8, 6633 rows
SAMPLED = dict(sizes=(6, 8), instances_per_size=1, alphas=(0.05, 0.25, 1.0), vqe_depths=(0, 1), qaoa_depths=(1, 2),
               mode="sampled", shots=2048, master_seed=4, iteration_budget_per_qubit=15)
# ring entanglement at n=3 and 4
RING = dict(problems=("maxcut", "max3sat"), sizes=(3, 4), instances_per_size=1, alphas=(0.5,),
            vqe_depths=(0, 1, 2), qaoa_depths=(1,), entanglement="ring", iteration_budget_per_qubit=6)


# SHA-256 of the CSV bytes as this x86-64 host computes them with its numpy and
# OpenBLAS builds; they are not yet portable: another BLAS kernel or SIMD level
# can move the last bits (ROADMAP item 1)
CRITERION_9_SHA256 = "a93b2c56c5ef2b6b89e2a82e042073a0940957b82c1c10c1986d1986185ebb10"
SAMPLED_SHA256 = "7265b03b5d5938f545f451ee9f6af18131b1929d94b88c01730bf56a7df47e13"


@pytest.mark.parametrize("grid, fail, rows, failures, sha256", [
    (TINY, False, None, 0, None),
    (CRITERION_9, False, 1484, 0, CRITERION_9_SHA256),
    (SAMPLED, False, 6633, 0, SAMPLED_SHA256),
    ({**TINY, "problems": ("maxcut", "portfolio")}, True, None, 8, None),
    (RING, False, None, 0, None),
], ids=["tiny", "criterion-9", "sampled", "failing", "ring-single-runs"])
def test_sweep_workers_do_not_change_bytes(request, grid, fail, rows, failures, sha256):
    """Rows, CSV bytes and failure messages from pool workers equal the serial path's, and the
    pinned sweeps keep their bytes."""
    if fail:
        request.getfixturevalue("portfolio_runs_fail")
    serial = run_sweep(ExperimentConfig(**grid))
    pooled = run_sweep(ExperimentConfig(**grid, workers=2))
    assert multiprocessing.active_children() == []  # the pool is shut down
    assert pooled.to_csv() == serial.to_csv()
    assert pooled.failures == serial.failures and len(serial.failures) == failures
    assert len(pooled.tracebacks) == failures
    assert rows is None or len(serial.rows) == rows
    assert sha256 is None or hashlib.sha256(serial.to_csv().encode()).hexdigest() == sha256


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_run_batch_traces_equal_run_single(mode):
    """Pooled runs that stop at different evaluations keep their own traces and stop reasons."""
    runs = [dict(qubo=generate(InstanceSpec(problem, 5, s)), algo=algo, p=p, alpha=alpha, mode=mode, shots=256,
                 seed=s, initial_point="random", max_evaluations=budget)
            for s, problem in enumerate(("maxcut", "portfolio", "partition"))
            for algo, p in (("vqe", 1), ("qaoa", 2))
            for alpha, budget in ((0.2, 400), (1.0, 30))]
    pooled = run_batch(runs, workers=2)
    assert multiprocessing.active_children() == []
    reasons = set()
    for run, trace in zip(runs, pooled):
        assert_same_trace(trace, run_single(**run))
        reasons.add(trace.stop_reason)
    assert reasons == {"budget", "converged"}


def assert_same_trace(got, want):
    assert got.stop_reason == want.stop_reason
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert np.array_equal(a.theta, b.theta)
        assert (a.index, a.value, a.overlap, a.bitstring, a.bitstring_value) == \
            (b.index, b.value, b.overlap, b.bitstring, b.bitstring_value)


def test_lockstep_row_with_a_non_finite_objective_fails_alone(monkeypatch):
    """On a pool, the run fails with the serial path's message at the same evaluation; the others run on
    unchanged.  The pool's workers fork after the patch, so they run the patched `cvar_exact`."""
    runs = [dict(qubo=generate(InstanceSpec("maxcut", 5, s)), algo="vqe", p=1, alpha=alpha, seed=s,
                 initial_point="random", max_evaluations=60) for s, alpha in enumerate((0.25, 0.3, 0.5))]
    expected = [run_single(**run) for run in runs]
    cvar_exact = harness.cvar_exact

    def nan_at_seventh(calls):
        def cvar(dist, alpha):
            if alpha == 0.3:
                calls.append(alpha)
                if len(calls) == 7:
                    return math.nan
            return cvar_exact(dist, alpha)
        return cvar

    monkeypatch.setattr(harness, "cvar_exact", nan_at_seventh([]))
    with pytest.raises(ObjectiveValueError) as serial:
        run_single(**runs[1])
    monkeypatch.setattr(harness, "cvar_exact", nan_at_seventh([]))
    outcomes = run_batch(runs, workers=2)
    assert isinstance(outcomes[1], RunFailure)
    assert outcomes[1].message == str(serial.value)
    assert str(serial.value).startswith("objective returned nan at evaluation 7, theta=")
    assert "ObjectiveValueError" in outcomes[1].traceback
    for i in (0, 2):
        assert_same_trace(outcomes[i], expected[i])


def test_run_batch_reports_failed_runs_in_place_on_both_paths():
    good = dict(qubo=generate(InstanceSpec("maxcut", 4, 0)), algo="vqe", p=1, alpha=0.5, max_evaluations=12)
    runs = [good, {**good, "initial_point": "bogus"}, {**good, "algo": "annealer"}, good]
    for workers in (1, 2):
        outcomes = run_batch(runs, workers=workers)
        assert [type(o).__name__ for o in outcomes] == ["RunTrace", "RunFailure", "RunFailure", "RunTrace"]
        assert "unknown initial point mode" in outcomes[1].message
        assert "unknown family" in outcomes[2].message
    with pytest.raises(TypeError):
        run_batch([{**good, "bogus": 1}], workers=2)
    for workers in (0, -3, 2.5):
        with pytest.raises(ValueError, match="workers"):
            run_batch([good], workers=workers)


def test_run_batch_workers_take_whole_numbers():
    good = dict(qubo=generate(InstanceSpec("maxcut", 4, 0)), algo="vqe", p=1, alpha=0.5, max_evaluations=12)
    for bad in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="workers takes integers"):
            run_batch([good], workers=bad)
    assert_same_trace(run_batch([good], workers=2.0)[0], run_batch([good], workers=1)[0])


@pytest.mark.parametrize("field,bad", [("p", 1.5), ("p", True), ("max_evaluations", 30.5), ("max_evaluations", True)])
def test_run_single_depth_and_budget_take_whole_numbers(field, bad):
    """A fraction or a bool is a usage error naming the field; a whole float runs as its int."""
    qubo = generate(InstanceSpec("maxcut", 4, 0))
    args = dict(algo="vqe", p=1, alpha=0.5, max_evaluations=30)
    with pytest.raises(ValueError, match=f"^{field} takes integers, got {bad!r}$"):
        run_single(qubo, **{**args, field: bad})
    assert_same_trace(run_single(qubo, **{**args, field: float(args[field])}), run_single(qubo, **args))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_run_single_default_seed_is_reproducible(mode):
    """The default seed is 0, not fresh OS entropy: two identical calls give one trace."""
    qubo = generate(InstanceSpec("maxcut", 4, 1))
    args = dict(algo="vqe", p=1, alpha=0.5, mode=mode, shots=64, max_evaluations=10, initial_point="random")
    assert_same_trace(run_single(qubo, **args), run_single(qubo, **args))
    assert_same_trace(run_single(qubo, **args), run_single(qubo, **args, seed=0))


@pytest.mark.parametrize("bad", [None, True, 1.5, "3"])
def test_run_single_seed_takes_whole_numbers(bad):
    """A bool is not seed 1, and None does not draw a seed from the OS; a whole float runs as its int."""
    qubo = generate(InstanceSpec("maxcut", 4, 0))
    args = dict(algo="vqe", p=1, alpha=0.5, mode="sampled", shots=64, max_evaluations=10)
    with pytest.raises(ValueError, match=f"^seed takes integers, got {bad!r}$"):
        run_single(qubo, **args, seed=bad)
    assert_same_trace(run_single(qubo, **args, seed=2.0), run_single(qubo, **args, seed=2))


SEEDED = {  # every entry point whose seed reaches a PRNG, called with a given seed
    "CvarConfig": lambda seed: CvarConfig(0.5, "sampled", shots=8, seed=seed).seed,
    "run_single": lambda seed: [r.value for r in run_single(generate(InstanceSpec("maxcut", 3, 0)), "vqe", p=0,
                                                            alpha=0.5, seed=seed, max_evaluations=5,
                                                            initial_point="random").records],
    "InstanceSpec": lambda seed: generate(InstanceSpec("maxcut", 4, seed)).A.tolist(),
    "initial_parameters": lambda seed: initial_parameters(3, "random", seed=seed).tolist(),
}


@pytest.mark.parametrize("entry", SEEDED)
@pytest.mark.parametrize("bad, message", [(-1, "seed must be >= 0, got -1"), (True, "seed takes integers, got True"),
                                          (None, "seed takes integers, got None"), (1.5, "seed takes integers, got 1.5")])
def test_a_seed_is_a_whole_number_of_at_least_zero(entry, bad, message):
    """A negative seed fails where it is given, naming the seed, not later in numpy; 2.0 runs as 2."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        SEEDED[entry](bad)
    assert SEEDED[entry](2.0) == SEEDED[entry](2)


def test_a_negative_master_seed_is_still_a_hash_key():
    assert derive_seed(-1, "x") != derive_seed(1, "x") and derive_seed(-1, "x") >= 0


def test_random_initial_points_default_to_seed_zero():
    assert np.array_equal(initial_parameters(3, "random"), initial_parameters(3, "random"))
    assert np.array_equal(initial_parameters(3, "random"), initial_parameters(3, "random", seed=0))


def test_sweep_csv_round_trip():
    res = run_sweep(ExperimentConfig(**TINY))
    text = res.to_csv()
    assert text.splitlines()[0] == CSV_HEADER
    back = SweepResult.from_csv(text)
    assert back.rows == res.rows


@pytest.mark.parametrize(
    "bad_row, detail",
    [
        ("maxcut,4,1,vqe,1,0.25,2,0.5,-1.5", "got 9"),
        ("maxcut,4,1,vqe,1,0.25,2,0.5,abc,0.5", "could not convert string to float: 'abc'"),
    ],
    ids=["short-row", "non-numeric-field"],
)
def test_sweep_csv_rejects_malformed_rows_by_line(bad_row, detail):
    text = f"{CSV_HEADER}\nmaxcut,4,1,vqe,1,0.25,1,0.25,-1.0,0.5\n{bad_row}\n"
    with pytest.raises(ValueError) as err:
        SweepResult.from_csv(text)
    assert str(err.value).startswith("sweep CSV line 3: expected 10 fields")
    assert str(err.value).endswith(detail)


def test_sweep_records_failures_and_continues(portfolio_runs_fail):
    cfg = ExperimentConfig(**{**TINY, "problems": ("maxcut", "portfolio")})
    res = run_sweep(cfg)
    assert len(res.failures) == 8  # 2 instances x 2 algorithms x 2 alphas
    assert all(kind == "run" and msg.startswith("portfolio/") and "injected portfolio failure" in msg
               for kind, msg in res.failures)
    assert res.rows and {r[0] for r in res.rows} == {"maxcut"}


def test_sweep_skips_invalid_max3sat_sizes():
    cfg = ExperimentConfig(**{**TINY, "problems": ("max3sat",), "sizes": (4, 6), "instances_per_size": 1})
    res = run_sweep(cfg)
    assert {r[1] for r in res.rows} == {6}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_are_the_grid_runs_in_grid_order(workers):
    """Each grid key runs once with seeds derived from its key and a budget of per_qubit * n."""
    cfg = ExperimentConfig(problems=("maxcut", "max3sat"), sizes=(4, 6), instances_per_size=1,
                           alphas=(0.5,), vqe_depths=(0,), qaoa_depths=(1,),
                           iteration_budget_per_qubit=4, master_seed=5, workers=workers)
    expected = []
    for problem, n in (("maxcut", 4), ("maxcut", 6), ("max3sat", 6)):
        inst_seed = derive_seed(5, "instance", problem, n, 0)
        qubo = generate(InstanceSpec(problem, n, inst_seed))
        for algo, p in (("vqe", 0), ("qaoa", 1)):
            trace = run_single(qubo, algo, p, 0.5, seed=derive_seed(5, "run", problem, n, 0, algo, p, 0.5),
                               max_evaluations=4 * n, initial_point="random")
            expected += trace_to_rows(trace, problem, n, inst_seed, algo, p, 0.5)
    result = run_sweep(cfg)
    assert not result.failures
    assert result.rows == expected


@pytest.mark.parametrize("change", [
    {"alphas": ()},
    {"instances_per_size": 0},
    {"vqe_depths": (), "qaoa_depths": ()},
    {"problems": ("max3sat",), "sizes": (4, 5)},
], ids=["no-alphas", "no-instances", "no-depths", "no-max3sat-size"])
def test_config_rejects_a_grid_with_no_runs(change):
    with pytest.raises(ValueError, match="no runs"):
        ExperimentConfig(**{**TINY, **change})


@pytest.mark.parametrize("change, message", [
    ({"entanglement": "bogus"}, "unknown entanglement"),
    ({"initial_point": "bogus"}, "unknown initial point mode"),
    ({"sizes": (0,)}, "n_qubits must be positive"),
    ({"sizes": (21,)}, "qubit count must be in"),
    ({"iteration_budget_per_qubit": 0}, "max_evaluations must be >="),
    ({"iteration_budget_per_qubit": 1}, "max_evaluations must be >="),
    ({"vqe_depths": (-1,)}, "vqe depth must be >= 0"),
    ({"qaoa_depths": (0,)}, "qaoa depth must be >= 1"),
    ({"sizes": (2, 4), "entanglement": "ring"}, "ring entanglement needs n >= 3"),
    ({"workers": 0}, "workers must be >= 1"),
    ({"workers": -3}, "workers must be >= 1"),
    ({"workers": 2.5}, "workers takes integers"),
    ({"master_seed": "abc"}, "master_seed takes integers"),
    ({"master_seed": 1.5}, "master_seed takes integers"),
    ({"mode": "sampled", "shots": 64.5}, "shots takes integers"),
    ({"iteration_budget_per_qubit": 4.5}, "iteration_budget_per_qubit takes integers"),
    ({"sizes": (6.5,)}, "sizes takes integers"),
    ({"instances_per_size": True}, "instances_per_size takes integers"),
    ({"qaoa_depths": ("1",)}, "qaoa_depths takes integers"),
    ({"alphas": ("0.5", 1.0)}, "alphas takes numbers"),
    ({"alphas": (0.5, True)}, "alphas takes numbers"),
], ids=["entanglement", "initial-point", "size-zero", "size-too-large", "no-budget", "budget-below-simplex",
        "vqe-depth", "qaoa-depth", "ring-too-small", "no-workers", "negative-workers", "fractional-workers",
        "string-seed", "fractional-seed", "fractional-shots", "fractional-budget", "fractional-size", "bool-instances",
        "string-depth", "string-alpha", "bool-alpha"])
def test_config_rejects_a_run_shape_no_run_can_execute(change, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{**TINY, **change})


@pytest.mark.parametrize("field, values, repeated", [
    ("problems", ("maxcut", "portfolio", "maxcut"), "'maxcut'"),
    ("sizes", (4, 4), "4"),
    ("sizes", (4, 4.0), "4"),
    ("alphas", (0.1, 0.25, 0.10), "0.1"),
    ("vqe_depths", (1, 0, 1), "1"),
    ("qaoa_depths", (2, 2), "2"),
])
def test_config_rejects_a_repeated_grid_value(field, values, repeated):
    """A repeated value would run each of its grid keys twice and write its rows twice."""
    message = f"{field} repeats {repeated}; list each value once"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{**TINY, field: values})
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(json.dumps({**TINY, field: list(values)}))


def test_config_takes_integral_floats_as_integers():
    cfg = ExperimentConfig(**{**TINY, "sizes": (4.0,), "master_seed": 7.0, "workers": 2.0})
    assert cfg.sizes == (4,) and cfg.master_seed == 7 and cfg.workers == 2
    assert all(type(v) is int for v in (cfg.sizes[0], cfg.master_seed, cfg.workers))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problems=())
    with pytest.raises(ValueError):
        ExperimentConfig(alphas=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="hardware")
    with pytest.raises(TypeError):
        ExperimentConfig.from_json('{"bogus_field": 1}')


def test_config_rejects_unknown_problems_and_sampling_without_shots():
    with pytest.raises(ValueError, match="maxcat"):
        ExperimentConfig(problems=("maxcut", "maxcat"))
    for shots in (0, -5):
        with pytest.raises(ValueError, match="shot count must be >= 1"):
            ExperimentConfig(mode="sampled", shots=shots)
    assert ExperimentConfig(mode="exact", shots=0).shots == 0  # exact mode draws no shots


def test_config_json_round_trip():
    cfg = ExperimentConfig(**TINY)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def synthetic_result():
    rows = []
    # two instances of one config; overlaps rise with eval index
    for seed, reach_eval in ((11, 2), (12, 6)):
        for ev in range(1, 9):
            ov = 0.5 if ev >= reach_eval else 0.0
            rows.append(("maxcut", 4, seed, "vqe", 1, 0.25, ev, ev / 4, -1.0, ov))
    return SweepResult(rows)


def test_fraction_curves_step_at_reach_points():
    curves = aggregate_fraction_curves(synthetic_result(), threshold=0.1)
    assert curves == [("vqe", 1, 0.25, 0.5, 0.5), ("vqe", 1, 0.25, 1.5, 1.0)]
    fracs = [c[4] for c in curves]
    assert fracs == sorted(fracs)


def test_fraction_curves_empty_when_never_reached():
    curves = aggregate_fraction_curves(synthetic_result(), threshold=0.9)
    assert curves == []


def test_threshold_validation():
    with pytest.raises(ValueError):
        aggregate_fraction_curves(synthetic_result(), threshold=1.0)


def test_trace_to_rows_layout():
    qubo = generate(InstanceSpec("maxcut", 4, 5))
    trace = run_single(qubo, "vqe", p=0, alpha=0.5, seed=0, max_evaluations=20)
    rows = trace_to_rows(trace, "maxcut", 4, 5, "vqe", 0, 0.5)
    assert len(rows) == trace.n_evaluations
    assert rows[0][:7] == ("maxcut", 4, 5, "vqe", 0, 0.5, 1)


def test_make_objective_sampled_needs_rng():
    with pytest.raises(ValueError):
        make_objective(REF_H, lambda t: fixtures.two_qubit_circuit(0.0), 0.5, mode="sampled")
    with pytest.raises(ValueError):
        make_objective(REF_H, lambda t: fixtures.two_qubit_circuit(0.0), 0.5, mode="shots")
    for shots in (0, -3):
        with pytest.raises(ValueError, match="shot count must be >= 1"):
            make_objective(REF_H, lambda t: fixtures.two_qubit_circuit(0.0), 0.5, mode="sampled",
                           shots=shots, sample_rng=np.random.default_rng(0))


def test_unknown_algo_rejected():
    with pytest.raises(ValueError):
        run_single(generate(InstanceSpec("maxcut", 4, 0)), "annealer", p=1, alpha=0.5)


@pytest.mark.parametrize("alpha, mode, shots, message", [
    (True, "exact", 8192, "alpha must be a number in \\(0, 1\\], got True"),
    ("0.5", "exact", 8192, "alpha must be a number in \\(0, 1\\], got '0.5'"),
    (0.5, "sampled", 2.5, "shots takes integers, got 2.5"),
    (0.5, "sampled", True, "shots takes integers, got True"),
], ids=["bool-alpha", "string-alpha", "fractional-shots", "bool-shots"])
def test_run_rejects_an_alpha_or_shot_count_of_the_wrong_type(alpha, mode, shots, message):
    """Checked before the first evaluation, not run as alpha=1 or failed at the first draw."""
    qubo = generate(InstanceSpec("maxcut", 3, 0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_single(qubo, "vqe", p=1, alpha=alpha, mode=mode, shots=shots)


def test_a_whole_float_shot_count_draws_that_many_shots():
    qubo = generate(InstanceSpec("maxcut", 3, 0))
    runs = [run_single(qubo, "vqe", p=1, alpha=0.5, mode="sampled", shots=shots, seed=1, max_evaluations=9)
            for shots in (64, 64.0)]
    assert [r.value for r in runs[0].records] == [r.value for r in runs[1].records]
