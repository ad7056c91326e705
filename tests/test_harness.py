import math

import numpy as np
import pytest

from cvarqopt import fixtures, hamiltonian
from cvarqopt.hamiltonian import qubo_to_hamiltonian
from cvarqopt.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SweepResult,
    aggregate_fraction_curves,
    derive_seed,
    fraction_reached,
    initial_parameters,
    make_objective,
    median_reach,
    run_single,
    run_sweep,
    trace_to_rows,
)
from cvarqopt.optimizer import OptimizerConfig, best_observed_solution, minimize
from cvarqopt.oracle import enumerate_hamiltonian, ground_value
from cvarqopt.problems import InstanceSpec, generate, portfolio_qubo

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
    assert np.array_equal(initial_parameters(2, [0.5, 0.25]), [0.5, 0.25])
    with pytest.raises(ValueError):
        initial_parameters(2, "sobol")


def test_derive_seed_is_stable_and_key_sensitive():
    s = derive_seed(7, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s == derive_seed(7, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s != derive_seed(8, "run", "maxcut", 10, 0, "vqe", 1, 0.1)
    assert s != derive_seed(7, "run", "maxcut", 10, 1, "vqe", 1, 0.1)
    assert 0 <= s < 2**63


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


def test_sweep_workers_do_not_change_bytes():
    cfg1 = ExperimentConfig(**TINY)
    cfg2 = ExperimentConfig(**{**TINY, "workers": 2})
    assert run_sweep(cfg1).to_csv() == run_sweep(cfg2).to_csv()


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


def test_sweep_records_failures_and_continues():
    # budget 1*n is below dim+2 for the layered family but fine for p=1 alternating
    cfg = ExperimentConfig(**{**TINY, "iteration_budget_per_qubit": 1})
    res = run_sweep(cfg)
    assert res.failures and all("max_evaluations" in msg for _, msg in res.failures)
    assert res.rows and {r[3] for r in res.rows} == {"qaoa"}


def test_sweep_skips_invalid_max3sat_sizes():
    cfg = ExperimentConfig(**{**TINY, "problems": ("max3sat",), "sizes": (4, 6), "instances_per_size": 1})
    res = run_sweep(cfg)
    assert {r[1] for r in res.rows} == {6}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problems=())
    with pytest.raises(ValueError):
        ExperimentConfig(alphas=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="hardware")
    with pytest.raises(TypeError):
        ExperimentConfig.from_json('{"bogus_field": 1}')


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
    assert fraction_reached(synthetic_result(), "vqe", 1, 0.25, 0.9) == 0.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        aggregate_fraction_curves(synthetic_result(), threshold=1.0)


def test_fraction_and_median_helpers():
    res = synthetic_result()
    assert fraction_reached(res, "vqe", 1, 0.25, 0.1) == 1.0
    assert median_reach(res, "vqe", 1, 0.25, 0.1) == (0.5 + 1.5) / 2
    assert median_reach(res, "vqe", 1, 0.25, 0.9) == math.inf


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


def test_unknown_algo_rejected():
    with pytest.raises(ValueError):
        run_single(generate(InstanceSpec("maxcut", 4, 0)), "annealer", p=1, alpha=0.5)
