import numpy as np
import pytest

from cvarqopt.optimizer import (
    EvalRecord,
    ObjectiveValueError,
    OptimizerConfig,
    RunTrace,
    best_observed_solution,
    minimize,
)


def cfg(x0, budget=200, **kw):
    return OptimizerConfig(max_evaluations=budget, initial_point=np.asarray(x0, float), **kw)


def test_convex_quadratic_converges():
    trace = minimize(lambda t: float(np.sum(t**2)), cfg([1.0, 1.0]))
    assert trace.best_value < 1e-6
    assert trace.n_evaluations <= 200


def test_stop_reasons():
    quadratic = lambda t: float(np.sum((t - 0.3) ** 2))
    converged = minimize(quadratic, cfg([1.0, -1.0]))
    assert converged.stop_reason == "converged" and converged.n_evaluations < 200
    capped = minimize(quadratic, cfg(np.zeros(4), budget=10))
    assert capped.stop_reason == "budget" and capped.n_evaluations == 10
    assert RunTrace().stop_reason is None


def test_periodic_valley_converges_to_origin():
    trace = minimize(lambda t: float(np.sin(t[0] / 2) ** 2), cfg([np.pi / 2]))
    assert trace.best_value < 1e-6
    residue = np.mod(trace.best_point[0], 2 * np.pi)
    assert min(residue, 2 * np.pi - residue) < 1e-2


def test_constant_objective_terminates():
    trace = minimize(lambda t: 7.25, cfg([0.0, 0.0, 0.0], budget=100))
    assert trace.best_value == 7.25
    assert trace.n_evaluations <= 100


def test_budget_is_a_hard_cap():
    calls = [0]

    def f(t):
        calls[0] += 1
        return float(np.sum((t - 3) ** 2))

    trace = minimize(f, cfg(np.zeros(4), budget=20))
    assert calls[0] <= 20
    assert trace.n_evaluations == calls[0]


def test_best_so_far_is_nonincreasing():
    trace = minimize(lambda t: float(np.cos(t[0]) + 0.1 * t[0] ** 2), cfg([2.0]))
    best = np.inf
    for r in trace.records:
        best = min(best, r.value)
        assert min(x.value for x in trace.records[: r.index]) == best


def test_identical_config_gives_identical_trace():
    f = lambda t: float((t[0] - 1) ** 2 + t[1] ** 2 + 0.3 * np.sin(5 * t[0]))
    t1 = minimize(f, cfg([0.2, -0.4]))
    t2 = minimize(f, cfg([0.2, -0.4]))
    assert t1.n_evaluations == t2.n_evaluations
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.theta, b.theta) and a.value == b.value


@pytest.mark.parametrize("dim", [4, 12, 24])
def test_smooth_convex_reaches_optimum_within_budget(dim, rng):
    center = rng.uniform(-1, 1, size=dim)
    f = lambda t: float(np.sum((t - center) ** 2))
    trace = minimize(f, cfg(np.zeros(dim), budget=150 * dim))
    assert trace.best_value < 1e-4


def test_non_finite_value_aborts_with_diagnostic():
    with pytest.raises(ObjectiveValueError, match="evaluation"):
        minimize(lambda t: float("nan"), cfg([0.0]))


def test_observer_sees_every_evaluation():
    seen = []
    trace = minimize(lambda t: float(np.sum(t**2)), cfg([1.0, 2.0]), observer=seen.append)
    assert len(seen) == trace.n_evaluations
    assert [r.index for r in seen] == list(range(1, trace.n_evaluations + 1))


def test_extras_are_recorded():
    def f(t):
        v = float(np.sum(t**2))
        return v, {"overlap": 0.5, "bitstring": 3, "bitstring_value": v - 1}

    trace = minimize(f, cfg([1.0]))
    assert all(r.overlap == 0.5 and r.bitstring == 3 for r in trace.records)
    j, val = best_observed_solution(trace)
    assert j == 3
    assert val == trace.best_value - 1


def test_best_observed_solution_picks_global_best():
    trace = RunTrace(
        records=[
            EvalRecord(1, np.zeros(1), 5.0, bitstring=7, bitstring_value=4.0),
            EvalRecord(2, np.zeros(1), 9.0, bitstring=2, bitstring_value=0.5),
            EvalRecord(3, np.zeros(1), 6.0, bitstring=1, bitstring_value=3.0),
        ]
    )
    assert best_observed_solution(trace) == (2, 0.5)


def test_best_observed_solution_single_record():
    trace = RunTrace(records=[EvalRecord(1, np.zeros(1), 1.0, bitstring=4, bitstring_value=1.0)])
    assert best_observed_solution(trace) == (4, 1.0)


def test_best_observed_solution_empty_trace():
    with pytest.raises(ValueError):
        best_observed_solution(RunTrace())
    with pytest.raises(ValueError):
        RunTrace().best_value


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_evaluations=3, initial_point=np.zeros(2))  # needs >= dim+2
    with pytest.raises(ValueError):
        OptimizerConfig(max_evaluations=50, initial_point=np.zeros(2), final_step=0.5)
    with pytest.raises(ValueError):
        OptimizerConfig(max_evaluations=50, initial_point=np.zeros((2, 2)))
