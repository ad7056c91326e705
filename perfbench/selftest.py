"""Self-test of the benchmark's checks: corrupted results must be caught.

    python3 perfbench/selftest.py

Each case takes a genuine result, confirms the checks accept it, then
corrupts one field and confirms the checks reject it.  Exits nonzero if any
corruption goes unnoticed.
"""
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from cvarqopt import flatness, harness, hamiltonian, problems
from cvarqopt.ansatz import AnsatzSpec

import checks
import tracing
import workloads

FAILURES = []


def expect(name: str, found: list, should_fail: bool) -> None:
    if bool(found) != should_fail:
        FAILURES.append(f"{name}: expected {'a failure' if should_fail else 'no failure'}, got {found}")
    else:
        print(f"ok   {name}" + (f" -> {found[0]}" if found else ""))


def corrupt(records, i, **changes):
    out = list(records)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def run_cases() -> None:
    qubo = problems.generate(problems.InstanceSpec("maxcut", 5, 3))
    ham = hamiltonian.qubo_to_hamiltonian(qubo)
    spec = AnsatzSpec("vqe", n=5, p=1)
    recs = harness.run_single(qubo, "vqe", p=1, alpha=0.25, seed=1, initial_point="random",
                              max_evaluations=30).records
    last = len(recs) - 1
    ground = float(ham.table.min())

    def run_check(records):
        return checks.check_run(records, ham, spec, 0.25, exact=True, recompute_at=(0, len(records) - 1))

    expect("genuine run", run_check(recs), False)
    expect("CVaR below the ground value", run_check(corrupt(recs, 3, value=ground - 1.0)), True)
    expect("CVaR above the table max", run_check(corrupt(recs, 3, value=float(ham.table.max()) + 1.0)), True)
    expect("non-finite CVaR", run_check(corrupt(recs, 3, value=float("nan"))), True)
    expect("overlap above one", run_check(corrupt(recs, 3, overlap=1.5)), True)
    expect("negative overlap", run_check(corrupt(recs, 3, overlap=-0.1)), True)
    wrong = (recs[3].bitstring + 1) % ham.table.size
    expect("bitstring value off the table",
           run_check(corrupt(recs, 3, bitstring_value=float(ham.table[wrong]) + 0.5)), True)
    expect("CVaR that disagrees with a recomputation",
           run_check(corrupt(recs, last, value=recs[last].value + 1e-6)), True)
    expect("missing evaluation", run_check(recs[:2] + recs[3:]), True)
    expect("digest moves with one value",
           [] if checks.digest([(r.value, r.overlap) for r in recs])
           == checks.digest([(r.value, r.overlap) for r in corrupt(recs, 3, value=recs[3].value + 1e-12)])
           else ["digests differ"], True)

    ising = hamiltonian.qubo_to_ising(qubo)
    qspec = AnsatzSpec("qaoa", n=5, p=2, ising=ising)
    theta = np.array([0.3, -0.7, 1.1, 0.4])
    expect("qaoa paths agree", checks.check_qaoa_paths(qspec, ham, theta), False)
    bent = hamiltonian.DiagonalHamiltonian(5, ham.table + 0.01 * np.arange(32))
    expect("qaoa paths on a different diagonal", checks.check_qaoa_paths(qspec, bent, theta), True)

    rep = flatness.flatness_report(ham, [0.2], [0.9])
    expect("genuine flatness report", checks.check_flatness(rep), False)
    expect("flatness bound violated", checks.check_flatness(dataclasses.replace(rep, bound_holds=False)), True)
    expect("flatness profile rising",
           checks.check_flatness(dataclasses.replace(rep, delta_per_layer=(0.5, 0.9))), True)

    cfg = harness.ExperimentConfig(problems=("maxcut",), sizes=(4,), instances_per_size=1, alphas=(0.5,),
                                   vqe_depths=(1,), qaoa_depths=(1,), mode="sampled",
                                   iteration_budget_per_qubit=10, master_seed=2)
    rows = harness.run_sweep(cfg).rows
    hams = {row[:3]: hamiltonian.qubo_to_hamiltonian(problems.generate(problems.InstanceSpec(*row[:3])))
            for row in rows}
    check_rows = lambda r: checks.check_sweep_rows(r, hams, cfg.iteration_budget_per_qubit)
    expect("genuine sweep rows", check_rows(rows), False)
    bad = list(rows)
    bad[2] = bad[2][:9] + (1.25,)
    expect("sweep overlap above one", check_rows(bad), True)
    bad = list(rows)
    bad[2] = bad[2][:8] + (float(hams[bad[2][:3]].table.min()) - 1.0,) + bad[2][9:]
    expect("sweep CVaR below the ground value", check_rows(bad), True)
    expect("sweep rows with a gap", check_rows(rows[:1] + rows[2:]), True)

    sweep = workloads.SampledSweep(seed=0, workers=1)
    batch = sweep.pipeline(dataclasses.replace(cfg, problems=("maxcut", "partition")))
    expect("genuine sweep batch", sweep.check(batch), False)
    gone = batch.sweep["rows"][0][:6]
    kept = [r for r in batch.sweep["rows"] if r[:6] != gone]
    lost = dataclasses.replace(batch, sweep={**batch.sweep, "rows": kept, "back": kept})
    expect("sweep that lost a run", sweep.check(lost), True)

    curves = harness.aggregate_fraction_curves(harness.SweepResult(rows), 0.01)
    expect("genuine fraction curves", checks.check_curves(curves), False)
    expect("fraction curve that falls",
           checks.check_curves(curves + [(*curves[-1][:3], curves[-1][3] + 1.0, 0.5 * curves[-1][4])]), True)

    # the tracer refuses a wrapped name that the package no longer has
    tracing.WRAPPED["cvarqopt.harness"]["no_such_function"] = "harness.none"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        found = []
    except RuntimeError as exc:
        found = [str(exc)]
    finally:
        tracer.uninstall()
        del tracing.WRAPPED["cvarqopt.harness"]["no_such_function"]
    expect("wrapped name that no longer exists", found, True)
    if harness.run_single.__module__ != "cvarqopt.harness" or hasattr(harness.run_single, "__wrapped__"):
        FAILURES.append("tracer left a wrapper installed")


if __name__ == "__main__":
    run_cases()
    for line in FAILURES:
        print(f"FAIL {line}")
    sys.exit(1 if FAILURES else 0)
