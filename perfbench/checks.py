"""Output checks built on invariants and brute-force oracles.

No check compares against a frozen trace: traces depend on the optimizer
backend that is installed, while these invariants hold for any backend.
Every function returns a list of problems; an empty list means the check
passed.
"""
from __future__ import annotations

import hashlib
import math
from collections import defaultdict

import numpy as np

from cvarqopt import ansatz, flatness, objective, oracle

# relative slack for values that went through a different summation order
VALUE_RTOL = 1e-9
# amplitude agreement between two evolution paths, after aligning global phase
STATE_ATOL = 1e-9


def digest(pairs) -> str:
    """SHA-256 of a run's (value, overlap) sequence as float64 bytes."""
    return hashlib.sha256(np.asarray(pairs, dtype=np.float64).tobytes()).hexdigest()


def _bounds_slack(table: np.ndarray) -> float:
    return VALUE_RTOL * max(1.0, float(np.abs(table).max()))


def check_run(records, ham, spec, alpha: float, exact: bool, recompute_at=()) -> list[str]:
    """Invariants of one optimization run's per-evaluation records.

    recompute_at lists record positions whose CVaR is recomputed through
    trial_state + outcome_distribution + cvar_exact (exact mode only).
    """
    if not records:
        return ["run recorded no evaluations"]
    problems = []
    ground = oracle.ground_value(ham)
    top = float(ham.table.max())
    slack = _bounds_slack(ham.table)
    for r in records:
        where = f"eval {r.index}"
        if not (np.all(np.isfinite(r.theta)) and math.isfinite(r.value)
                and math.isfinite(r.overlap) and math.isfinite(r.bitstring_value)):
            problems.append(f"{where}: non-finite record")
            continue
        if not ground - slack <= r.value <= top + slack:
            problems.append(f"{where}: CVaR {r.value!r} outside [{ground!r}, {top!r}]")
        if not 0.0 <= r.overlap <= 1.0 + 1e-12:
            problems.append(f"{where}: overlap {r.overlap!r} outside [0, 1]")
        if r.bitstring is None or not 0 <= r.bitstring < ham.table.size:
            problems.append(f"{where}: bitstring {r.bitstring!r} out of range")
        elif r.bitstring_value != ham.table[r.bitstring]:
            problems.append(f"{where}: bitstring_value {r.bitstring_value!r} != table[{r.bitstring}]")
    if [r.index for r in records] != list(range(1, len(records) + 1)):
        problems.append("evaluation indices are not 1..k")
    if exact:
        for i in recompute_at:
            r = records[i]
            dist = objective.outcome_distribution(ansatz.trial_state(spec, r.theta), ham)
            again = objective.cvar_exact(dist, alpha)
            if abs(again - r.value) > slack:
                problems.append(f"eval {r.index}: recomputed CVaR {again!r} != recorded {r.value!r}")
    return problems


def check_qaoa_paths(spec, ham, theta) -> list[str]:
    """The ansatz's final state equals the flatness path's last snapshot up to global phase."""
    got = ansatz.trial_state(spec, theta).amplitudes
    want = flatness.qaoa_snapshots(ham, theta[: spec.p], theta[spec.p :])[-1]
    k = int(np.argmax(np.abs(want)))
    if abs(got[k]) == 0.0:
        return ["ansatz state vanishes where the flatness state peaks"]
    phase = want[k] / got[k]
    dev = float(np.abs(got * (phase / abs(phase)) - want).max())
    return [] if dev <= STATE_ATOL else [f"ansatz and flatness states differ by {dev:.3e}"]


def check_flatness(rep) -> list[str]:
    problems = []
    if not rep.bound_holds:
        problems.append(f"report says peak amplitude {rep.max_abs_amplitude!r} breaks bound {rep.bound_value!r}")
    if not 0.0 < rep.max_abs_amplitude <= 1.0 + 1e-12:
        problems.append(f"peak amplitude {rep.max_abs_amplitude!r} outside (0, 1]")
    if not 0.0 < rep.delta <= 1.0:
        problems.append(f"delta {rep.delta!r} outside (0, 1]")
    profile = rep.delta_per_layer
    if len(profile) != rep.p + 1 or any(b > a for a, b in zip(profile, profile[1:])):
        problems.append(f"flatness profile {profile} is not a running minimum over p+1 layers")
    return problems


def check_sweep_rows(rows, hams: dict, budget_per_qubit: int) -> list[str]:
    """Sweep rows: contiguous evaluations within budget, finite values inside the oracle bounds."""
    problems = []
    runs = defaultdict(list)
    for row in rows:
        runs[row[:6]].append(row)
    for key, run_rows in runs.items():
        problem, n, seed = key[:3]
        ham = hams[(problem, n, seed)]
        ground, top, slack = oracle.ground_value(ham), float(ham.table.max()), _bounds_slack(ham.table)
        evals = [r[6] for r in run_rows]
        if evals != list(range(1, len(evals) + 1)) or len(evals) > budget_per_qubit * n:
            problems.append(f"{key}: evaluations {evals[:3]}... not 1..k within budget")
        for *_, ev, ni, obj, ov in run_rows:
            if not (math.isfinite(obj) and math.isfinite(ov)):
                problems.append(f"{key} eval {ev}: non-finite row")
            elif not ground - slack <= obj <= top + slack:
                problems.append(f"{key} eval {ev}: CVaR {obj!r} outside [{ground!r}, {top!r}]")
            elif not 0.0 <= ov <= 1.0 + 1e-12:
                problems.append(f"{key} eval {ev}: overlap {ov!r} outside [0, 1]")
            if ni != ev / n:
                problems.append(f"{key} eval {ev}: norm_iter {ni!r} != eval/n")
    return problems


def check_curves(curves) -> list[str]:
    """Fraction curves: fractions in (0, 1], nondecreasing in both axes per group."""
    problems = []
    last = {}
    for algo, p, alpha, ni, frac in curves:
        if not 0.0 < frac <= 1.0:
            problems.append(f"{algo} p={p} alpha={alpha}: fraction {frac!r} outside (0, 1]")
        prev = last.get((algo, p, alpha))
        if prev is not None and (ni < prev[0] or frac <= prev[1]):
            problems.append(f"{algo} p={p} alpha={alpha}: curve not increasing at {ni!r}")
        last[(algo, p, alpha)] = (ni, frac)
    return problems
