"""Derivative-free outer-loop minimization.

The method is Powell's COBYLA (1994) without constraints, with the
trust-region and radius schedule of the PRIMA reference implementation
(Zhang, 2023).  It interpolates the objective linearly on a simplex of
dim+1 points, steps along the model's steepest descent to the edge of a
trust region, and lowers the trust-radius floor from `INITIAL_STEP` down to
`FINAL_STEP`.  The method is written here in plain numpy, so a seed-pinned
trace does not depend on which optimization library is installed.

`_cobyla` is the method as one generator: it yields the next point and
receives the objective value there.  `minimize` drives it with `next` and
`send`: it enforces the hard evaluation budget, rejects non-finite objective
values and invokes the observer after every evaluation, so traces are
complete and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .statevector import _whole


class ObjectiveValueError(RuntimeError):
    """Raised when the objective returns a non-finite value."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_evaluations: int
    initial_point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "max_evaluations", _whole("max_evaluations", self.max_evaluations))
        x0 = np.asarray(self.initial_point, dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise ValueError("initial_point must be a nonempty 1-D array")
        object.__setattr__(self, "initial_point", x0)
        if not np.isfinite(x0).all():
            raise ValueError(f"initial_point must be finite, got {x0.tolist()}")
        if self.max_evaluations < x0.size + 2:
            raise ValueError(
                f"max_evaluations must be >= dimension + 2 = {x0.size + 2}, "
                f"got {self.max_evaluations}"
            )


@dataclass(frozen=True)
class EvalRecord:
    index: int  # 1-based evaluation count
    theta: np.ndarray
    value: float
    overlap: float = math.nan
    bitstring: int | None = None  # best basis state seen in this evaluation
    bitstring_value: float = math.nan


@dataclass
class RunTrace:
    records: list[EvalRecord] = field(default_factory=list)
    stop_reason: str | None = None  # set by minimize: "budget", "converged" or "degenerate"

    @property
    def n_evaluations(self) -> int:
        return len(self.records)

    @property
    def best_record(self) -> EvalRecord:
        if not self.records:
            raise ValueError("empty trace")
        return min(self.records, key=lambda r: r.value)

    @property
    def best_value(self) -> float:
        return self.best_record.value

    @property
    def best_point(self) -> np.ndarray:
        return self.best_record.theta


# Squared edge lengths that agree in exact arithmetic must compare equal,
# whatever the rounding: a vertex placed by a step of length 2*delta sits
# exactly on the limit (2*delta)^2, and vertices placed by steps of one length
# tie for the longest edge.  Comparisons of squared edges allow this slack.
_ROUNDING = 1 + 1e-10

INITIAL_STEP = 0.5  # trust radius of the first steps; the starting simplex's edge length
FINAL_STEP = 1e-4  # the trust-radius floor at which a run has converged


def _lower_rho(rho: float, final: float) -> float:
    """Next trust-radius floor: a tenth while far from `final`, then the
    geometric mean with it, then `final` itself."""
    ratio = rho / final
    if ratio > 250:
        return 0.1 * rho
    if ratio <= 16:
        return final
    return math.sqrt(ratio) * final


def _norm(v: np.ndarray) -> float:
    """`np.linalg.norm` of a 1-D float array, computed as it computes it."""
    return math.sqrt(v.dot(v))


def _edges(disp: np.ndarray) -> np.ndarray:
    """Squared length of each column of `disp`."""
    return (disp * disp).sum(axis=0)


def _cobyla(x0: np.ndarray, rhobeg: float, rhoend: float):
    """Unconstrained COBYLA as one generator: it yields points, receives the
    objective value at each and returns why it stopped, "converged" (the trust
    radius came down to `rhoend`) or "degenerate" (the simplex could no longer
    be inverted reliably).  The simplex is the best vertex (`pole`), the other
    vertices' displacements from it (columns of `disp`), the inverse `simi` of
    `disp`, and the vertex values `fval`, the pole's last.

    Two parts of PRIMA's COBYLA cannot fire without constraints and are left
    out: a trust-region step never lands on a vertex (the model rises towards
    every vertex and the step goes downhill), so no stored value is ever
    reused; and the step is never short while the model has a slope, so
    there is no last evaluation after convergence.
    """
    n = x0.size
    pole = x0.copy()
    eye = np.eye(n)
    disp = eye * rhobeg
    fval = np.zeros(n + 1)
    fval[n] = yield pole.copy()
    for j in range(n):
        x = pole.copy()
        x[j] += rhobeg
        fval[j] = yield x
        if fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            pole = x
            disp[j, : j + 1] = -rhobeg
    simi = np.linalg.inv(disp)

    rho = delta = rhobeg
    while True:
        adequate = bool(_edges(disp).max() <= 4 * delta**2 * _ROUNDING)
        g = (fval[:n] - fval[n]) @ simi
        gnorm = _norm(g)
        if gnorm > 0:
            # trust-region step: the linear model's minimum on the ball
            d = -delta * (g / gnorm)
            dnorm = min(delta, _norm(d))
            predicted = -float(d @ g)
            f = yield pole + d
            actual = fval[n] - f
            ratio = actual / predicted
            if ratio <= 0.1:
                delta = 0.5 * dnorm
            elif ratio <= 0.7:
                delta = max(0.5 * delta, dnorm)
            else:
                delta = max(0.5 * delta, 2.0 * dnorm)
            if delta <= 1.5 * rho:
                delta = rho
            jdrop = _drop_index(disp, simi, actual > 0, d, delta, rho)
            if jdrop is not None:
                simi = _replace(pole, disp, fval, jdrop, d, f, eye)
                if simi is None:
                    return "degenerate"
                if ratio > 0:
                    continue
        else:
            # a flat model offers no descent: shrink the region instead
            dnorm = 0.0
            delta *= 0.1
            if delta <= 1.5 * rho:
                delta = rho

        if not adequate:
            edges = _edges(disp)
            j = int((edges >= edges.max() / _ROUNDING).argmax())
            if edges[j] > 4 * delta**2 * _ROUNDING:
                # geometry step: replace the farthest vertex by a point
                # off its opposite face, on the model's downhill side
                d = simi[j] * (0.5 * delta / _norm(simi[j]))
                if d @ ((fval[:n] - fval[n]) @ simi) > 0:
                    d = -d
                f = yield pole + d
                simi = _replace(pole, disp, fval, j, d, f, eye)
                if simi is None:
                    return "degenerate"
        elif max(delta, dnorm) <= rho:
            if rho <= rhoend:
                return "converged"
            lowered = _lower_rho(rho, rhoend)
            delta, rho = max(0.5 * rho, lowered), lowered


def _drop_index(disp, simi, improved: bool, d: np.ndarray, delta: float, rho: float) -> int | None:
    """Vertex to give up for the trust-region point pole+d (index n is the
    pole itself), or None if keeping the simplex is better."""
    n = d.size
    dist = np.empty(n + 1)
    dist[:n] = _edges(disp - d[:, None] if improved else disp)
    dist[n] = d @ d if improved else 0.0
    weight = np.maximum(1.0, dist / max(rho, 0.1 * delta) ** 2)
    simid = simi @ d
    score = np.empty(n + 1)
    score[:n] = simid
    score[n] = 1.0 - simid.sum()
    score = weight * np.abs(score)
    if not improved:
        score[n] = -1.0
    if (score > 0).any():
        return int(score.argmax())
    return int(dist.argmax()) if improved else None


def _replace(pole, disp, fval, j: int, d: np.ndarray, f: float, eye: np.ndarray) -> np.ndarray | None:
    """Swap vertex j for pole+d, valued f, then make the best vertex the pole, all in
    place.  The new inverse of `disp`, or None if the new simplex is numerically degenerate
    (`eye` is the identity of its size)."""
    n = d.size
    if j == n:
        pole += d
        disp -= d[:, None]
    else:
        disp[:, j] = d
    fval[j] = f
    best = int(fval.argmin())
    if fval[best] < fval[n]:
        shift = disp[:, best].copy()
        pole += shift
        disp -= shift[:, None]
        disp[:, best] = -shift
        fval[best], fval[n] = fval[n], fval[best]
    try:
        simi = np.linalg.inv(disp)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(simi @ disp - eye).max() <= 1.0:
        return None
    return simi


def minimize(
    f: Callable,
    cfg: OptimizerConfig,
    observer: Callable[[EvalRecord], None] | None = None,
) -> RunTrace:
    """Minimize f over angles, recording every evaluation.

    f maps a parameter vector to either a float or a (float, extras) pair,
    where extras may carry "overlap", "bitstring" and "bitstring_value" for
    the trace.  Stops at the hard evaluation budget or when the method
    converges, raises `ObjectiveValueError` on a non-finite value and calls
    the observer after each evaluation.  Deterministic: identical config and
    objective give an identical trace.
    """
    trace = RunTrace(stop_reason="budget")
    method = _cobyla(cfg.initial_point, INITIAL_STEP, FINAL_STEP)
    theta = next(method)
    for index in range(1, cfg.max_evaluations + 1):
        theta = theta.copy()  # the record and f get a point the method does not hold
        out = f(theta)
        value, extras = out if isinstance(out, tuple) else (out, {})
        value = float(value)
        if not math.isfinite(value):
            raise ObjectiveValueError(f"objective returned {value} at evaluation {index}, theta={theta.tolist()}")
        record = EvalRecord(index, theta, value, float(extras.get("overlap", math.nan)), extras.get("bitstring"),
                            float(extras.get("bitstring_value", math.nan)))
        trace.records.append(record)
        if observer is not None:
            observer(record)
        try:
            theta = method.send(value)
        except StopIteration as stop:
            trace.stop_reason = stop.value
            break
    return trace


def best_observed_solution(trace: RunTrace) -> tuple[int, float]:
    """Bitstring with the smallest objective value seen anywhere in the run."""
    seen = [r for r in trace.records if r.bitstring is not None]
    if not seen:
        raise ValueError("trace has no recorded bitstrings")
    best = min(seen, key=lambda r: r.bitstring_value)
    return best.bitstring, best.bitstring_value
