"""Derivative-free outer-loop minimization.

The method is Powell's COBYLA (1994) without constraints, with the
trust-region and radius schedule of the PRIMA reference implementation
(Zhang, 2023).  It interpolates the objective linearly on a simplex of
dim+1 points, steps along the model's steepest descent to the edge of a
trust region, and lowers the trust-radius floor from `initial_step` down to
`final_step`.  The method is written here in plain numpy, so a seed-pinned
trace does not depend on which optimization library is installed.

`_Cobyla` holds the method in ask/tell form.  `minimize` drives it: it
enforces the hard evaluation budget, rejects non-finite objective values and
invokes the observer after every evaluation, so traces are complete and
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ObjectiveValueError(RuntimeError):
    """Raised when the objective returns a non-finite value."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_evaluations: int
    initial_point: np.ndarray
    initial_step: float = 0.5
    final_step: float = 1e-4

    def __post_init__(self):
        x0 = np.asarray(self.initial_point, dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise ValueError("initial_point must be a nonempty 1-D array")
        object.__setattr__(self, "initial_point", x0)
        if not self.final_step < self.initial_step:
            raise ValueError("final_step must be smaller than initial_step")
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


def _lower_rho(rho: float, final: float) -> float:
    """Next trust-radius floor: a tenth while far from `final`, then the
    geometric mean with it, then `final` itself."""
    ratio = rho / final
    if ratio > 250:
        return 0.1 * rho
    if ratio <= 16:
        return final
    return math.sqrt(ratio) * final


class _Cobyla:
    """Unconstrained COBYLA in ask/tell form.

    `ask()` gives the next point to evaluate, or None once the method has
    stopped, with `stop_reason` "converged" (the trust radius came down to
    `final_step`) or "degenerate" (the simplex could no longer be inverted
    reliably); `tell(value)` hands back the objective value there.  The
    simplex is held as the best vertex (the pole), the displacements of the
    other vertices from it (columns of `disp`), the inverse of `disp`, and
    the vertex values with the pole's last.

    Two parts of PRIMA's COBYLA cannot fire without constraints and are left
    out: a trust-region step never lands on a vertex (the model rises towards
    every vertex and the step goes downhill), so no stored value is ever
    reused; and the step is never short while the model has a slope, so
    there is no last evaluation after convergence.
    """

    def __init__(self, cfg: OptimizerConfig):
        n = cfg.initial_point.size
        self.pole = cfg.initial_point.copy()
        self.disp = np.eye(n) * cfg.initial_step
        self.simi = np.eye(n) / cfg.initial_step
        self.fval = np.zeros(n + 1)
        self.stop_reason: str | None = None
        self._steps = self._run(cfg.initial_step, cfg.final_step)
        self._point = next(self._steps)

    def ask(self) -> np.ndarray | None:
        return self._point

    def tell(self, value: float) -> None:
        try:
            self._point = self._steps.send(value)
        except StopIteration as stop:
            self._point = None
            self.stop_reason = stop.value

    def _run(self, rhobeg: float, rhoend: float):
        """The method as one generator: yields points, receives their values, returns why it stopped."""
        n = self.pole.size
        fval = self.fval
        fval[n] = yield self.pole.copy()
        for j in range(n):
            x = self.pole.copy()
            x[j] += rhobeg
            fval[j] = yield x
            if fval[j] < fval[n]:
                fval[[j, n]] = fval[[n, j]]
                self.pole = x
                self.disp[j, : j + 1] = -rhobeg
        self.simi = np.linalg.inv(self.disp)

        rho = delta = rhobeg
        while True:
            adequate = bool(np.sum(self.disp**2, axis=0).max() <= 4 * delta**2 * _ROUNDING)
            g = (fval[:n] - fval[n]) @ self.simi
            gnorm = float(np.linalg.norm(g))
            if gnorm > 0:
                # trust-region step: the linear model's minimum on the ball
                d = -delta * (g / gnorm)
                dnorm = min(delta, float(np.linalg.norm(d)))
                predicted = -float(d @ g)
                f = yield self.pole + d
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
                jdrop = self._drop_index(actual > 0, d, delta, rho)
                if jdrop is not None and not self._replace(jdrop, d, f):
                    return "degenerate"
                if ratio > 0 and jdrop is not None:
                    continue
            else:
                # a flat model offers no descent: shrink the region instead
                dnorm = 0.0
                delta *= 0.1
                if delta <= 1.5 * rho:
                    delta = rho

            if not adequate:
                edges = np.sum(self.disp**2, axis=0)
                j = int(np.argmax(edges >= edges.max() / _ROUNDING))
                if edges[j] > 4 * delta**2 * _ROUNDING:
                    # geometry step: replace the farthest vertex by a point
                    # off its opposite face, on the model's downhill side
                    d = self.simi[j] * (0.5 * delta / np.linalg.norm(self.simi[j]))
                    if d @ ((fval[:n] - fval[n]) @ self.simi) > 0:
                        d = -d
                    f = yield self.pole + d
                    if not self._replace(j, d, f):
                        return "degenerate"
            elif max(delta, dnorm) <= rho:
                if rho <= rhoend:
                    return "converged"
                lowered = _lower_rho(rho, rhoend)
                delta, rho = max(0.5 * rho, lowered), lowered

    def _drop_index(self, improved: bool, d: np.ndarray, delta: float, rho: float) -> int | None:
        """Vertex to give up for the trust-region point pole+d (index n is
        the pole itself), or None if keeping the simplex is better."""
        n = d.size
        if improved:
            dist = np.append(np.sum((self.disp - d[:, None]) ** 2, axis=0), d @ d)
        else:
            dist = np.append(np.sum(self.disp**2, axis=0), 0.0)
        weight = np.maximum(1.0, dist / max(rho, 0.1 * delta) ** 2)
        simid = self.simi @ d
        score = weight * np.abs(np.append(simid, 1.0 - simid.sum()))
        if not improved:
            score[n] = -1.0
        if np.any(score > 0):
            return int(np.argmax(score))
        return int(np.argmax(dist)) if improved else None

    def _replace(self, j: int, d: np.ndarray, f: float) -> bool:
        """Swap vertex j for pole+d, valued f, then make the best vertex the
        pole.  False if the new simplex is numerically degenerate."""
        n = d.size
        fval = self.fval
        if j == n:
            self.pole = self.pole + d
            self.disp = self.disp - d[:, None]
        else:
            self.disp[:, j] = d
        fval[j] = f
        best = int(np.argmin(fval))
        if fval[best] < fval[n]:
            shift = self.disp[:, best].copy()
            self.pole = self.pole + shift
            self.disp -= shift[:, None]
            self.disp[:, best] = -shift
            fval[[best, n]] = fval[[n, best]]
        try:
            simi = np.linalg.inv(self.disp)
        except np.linalg.LinAlgError:
            return False
        if not np.max(np.abs(simi @ self.disp - np.eye(n))) <= 1.0:
            return False
        self.simi = simi
        return True


def minimize(
    f: Callable,
    cfg: OptimizerConfig,
    observer: Callable[[EvalRecord], None] | None = None,
) -> RunTrace:
    """Minimize f over angles, recording every evaluation.

    f maps a parameter vector to either a float or a (float, extras) pair,
    where extras may carry "overlap", "bitstring" and "bitstring_value" for
    the trace.  Deterministic: identical config and objective give an
    identical trace.
    """
    trace = RunTrace()
    method = _Cobyla(cfg)
    while trace.n_evaluations < cfg.max_evaluations:
        theta = method.ask()
        if theta is None:
            break
        theta = theta.copy()  # the record and f get a point the method does not hold
        out = f(theta)
        value, extras = out if isinstance(out, tuple) else (out, {})
        value = float(value)
        if not math.isfinite(value):
            raise ObjectiveValueError(
                f"objective returned {value} at evaluation "
                f"{trace.n_evaluations + 1}, theta={theta.tolist()}"
            )
        record = EvalRecord(
            index=trace.n_evaluations + 1,
            theta=theta,
            value=value,
            overlap=float(extras.get("overlap", math.nan)),
            bitstring=extras.get("bitstring"),
            bitstring_value=float(extras.get("bitstring_value", math.nan)),
        )
        trace.records.append(record)
        if observer is not None:
            observer(record)
        method.tell(value)
    trace.stop_reason = method.stop_reason or "budget"
    return trace


def best_observed_solution(trace: RunTrace) -> tuple[int, float]:
    """Bitstring with the smallest objective value seen anywhere in the run."""
    seen = [r for r in trace.records if r.bitstring is not None]
    if not seen:
        raise ValueError("trace has no recorded bitstrings")
    best = min(seen, key=lambda r: r.bitstring_value)
    return best.bitstring, best.bitstring_value
