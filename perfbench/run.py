"""Benchmark of cvarqopt: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload trend-n10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src.  The
workload seed fixes every input.  With --trace 0 the run is untraced and the
last stdout line is a JSON object holding the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 a traced rerun follows and that line holds the
per-layer metrics instead.  Every run checks its outputs and exits nonzero if
a check fails.  Reports and spans are written under perfbench/out/.
"""
import os

# one BLAS/OpenMP thread everywhere, pool workers included; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # set-up is measured in this many fresh interpreters; the median is reported
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail(values, unit: str, what: str):
    """(value, unit, note) at the highest ladder percentile with >= 10 samples beyond it."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return float(np.percentile(values, q)), unit, f"p{q:g} of {n} {what}"
    return math.nan, unit, f"no percentile has {TAIL_MIN_BEYOND} of {n} {what} beyond it"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, workers: int) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)), "pool_workers": workers, "blas_threads": 1,
        "git_revision": git_revision(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the first inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def evals_per_s(batches) -> tuple[float, str]:
    """Evaluation throughput at the batch layout's budgeted mix.

    Batches share one layout, so run i of every batch fills slot i.  Each slot
    gets its own time per evaluation, the median over its runs, so a burst of
    load from elsewhere on the host that hits one run does not move it.  The
    slots are combined with their budgets as weights.  How many evaluations a
    seed's runs spend before the optimizer stops early then changes the mix no
    more.  Without runs (the pool sweep) it is evaluations over busy time."""
    if not batches[0].runs:
        evals, busy = sum(b.evals for b in batches), sum(b.wall for b in batches)
        return evals / busy, f"{evals} evaluations in {busy:.2f} s"
    slots: dict[int, list] = {}
    for b in batches:
        for i, r in enumerate(b.runs):
            slots.setdefault(i, []).append(r)
    budget = seconds = 0.0
    for runs in slots.values():
        per_eval = [r.seconds / r.evals for r in runs if r.evals]
        if per_eval:
            budget += runs[0].task.budget
            seconds += runs[0].task.budget * statistics.median(per_eval)
    n_runs = sum(len(runs) for runs in slots.values())
    return budget / seconds, f"{len(slots)} slots at their budgets, median of {n_runs} runs"


def end_to_end(batches, setup_samples, failed: int, attempted: int) -> dict:
    """Every end-to-end figure: (value, unit, note)."""
    busy = sum(b.wall for b in batches)
    whole = [b.wall for b in batches if b.complete]
    rate, rate_note = evals_per_s(batches)
    solved = sum(b.solved for b in batches)
    units = sum(b.units for b in batches)
    runs = [r.seconds for b in batches for r in b.runs]
    gaps = np.concatenate([r.gaps for b in batches for r in b.runs] or [np.empty(0)]) * 1e3
    out = {
        "setup_s": (statistics.median(setup_samples), "s", f"median of {len(setup_samples)} fresh interpreters"),
        "wall_s": (statistics.mean(whole), "s", f"mean wall of {len(whole)} complete batches"),
        "evals_per_s": (rate, "1/s", rate_note),
        "solved_frac": (solved / units, "1", f"{solved} of {units} runs reach overlap 0.01"),
        "s_per_solved": (busy / solved if solved else math.inf, "s", f"{busy:.2f} s over {solved} solved runs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
        "fail_frac": (failed / attempted, "1", f"{failed} of {attempted} operations"),
    }
    if runs:
        out["run_s_p50"] = (statistics.median(runs), "s", f"{len(runs)} runs")
        out["run_s_tail"] = tail(runs, "s", "runs")
        out["eval_ms_p50"] = (float(np.median(gaps)), "ms", f"{gaps.size} observer gaps")
        out["eval_ms_tail"] = tail(gaps, "ms", "observer gaps")
    return out


def traced_run(wl_cls, args, workers, reference):
    """Traced rerun of the first batch on fresh inputs, setup included.

    Returns (per-layer figures, problems, operations, tracer)."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = wl_cls(args.seed, workers)
        wl.setup(tracer)
        traced = wl.traced_batch(tracer)
        with tracer.span(tracing.CHECK_SPAN):
            problems = wl.check(traced)
    finally:
        tracer.uninstall()
    for name in sorted(wl.expected_spans - tracer.called()):
        problems.append((f"trace/{name}", f"{name} was never called; a layer would read zero"))
    if traced.digest != reference.digest:
        problems.append(("trace", "traced outputs differ from the untraced run"))
    layer = tracing.layer_metrics(tracer)
    layer["trace.overhead_s"] = traced.wall - reference.wall
    print(f"  {len(tracer.spans)} spans at about {tracing.span_cost() * 1e6:.1f} us each "
          f"(traced {traced.wall:.3f} s, untraced {reference.wall:.3f} s)")
    return layer, problems, traced.ops, tracer


def run_workload(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl_cls = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    if args.setup_only:
        wl_cls(args.seed, workers).setup()
        return 0
    env = environment(args, workers)
    print(f"env {json.dumps(env)}")
    setup_samples = measure_setup(args)

    wl = wl_cls(args.seed, workers)
    wl.setup()
    wl.warm_up()
    batches, problems = [], []
    measured = 0.0
    while measured < args.seconds:  # closed loop; each batch is checked outside its timing
        # the first batch always completes, so every check and layer runs at least once
        batch = wl.batch(len(batches), budget_s=args.seconds - measured if batches else math.inf)
        measured += batch.wall
        problems += wl.check(batch)
        batch.release()
        batches.append(batch)
    attempted = sum(b.ops for b in batches)
    more, ops = wl.repeat_check(batches)
    problems += more
    attempted += ops

    layer, tracer = {}, None
    if args.trace:
        reference, more, ops = wl.untraced_reference(batches)
        problems += more
        attempted += ops
        layer, more, ops, tracer = traced_run(wl_cls, args, workers, reference)
        layer["harness.pool_efficiency"] = wl.pool_efficiency(batches)
        problems += more
        attempted += ops

    failed = len({key for key, _ in problems})
    e2e = end_to_end(batches, setup_samples, failed, attempted)
    for key, msg in problems:
        print(f"CHECK FAILED {key}: {msg}", file=sys.stderr)
    print(f"workload {args.workload}: {len(batches)} batches, {attempted} operations, {failed} failed")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<4} {note}")
    if not any(b.runs for b in batches):
        print("  run_s_* and eval_ms_* are not observable untraced: the runs execute inside pool workers")
    for name, value in layer.items():
        print(f"  {name:<28} {value:>14.6g}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "env": env, "setup_samples_s": setup_samples, "batch_walls_s": [b.wall for b in batches],
        "digests": [b.digest for b in batches], "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": layer, "problems": problems,
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json")
        print(f"  spans written to {OUT / f'spans-{stem}.json'}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    figures = layer if args.trace else {k: v[0] for k, v in e2e.items()}
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cvarqopt" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no cvarqopt sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
