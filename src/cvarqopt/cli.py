"""Command-line interface: instance generation, single runs, sweeps,
aggregation, and flatness diagnostics.  All outputs are JSON or CSV files;
exit status is nonzero on any validation failure."""
from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import fixtures
from .flatness import flatness_report, needle_hamiltonian
from .hamiltonian import QuboProblem, qubo_to_hamiltonian
from .harness import (
    ExperimentConfig,
    SweepResult,
    aggregate_fraction_curves,
    curves_to_csv,
    run_single,
    run_sweep,
    sweep_metadata,
    trace_to_rows,
)
from .problems import PROBLEM_NAMES, InstanceSpec, generate


def _load_instance(path: str) -> tuple[QuboProblem, str, int, int]:
    """(qubo, problem, n, seed) from an instance file; a usage error if it is malformed."""
    try:
        meta = json.loads(Path(path).read_text())
        qubo = QuboProblem.from_json(json.dumps(meta["qubo"]))
        if meta["n"] != qubo.n:  # the trace rows would carry the wrong n and normalized iteration
            raise ValueError(f"n={meta['n']} but the qubo has n={qubo.n}")
        return qubo, meta["problem"], meta["n"], meta.get("seed", -1)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"{path} is not a valid instance file: {exc!r}")


@click.group()
def main():
    """CVaR-based variational quantum optimization, simulated exactly."""


@main.command("generate")
@click.option("--problem", required=True, type=click.Choice(PROBLEM_NAMES))
@click.option("--n", "n_qubits", required=True, type=int)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--param", "params", multiple=True, metavar="KEY=VALUE",
              help="Class-specific generator parameter (repeatable).")
@click.option("--published-fixture", is_flag=True,
              help="Emit the six-asset portfolio reference case instead of a random draw "
                   "(takes no --param).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Instance JSON path (stdout if omitted).")
def generate_cmd(problem, n_qubits, seed, params, published_fixture, output):
    """Generate a problem instance and write it as JSON."""
    parsed = {}
    for item in params:
        key, _, raw = item.partition("=")
        if not _:
            raise click.UsageError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            parsed[key] = json.loads(raw)
        except json.JSONDecodeError:
            raise click.UsageError(f"--param {key} takes a JSON value, got {raw!r}")
    try:
        if published_fixture:
            if problem != "portfolio" or n_qubits != fixtures.PORTFOLIO_N:
                raise click.UsageError(
                    f"--published-fixture is the {fixtures.PORTFOLIO_N}-asset portfolio case"
                )
            if parsed:
                raise click.UsageError("--published-fixture is a fixed instance and takes no --param")
            from .problems import portfolio_qubo

            qubo = portfolio_qubo()
        else:
            qubo = generate(InstanceSpec(problem, n_qubits, seed, parsed))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    doc = {
        "problem": problem,
        "n": n_qubits,
        "seed": seed,
        "params": parsed,
        "qubo": json.loads(qubo.to_json()),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--instance", type=click.Path(exists=True, dir_okay=False),
              help="Instance JSON produced by `generate`.")
@click.option("--problem", type=str, default=None, help="Generate on the fly instead.")
@click.option("--n", "n_qubits", type=int, default=None)
@click.option("--instance-seed", type=int, default=0, show_default=True)
@click.option("--algo", type=click.Choice(["vqe", "qaoa"]), default="vqe", show_default=True)
@click.option("-p", "--depth", type=int, default=1, show_default=True)
@click.option("--alpha", type=float, default=0.25, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default="exact", show_default=True)
@click.option("--shots", type=int, default=8192, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Run seed.")
@click.option("--budget", type=int, default=None, help="Max objective evaluations (default 50*n).")
@click.option("--entanglement", type=click.Choice(["all-to-all", "ring"]),
              default="all-to-all", show_default=True)
@click.option("--init", "initial_point", type=click.Choice(["zeros", "random"]),
              default="zeros", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Trace CSV path.")
def run(instance, problem, n_qubits, instance_seed, algo, depth, alpha, mode, shots,
        seed, budget, entanglement, initial_point, output):
    """Run a single optimization and write the per-evaluation trace CSV."""
    if instance:
        qubo, problem, n_qubits, instance_seed = _load_instance(instance)
    elif problem is not None and n_qubits is not None:
        try:
            qubo = generate(InstanceSpec(problem, n_qubits, instance_seed))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    else:
        raise click.UsageError("provide --instance or both --problem and --n")
    try:
        trace = run_single(
            qubo, algo=algo, p=depth, alpha=alpha, mode=mode, shots=shots, seed=seed,
            entanglement=entanglement, max_evaluations=budget, initial_point=initial_point,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = trace_to_rows(trace, problem, n_qubits, instance_seed, algo, depth, alpha)
    Path(output).write_text(SweepResult(rows).to_csv())
    click.echo(f"wrote {output} ({trace.n_evaluations} evaluations, "
               f"best objective {trace.best_value!r})")


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="ExperimentConfig JSON; defaults apply if omitted.")
@click.option("--seed", type=int, default=None, help="Override master seed.")
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default=None)
@click.option("--shots", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Results CSV path (metadata JSON written alongside).")
def sweep(config, seed, mode, shots, workers, output):
    """Run the full experiment grid and write one flat CSV."""
    try:
        cfg = ExperimentConfig.from_json(Path(config).read_text()) if config else ExperimentConfig()
        overrides = {k: v for k, v in
                     [("master_seed", seed), ("mode", mode), ("shots", shots), ("workers", workers)]
                     if v is not None}
        if overrides:
            cfg = ExperimentConfig(**{**json.loads(cfg.to_json()), **overrides})
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad config: {exc}")
    result = run_sweep(cfg)
    out = Path(output)
    out.write_text(result.to_csv())
    out.with_suffix(out.suffix + ".meta.json").write_text(
        json.dumps(sweep_metadata(cfg, result), indent=2, sort_keys=True) + "\n")
    for kind, message in result.failures:
        click.echo(f"[{kind} failed] {message}", err=True)
    click.echo(f"wrote {output} ({len(result.rows)} rows, {len(result.failures)} failures)")
    if result.failures:
        sys.exit(1)


@main.command()
@click.option("--input", "input_", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Sweep results CSV.")
@click.option("--threshold", "thresholds", type=float, multiple=True, default=(0.01, 0.10),
              show_default=True, help="Overlap thresholds (repeatable).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Aggregate CSV path prefix; one file per threshold.")
def report(input_, thresholds, output):
    """Aggregate a sweep CSV into fraction-of-instances step curves."""
    try:
        result = SweepResult.from_csv(Path(input_).read_text())
        curves = {t: aggregate_fraction_curves(result, t) for t in thresholds}
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for threshold, points in curves.items():
        path = Path(f"{output}.t{threshold:g}.csv")
        path.write_text(curves_to_csv(points, threshold))
        click.echo(f"wrote {path} ({len(points)} points)")


@main.command("flatness")
@click.option("--problem", type=click.Choice(["maxcut", "needle"]), default="maxcut",
              show_default=True)
@click.option("--n", "n_qubits", type=int, required=True)
@click.option("--instance-seed", type=int, default=0, show_default=True)
@click.option("-p", "--depth", type=int, default=1, show_default=True)
@click.option("--draws", type=click.IntRange(min=1), default=10, show_default=True,
              help="Random angle draws.")
@click.option("--seed", type=int, default=0, show_default=True, help="Angle seed.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Amplitude equality tolerance.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Report JSON path.")
def flatness_cmd(problem, n_qubits, instance_seed, depth, draws, seed, tol, output):
    """Flatness diagnostics for alternating-unitary states on random angles."""
    rng = np.random.Generator(np.random.PCG64(seed))
    reports = []
    try:
        if problem == "needle":
            ham = needle_hamiltonian(n_qubits)
        else:
            ham = qubo_to_hamiltonian(generate(InstanceSpec("maxcut", n_qubits, instance_seed)))
        for draw in range(draws):
            betas = rng.uniform(-np.pi, np.pi, size=depth)
            gammas = rng.uniform(-np.pi, np.pi, size=depth)
            rep = flatness_report(ham, betas, gammas, tol=tol)
            reports.append({"draw": draw, "betas": betas.tolist(), "gammas": gammas.tolist(), **asdict(rep)})
    except ValueError as exc:
        raise click.UsageError(str(exc))
    Path(output).write_text(json.dumps(
        {"problem": problem, "seed": seed, "reports": reports}, indent=2) + "\n")
    holds = sum(r["bound_holds"] for r in reports)
    click.echo(f"wrote {output} (bound holds in {holds}/{len(reports)} draws)")
    if holds != len(reports):
        sys.exit(1)


@main.command("regen-golden")
@click.option("--check", is_flag=True, help="Verify the committed file instead of rewriting.")
def regen_golden(check):
    """Recompute the frozen oracle-derived golden values."""
    if check:
        committed = fixtures.load_golden_json()
        fresh = fixtures.compute_golden_values()
        if committed != fresh:
            click.echo("golden data is stale; run `cvarqopt regen-golden`", err=True)
            sys.exit(1)
        click.echo("golden data is up to date")
    else:
        path = fixtures.regenerate_golden()
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
