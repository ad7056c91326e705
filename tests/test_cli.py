import json
import platform

import numpy as np
import pytest
from click.testing import CliRunner

from cvarqopt.cli import main
from cvarqopt.harness import CSV_HEADER, ExperimentConfig, run_sweep
from cvarqopt.problems import PROBLEM_NAMES


@pytest.fixture
def runner():
    return CliRunner()


TINY_CONFIG = {
    "problems": ["maxcut"],
    "sizes": [4],
    "instances_per_size": 1,
    "alphas": [0.25],
    "vqe_depths": [1],
    "qaoa_depths": [1],
    "iteration_budget_per_qubit": 10,
    "master_seed": 5,
}


def test_generate_writes_instance_json(runner, tmp_path):
    out = tmp_path / "inst.json"
    result = runner.invoke(main, ["generate", "--problem", "maxcut", "--n", "5",
                                  "--seed", "3", "-o", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["problem"] == "maxcut" and doc["n"] == 5 and doc["seed"] == 3
    assert len(doc["qubo"]["b"]) == 5


def test_generate_rejects_bad_max3sat_size(runner):
    result = runner.invoke(main, ["generate", "--problem", "max3sat", "--n", "7"])
    assert result.exit_code != 0
    assert "multiple of three" in result.output


@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_generate_one_qubit_writes_or_is_a_usage_error(runner, problem):
    result = runner.invoke(main, ["generate", "--problem", problem, "--n", "1"])
    assert result.exit_code in (0, 2), result.output


def test_generate_published_portfolio_fixture(runner, tmp_path):
    out = tmp_path / "portfolio.json"
    result = runner.invoke(main, ["generate", "--problem", "portfolio", "--n", "6",
                                  "--published-fixture", "-o", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["qubo"]["const"] == 108.0
    bad = runner.invoke(main, ["generate", "--problem", "maxcut", "--n", "6",
                               "--published-fixture"])
    assert bad.exit_code != 0


def test_generate_published_fixture_with_param_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "portfolio.json"
    result = runner.invoke(main, ["generate", "--problem", "portfolio", "--n", "6",
                                  "--published-fixture", "--param", "budget=2", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "takes no --param" in result.output and not out.exists()


def test_generate_accepts_class_params(runner, tmp_path):
    out = tmp_path / "tri.json"
    result = runner.invoke(main, [
        "generate", "--problem", "maxcut", "--n", "3",
        "--param", "edges=[[0,1],[1,2],[0,2]]", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["params"]["edges"] == [[0, 1], [1, 2], [0, 2]]


@pytest.mark.parametrize("params,message", [
    (["edges=[[0,5]]"], "two distinct integer vertices in [0, 3), got [0, 5]"),
    (["edges=[[-1,0]]"], "got [-1, 0]"),
    (["edges=[[0,1],[1,2]]", "weights=[1]"], "one weight per edge, got 1 for 2 edges"),
    (["weights=[1,2]"], "weights go with edges"),
], ids=["out-of-range", "negative", "short-weights", "weights-alone"])
def test_generate_malformed_maxcut_edges_are_a_usage_error(runner, tmp_path, params, message):
    out = tmp_path / "inst.json"
    args = ["generate", "--problem", "maxcut", "--n", "3", "-o", str(out)]
    result = runner.invoke(main, args + [a for p in params for a in ("--param", p)])
    assert result.exit_code == 2, result.output
    assert "Error: " in result.output and message in result.output and not out.exists()
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("problem,params,message", [
    ("maxcut", ["edges=5"], "edges take a list of vertex pairs, got 5"),
    ("maxcut", ["edges=[[0,1]]", "weights=5"], "weights takes a list of finite numbers, got 5"),
    ("maxcut", ["edges=[[0,1]]", 'weights=["a"]'], "got ['a']"),
    ("maxcut", ['edge_density="x"'], "edge_density takes a number in [0.0, 1.0], got 'x'"),
    ("maxcut", ["edge_density=-1"], "got -1"),
    ("stable_set", ['edge_density="x"'], "got 'x'"),
    ("max3sat", ['clause_ratio="x"'], "clause_ratio takes a number in (0.0, inf), got 'x'"),
    ("max3sat", ["clause_ratio=-1"], "got -1"),
    ("market_split", ["constraints=0"], "constraints takes an integer in [1, inf), got 0"),
    ("portfolio", ['risk_factor="x"'], "risk_factor takes a number in [0.0, inf), got 'x'"),
    ("portfolio", ["budget=1.5"], "budget takes an integer in [0, 6], got 1.5"),
], ids=["edges-int", "weights-int", "weights-str", "density-str", "density-negative", "stable-density-str",
        "ratio-str", "ratio-negative", "no-constraints", "risk-str", "budget-fraction"])
def test_generate_param_of_the_wrong_type_or_range_is_a_usage_error(runner, tmp_path, problem, params, message):
    out = tmp_path / "inst.json"
    args = ["generate", "--problem", problem, "--n", "6", "-o", str(out)]
    result = runner.invoke(main, args + [a for p in params for a in ("--param", p)])
    assert result.exit_code == 2, result.output
    assert "Error: " in result.output and message in result.output and not out.exists()
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_generate_param_that_is_not_json_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "inst.json"
    result = runner.invoke(main, ["generate", "--problem", "maxcut", "--n", "4",
                                  "--param", "edge_density=abc", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "--param edge_density takes a JSON value" in result.output and not out.exists()


def test_generate_unknown_param_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "inst.json"
    result = runner.invoke(main, ["generate", "--problem", "maxcut", "--n", "4",
                                  "--param", "edge_densty=0.9", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "edge_densty" in result.output and "edge_density" in result.output and not out.exists()


GOOD_INSTANCE = {  # as `generate` writes it; each case below breaks one part"problem": "maxcut", "n": 3, "seed": 0,
                 "qubo": {"n": 3, "b": [0.0, 1.0, 2.0], "A": [[0.0] * 3] * 3, "const": 0.0}}


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({**GOOD_INSTANCE, "qubo": {**GOOD_INSTANCE["qubo"], "b": [0.0, 1.0]}}),
    json.dumps({k: v for k, v in GOOD_INSTANCE.items() if k != "problem"}),
    json.dumps({k: v for k, v in GOOD_INSTANCE.items() if k != "qubo"}),
    "[1, 2]",
    json.dumps({**GOOD_INSTANCE, "n": 5}),
], ids=["not-json", "short-b", "no-problem", "no-qubo", "not-an-object", "n-disagrees"])
def test_run_malformed_instance_is_a_usage_error(runner, tmp_path, text):
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["run", "--instance", str(inst), "--budget", "20", "-o", str(trace)])
    assert result.exit_code == 2, result.output
    assert "not a valid instance file" in result.output and not trace.exists()


def test_run_from_instance_file(runner, tmp_path):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.csv"
    runner.invoke(main, ["generate", "--problem", "maxcut", "--n", "4", "-o", str(inst)])
    result = runner.invoke(main, ["run", "--instance", str(inst), "--algo", "vqe",
                                  "-p", "1", "--alpha", "0.25", "--budget", "40",
                                  "-o", str(trace)])
    assert result.exit_code == 0, result.output
    lines = trace.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_run_sampled_without_shots_is_a_usage_error(runner, tmp_path, shots):
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["run", "--problem", "maxcut", "--n", "4", "--mode", "sampled",
                                  "--shots", shots, "-o", str(trace)])
    assert result.exit_code == 2, result.output
    assert "shot count must be >= 1" in result.output and not trace.exists()


def test_run_generated_on_the_fly_sampled(runner, tmp_path):
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["run", "--problem", "portfolio", "--n", "4",
                                  "--algo", "qaoa", "-p", "1", "--mode", "sampled",
                                  "--shots", "256", "--budget", "30", "-o", str(trace)])
    assert result.exit_code == 0, result.output


def test_run_requires_instance_or_problem(runner, tmp_path):
    result = runner.invoke(main, ["run", "-o", str(tmp_path / "x.csv")])
    assert result.exit_code != 0


@pytest.mark.parametrize("n", ["0", "-2"])
def test_run_size_out_of_range_is_a_usage_error(runner, tmp_path, n):
    result = runner.invoke(main, ["run", "--problem", "maxcut", "--n", n, "-o", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert "n_qubits must be positive" in result.output
    assert "provide --instance" not in result.output


def test_sweep_report_chain(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[0] == CSV_HEADER
    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert meta["prng"] == "numpy.random.PCG64"
    assert meta["config"]["master_seed"] == 5
    assert meta["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "optimizer": "cvarqopt COBYLA",
    }
    assert meta["failures"] == []

    result = runner.invoke(main, ["report", "--input", str(out),
                                  "--threshold", "0.01", "-o", str(tmp_path / "agg")])
    assert result.exit_code == 0, result.output
    agg = (tmp_path / "agg.t0.01.csv").read_text().splitlines()
    assert agg[0] == "algo,p,alpha,threshold,norm_iter,fraction"


def test_sweep_is_byte_identical(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(a)]).exit_code == 0
    assert runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_seed_override_changes_output(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(a)])
    runner.invoke(main, ["sweep", "--config", str(cfg), "--seed", "99", "-o", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_sweep_rejects_bad_config(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "alphas": [2.0]}))
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(tmp_path / "x.csv")])
    assert result.exit_code != 0


@pytest.mark.parametrize("change", [
    {"problems": ["maxcat"]},
    {"mode": "sampled", "shots": 0},
    {"instances_per_size": 0},
    {"vqe_depths": [], "qaoa_depths": []},
    {"problems": ["max3sat"]},
    {"entanglement": "bogus"},
    {"workers": 0},
    {"workers": 2.5},
    {"master_seed": "abc"},
    {"master_seed": 1.5},
    {"mode": "sampled", "shots": 64.5},
    {"iteration_budget_per_qubit": 4.5},
    {"sizes": [6.5]},
    {"alphas": ["0.5"]},
    {"alphas": [0.5, True]},
], ids=["unknown-problem", "no-shots", "no-instances", "no-depths", "no-max3sat-size", "unrunnable-shape",
        "no-workers", "fractional-workers", "string-seed", "fractional-seed", "fractional-shots", "fractional-budget",
        "fractional-size", "string-alpha", "bool-alpha"])
def test_sweep_rejects_a_config_every_task_would_fail(runner, tmp_path, change):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, **change}))
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad config" in result.output and not out.exists()


def test_sweep_rejects_a_worker_count_below_one(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "--workers", "0", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad config" in result.output and "workers must be >= 1" in result.output and not out.exists()


def test_report_rejects_bad_threshold(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "results.csv"
    runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(out)])
    result = runner.invoke(main, ["report", "--input", str(out), "--threshold", "1.5",
                                  "-o", str(tmp_path / "agg")])
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "bad_row",
    ["maxcut,4,1,vqe,1,0.25,2,0.5,-1.5", "maxcut,4,1,vqe,1,0.25,2,0.5,abc,0.5"],
    ids=["short-row", "non-numeric-field"],
)
def test_report_rejects_malformed_csv_row(runner, tmp_path, bad_row):
    src = tmp_path / "results.csv"
    src.write_text(f"{CSV_HEADER}\n{bad_row}\n")
    result = runner.invoke(main, ["report", "--input", str(src), "-o", str(tmp_path / "agg")])
    assert result.exit_code == 2  # a usage error, not a crash
    assert "sweep CSV line 2: expected 10 fields" in result.output


def test_flatness_subcommand_needle(runner, tmp_path):
    out = tmp_path / "flat.json"
    result = runner.invoke(main, ["flatness", "--problem", "needle", "--n", "6",
                                  "-p", "2", "--draws", "5", "-o", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 5
    assert all(r["bound_holds"] for r in doc["reports"])
    assert all(len(r["delta_per_layer"]) == 3 for r in doc["reports"])


def test_flatness_subcommand_maxcut(runner, tmp_path):
    out = tmp_path / "flat.json"
    result = runner.invoke(main, ["flatness", "--problem", "maxcut", "--n", "5",
                                  "--instance-seed", "2", "-p", "1", "--draws", "3",
                                  "-o", str(out)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("problem", ["needle", "maxcut"])
@pytest.mark.parametrize("n", ["0", "21"])
def test_flatness_size_out_of_range_is_a_usage_error(runner, tmp_path, problem, n):
    result = runner.invoke(main, ["flatness", "--problem", problem, "--n", n,
                                  "-o", str(tmp_path / "flat.json")])
    assert result.exit_code == 2, result.output
    assert "qubit" in result.output


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_flatness_bad_tolerance_is_a_usage_error(runner, tmp_path, tol):
    out = tmp_path / "flat.json"
    result = runner.invoke(main, ["flatness", "--problem", "needle", "--n", "4", "--tol", tol, "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "tolerance" in result.output and not out.exists()


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_flatness_without_draws_is_a_usage_error(runner, tmp_path, draws):
    out = tmp_path / "flat.json"
    result = runner.invoke(main, ["flatness", "--problem", "needle", "--n", "4", "--draws", draws, "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "--draws" in result.output and not out.exists()


def test_sweep_meta_records_each_failure_with_its_traceback(runner, tmp_path, portfolio_runs_fail):
    cfg_doc = {**TINY_CONFIG, "problems": ["maxcut", "portfolio"]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_path / "res.csv"
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "-o", str(out)])
    assert result.exit_code == 1
    failures = json.loads((tmp_path / "res.csv.meta.json").read_text())["failures"]
    assert len(failures) == 2 and all(
        f["kind"] == "run" and f["message"].startswith("portfolio/") and "injected" in f["message"] for f in failures)
    assert all(f["traceback"].startswith("Traceback") and "ValueError" in f["traceback"] for f in failures)
    lines = [line for line in result.output.splitlines() if line.startswith("[run failed]")]
    assert lines == [f"[run failed] {f['message']}" for f in failures]  # one stderr line each
    assert out.read_text() == run_sweep(ExperimentConfig(**cfg_doc)).to_csv()


def test_regen_golden_check_passes(runner):
    result = runner.invoke(main, ["regen-golden", "--check"])
    assert result.exit_code == 0, result.output
    assert "up to date" in result.output
