import json
import platform

import numpy as np
import pytest
from click.testing import CliRunner

from cvarqopt.cli import main
from cvarqopt.harness import CSV_HEADER


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


def test_generate_accepts_class_params(runner, tmp_path):
    out = tmp_path / "tri.json"
    result = runner.invoke(main, [
        "generate", "--problem", "maxcut", "--n", "3",
        "--param", "edges=[[0,1],[1,2],[0,2]]", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["params"]["edges"] == [[0, 1], [1, 2], [0, 2]]


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


def test_run_generated_on_the_fly_sampled(runner, tmp_path):
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["run", "--problem", "portfolio", "--n", "4",
                                  "--algo", "qaoa", "-p", "1", "--mode", "sampled",
                                  "--shots", "256", "--budget", "30", "-o", str(trace)])
    assert result.exit_code == 0, result.output


def test_run_requires_instance_or_problem(runner, tmp_path):
    result = runner.invoke(main, ["run", "-o", str(tmp_path / "x.csv")])
    assert result.exit_code != 0


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


def test_regen_golden_check_passes(runner):
    result = runner.invoke(main, ["regen-golden", "--check"])
    assert result.exit_code == 0, result.output
    assert "up to date" in result.output
