"""Names other code reaches the package through.  `cvarqopt.__all__` is the
library's export list.  The benchmark traces the package by replacing module
attributes (see `perfbench/tracing.py`); these tests keep the names it wraps
alive and check that the package still reaches the simulator through them."""
import ast
import hashlib
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cvarqopt
from conftest import rotated_sizes
from cvarqopt import ansatz, flatness, hamiltonian, harness, objective, oracle, statevector
from cvarqopt.problems import InstanceSpec, generate

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_exported_name_resolves():
    missing = [name for name in cvarqopt.__all__ if not hasattr(cvarqopt, name)]
    assert not missing and len(set(cvarqopt.__all__)) == len(cvarqopt.__all__)


def test_public_api_is_pinned():
    """Adding or dropping an export is a deliberate change to this list.  Circuits are `BoundCircuit`s
    of `Step`s, so no second, validating gate or circuit type or its constructors may come back."""
    assert sorted(cvarqopt.__all__) == [
        "AnsatzSpec", "CvarConfig", "DiagonalHamiltonian", "GroundTruth", "InstanceSpec", "IsingModel",
        "OptimizerConfig", "OutcomeDistribution", "PortfolioFixture", "QuboProblem", "RunTrace", "StateVector",
        "best_observed_solution", "build_circuit", "cvar_exact", "cvar_sampled", "enumerate_hamiltonian",
        "generate", "ising_to_hamiltonian", "minimize", "outcome_distribution", "overlap_with_optimum",
        "portfolio_qubo", "qubo_to_hamiltonian", "qubo_to_ising", "run_circuit", "trial_state",
    ]
    gone = ("Gate", "Circuit", "InvalidGateError", "GATE_NAMES", "ry", "h", "cnot", "diag", "layer")
    assert [name for name in gone if hasattr(statevector, name)] == []
    assert [name for name in ("qaoa_layer", "_plan") if hasattr(ansatz, name)] == []
    # test oracles, which live in tests/ now, and names nothing called
    gone = {statevector.StateVector: "zero", objective.OutcomeDistribution: "mean", hamiltonian.QuboProblem: "value",
            hamiltonian.IsingModel: "value", hamiltonian: "evaluate_bitstring", oracle: "exact_cvar_landscape"}
    assert [(owner, name) for owner, name in gone.items() if hasattr(owner, name)] == []


def test_no_module_names_cnot():
    """The package compiles nothing to gates it does not run: every entangler and cost step is a diag."""
    assert [path.name for path in (ROOT / "src" / "cvarqopt").glob("*.py") if "cnot" in path.read_text()] == []


def test_every_wrapped_name_exists():
    wrapped = wrapped_names()
    assert set(wrapped) == {"cvarqopt.harness", "cvarqopt.flatness"}
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        missing = [attr for attr in names if not callable(getattr(module, attr, None))]
        assert not missing, f"{module_name} lost {missing}"


def unused_imports(source: str) -> set[str]:
    """Names a module imports but never reads (its `__all__` counts as a read)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cvarqopt").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    """Only a name the benchmark wraps may be imported unused: it is there to be replaced."""
    wrapped = wrapped_names().get(f"cvarqopt.{path.stem}", {})
    assert unused_imports(path.read_text()) - set(wrapped) == set()


def test_unused_import_check_sees_unused_names():
    source = "from x import a, b as c\nimport d.e\nimport f\n__all__ = ['a']\nprint(d, c.attr)\n"
    assert unused_imports(source) == {"f"}


def step_builders(sources: dict[str, str]) -> set[str]:
    """The modules, by file name, whose code calls `Step(...)`."""
    return {name for name, source in sources.items()
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Step"
                   for node in ast.walk(ast.parse(source)))}


def test_only_the_ansatz_and_the_fixtures_build_steps():
    """One binder per ansatz family: `flatness` runs `ansatz`'s alternating layer, not its own."""
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "cvarqopt").glob("*.py")}
    assert step_builders(sources) == {"ansatz.py", "fixtures.py"}


def test_step_builder_check_sees_calls():
    sources = {"a.py": "x = Step('h')\n", "b.py": "class Step:\n    pass\ny = Step\n", "c.py": "z = f(Step('rx'))\n"}
    assert step_builders(sources) == {"a.py", "c.py"}


def orphaned_helpers(sources: list[str]) -> set[str]:
    """Module-level `def _name`s that no module reads, as a name or an attribute, outside their own body."""
    def reads(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))

    trees = [ast.parse(source) for source in sources]
    total = sum(map(reads, trees), Counter())
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == reads(node)[node.name]}


def test_every_private_helper_has_a_caller():
    """A private helper whose last caller is deleted must go with it."""
    assert orphaned_helpers([path.read_text() for path in (ROOT / "src" / "cvarqopt").glob("*.py")]) == set()


def test_orphan_check_sees_helpers_that_nothing_calls():
    sources = ["def _used():\n    pass\ndef _orphan():\n    _orphan.__doc__\ndef _dead():\n    pass\n",
               "from a import _used\nx = _used()\nclass C:\n    def _method(self):\n        pass\n"]
    assert orphaned_helpers(sources) == {"_orphan", "_dead"}  # reading itself does not count


def counting(monkeypatch, module, attr, counts):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        counts[attr] = counts.get(attr, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("algo,p,mode", [
    ("vqe", 1, "exact"), ("qaoa", 2, "exact"), ("vqe", 1, "sampled"), ("qaoa", 2, "sampled"),
], ids=["vqe-1", "qaoa-2", "vqe-1-sampled", "qaoa-2-sampled"])
def test_run_single_builds_and_runs_one_circuit_per_evaluation(monkeypatch, algo, p, mode):
    """Every evaluation also scores its state through the module globals the tracer wraps:
    distribution, CVaR and both extras in exact mode, and in sampled mode the shots
    (`sample_outcomes`), their CVaR and the overlap."""
    counts = {}
    scoring = ("outcome_distribution", "cvar_exact", "overlap_with_optimum", "best_support_bitstring",
               "sample_outcomes", "cvar_from_samples")
    for attr in ("build_circuit", "run_circuit") + scoring:
        counting(monkeypatch, harness, attr, counts)
    qubo = generate(InstanceSpec("maxcut", 4, seed=1))
    trace = harness.run_single(qubo, algo, p=p, alpha=0.5, mode=mode, shots=64, seed=3,
                               max_evaluations=12)
    assert trace.n_evaluations > 0
    per_evaluation = ("build_circuit", "run_circuit", "overlap_with_optimum") + (
        ("outcome_distribution", "cvar_exact", "best_support_bitstring") if mode == "exact"
        else ("sample_outcomes", "cvar_from_samples"))
    assert counts == dict.fromkeys(per_evaluation, trace.n_evaluations)


def test_flatness_report_runs_one_circuit_per_layer(monkeypatch):
    counts = {}
    counting(monkeypatch, flatness, "run_circuit", counts)
    flatness.flatness_report(flatness.needle_hamiltonian(4), np.array([0.3, -0.2]), np.array([1.1, 0.4]))
    assert counts == {"run_circuit": 2}


def test_serial_sweep_generates_and_runs_once_per_grid_key(monkeypatch):
    """The tracer sees a sweep's instances and runs only through these two module globals."""
    counts = {}
    for attr in ("generate", "run_single"):
        counting(monkeypatch, harness, attr, counts)
    cfg = harness.ExperimentConfig(problems=("maxcut", "max3sat"), sizes=(4, 6), instances_per_size=1,
                                   alphas=(0.25, 1.0), vqe_depths=(0,), qaoa_depths=(1,),
                                   iteration_budget_per_qubit=4)
    result = harness.run_sweep(cfg)
    assert not result.failures
    keys = 3 * 2 * 2  # (problem, n) in {maxcut 4, maxcut 6, max3sat 6} x 2 depths x 2 alphas
    assert counts == {"generate": keys, "run_single": keys}


@pytest.mark.parametrize("algo,p", [("vqe", 1), ("qaoa", 2)])
def test_run_single_checks_no_gate_per_evaluation(monkeypatch, algo, p):
    """A run builds one `AnsatzSpec`, and what its evaluations share (the entangler signs, the Ising
    spin table) is built the same number of times at either budget: per-run setup does not grow
    with the evaluations."""
    specs, counts, setups = [], {}, []

    def counted_init(self, original=ansatz.AnsatzSpec.__post_init__):
        specs.append(self)
        original(self)

    monkeypatch.setattr(ansatz.AnsatzSpec, "__post_init__", counted_init)
    counting(monkeypatch, ansatz, "entangler_signs", counts)
    counting(monkeypatch, hamiltonian, "_spin_table", counts)
    qubo = generate(InstanceSpec("maxcut", 4, seed=1))
    for budget in (12, 24):
        specs.clear()
        counts.clear()
        ansatz._entangler.cache_clear()
        trace = harness.run_single(qubo, algo, p=p, alpha=0.5, seed=3, max_evaluations=budget)
        assert trace.n_evaluations == budget and len(specs) == 1
        setups.append(dict(counts))
    assert setups[0] == setups[1] == ({"entangler_signs": 1, "_spin_table": 1} if algo == "vqe"
                                      else {"_spin_table": 1})


@pytest.mark.parametrize("problem, algo, half", [
    ("maxcut", "qaoa", True), ("partition", "qaoa", True), ("portfolio", "qaoa", False),
    ("maxcut", "vqe", False), ("partition", "vqe", False), ("portfolio", "vqe", False),
])
def test_one_evaluation_rotates_half_the_register_only_for_a_mirrored_qaoa_cost(monkeypatch, problem, algo, half):
    """The fast path's guard: at n=16 each rotation layer of a maxcut or partition qaoa evaluation
    turns 2^15 amplitudes, and portfolio qaoa and every vqe evaluation turn 2^16."""
    n, p = 16, 2
    ising = hamiltonian.qubo_to_ising(generate(InstanceSpec(problem, n, seed=1)))
    spec = ansatz.AnsatzSpec(algo, n=n, p=p, ising=ising if algo == "qaoa" else None)
    objective = harness.make_objective(hamiltonian.ising_to_hamiltonian(ising),
                                       lambda t: ansatz.build_circuit(spec, t), 0.1)
    sizes = rotated_sizes(monkeypatch)
    objective(np.random.default_rng(0).uniform(-np.pi, np.pi, spec.parameter_count))
    assert sizes == [2 ** (n - 1) if half else 2**n] * p  # the opening layer is a product state


def flatness_digest(n: int, p: int) -> str:
    """SHA-256 of a maxcut instance's flatness snapshots and report figures."""
    ham = hamiltonian.qubo_to_hamiltonian(generate(InstanceSpec("maxcut", n, seed=1)))
    betas, gammas = np.random.default_rng([n, p]).uniform(-np.pi, np.pi, (2, p))
    digest = hashlib.sha256()
    for amps in flatness.qaoa_snapshots(ham, betas, gammas):
        digest.update(amps.tobytes())
    rep = flatness.flatness_report(ham, betas, gammas)
    digest.update(np.array([rep.delta, *rep.delta_per_layer, rep.max_abs_amplitude, rep.bound_value]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n, p, sha256", [
    (10, 1, "464baaab76d4e56a71ba3353b82a348cc47ded7e45cd7a6f282334bf90a27d19"),
    (10, 2, "7d22ea74a9c758efd3e7ea7229d0921358f3bc875c35122a0b170097edb9c700"),
    (16, 1, "da6fd1961397692f9a711e051d250287187818cca7812e92384008775f9bc708"),
    (16, 2, "657d9859b86e88af32d6539da0584ac4f5c5d82942cc743d3f40d2df2c989013"),
])
def test_flatness_keeps_the_whole_register_path_and_its_bytes(monkeypatch, n, p, sha256):
    """Flatness evolves each layer from a given state, so it turns the whole register, and its bytes
    are the whole-register evolution's, pinned for one numpy build and CPU as the golden digest is."""
    sizes = rotated_sizes(monkeypatch)
    assert flatness_digest(n, p) == sha256
    assert set(sizes) == {2**n}
