import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cvarqopt
from cvarqopt import fixtures
from cvarqopt.objective import cvar_exact, outcome_distribution
from cvarqopt.statevector import StateVector, run_circuit
from gate_reference import cnot, h, run_reference, ry


def test_two_qubit_closed_form_at_sixth_turn():
    got = fixtures.two_qubit_amplitudes(np.pi / 3)
    want = np.array(
        [np.cos(np.pi / 6), np.sin(np.pi / 6), -np.sin(np.pi / 6), np.cos(np.pi / 6)]
    ) / np.sqrt(2)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_two_qubit_circuit_carries_the_bytes_of_its_gate_level_run():
    """The fixture's five whole-register steps give the gate-by-gate H(0), CNOT(0, 1), RY(theta on 1)
    run bit for bit: the reference's imaginary parts are all zero, and its real parts and
    probabilities are the fixture state's bytes."""
    thetas = [*np.linspace(-7.0, 7.0, 1000).tolist(), 0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 1e-300, -0.0]
    for theta in thetas:
        got = run_circuit(fixtures.two_qubit_circuit(theta))
        want = run_reference(2, [h(0), cnot(0, 1), ry(1, theta)])
        assert not want.imag.any(), theta
        assert got.amplitudes.tobytes() == want.real.tobytes(), theta
        assert got.probabilities.tobytes() == StateVector(2, want).probabilities.tobytes(), theta


def test_portfolio_transcription_spot_checks():
    assert fixtures.PORTFOLIO_RETURNS[1] == 0.9893
    assert fixtures.PORTFOLIO_RETURNS[0] == 0.7313
    assert fixtures.PORTFOLIO_COVARIANCE[3][3] == 3.5067
    assert fixtures.PORTFOLIO_COVARIANCE[0][5] == -0.3809
    assert fixtures.PORTFOLIO_RISK_FACTOR == 0.5
    assert fixtures.PORTFOLIO_BUDGET == 3
    assert fixtures.PORTFOLIO_PENALTY == 12.0
    sigma = np.array(fixtures.PORTFOLIO_COVARIANCE)
    np.testing.assert_array_equal(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() >= -1e-8


def test_closed_form_cvar_matches_numeric(rng):
    ham = fixtures.two_qubit_hamiltonian()
    for theta in rng.uniform(0, 2 * np.pi, size=12):
        state = run_circuit(fixtures.two_qubit_circuit(theta))
        d = outcome_distribution(state, ham)
        for alpha in (0.03, 0.2, 0.5, 0.8, 1.0):
            assert fixtures.two_qubit_cvar(theta, alpha) == pytest.approx(
                cvar_exact(d, alpha), abs=1e-12
            )


def test_golden_suite_landscapes_evaluate():
    # the published half-tail landscape, CVaR_0.5 = sin^2(theta/2), on a 25-angle grid
    thetas = np.linspace(0.0, 2 * np.pi, 25)
    got = [fixtures.two_qubit_cvar(t, 0.5) for t in thetas]
    np.testing.assert_allclose(got, np.sin(thetas / 2) ** 2, atol=1e-9)


def test_committed_golden_data_is_current():
    """Diff gate: regenerating the computed values must reproduce the file."""
    assert fixtures.compute_golden_values() == fixtures.load_golden_json()


# Imports only the standard library and the declared dependencies, then prints
# the recomputed golden values.  `pytest` is installed wherever this runs but is
# not a dependency, so failing to import it shows that the block is in force.
_ONLY_DECLARED_DEPENDENCIES = textwrap.dedent(
    """
    import importlib.abc, json, sys

    DECLARED = {"cvarqopt", "numpy", "click"}

    class OnlyDeclared(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            if top in DECLARED or top in sys.stdlib_module_names:
                return None
            raise ModuleNotFoundError(f"{name} is not a declared dependency", name=name)

    sys.meta_path.insert(0, OnlyDeclared())
    try:
        import pytest
    except ModuleNotFoundError:
        pass
    else:
        sys.exit("the import block is not in force")

    from cvarqopt import fixtures

    print(json.dumps(fixtures.compute_golden_values()))
    """
)


def test_golden_data_needs_only_declared_dependencies():
    """The frozen values, the optimizer trace included, come out the same when
    no package beyond the declared dependencies can be imported."""
    src = str(Path(cvarqopt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _ONLY_DECLARED_DEPENDENCIES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == fixtures.load_golden_json()
