"""The package imports exactly what pyproject.toml declares, no SciPy, and no
numpy.random on the CLI's import path; its plain records are NamedTuples."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _third_party_imports() -> set[str]:
    names = set()
    for path in (SRC / "phasequark").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "phasequark"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert _third_party_imports() == declared


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_verify_runs_with_scipy_blocked():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from phasequark.cli import main\n"
        "sys.exit(main(['verify']))\n"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def test_cli_import_does_not_load_numpy_random():
    result = _run_python("import sys, phasequark.cli; print('numpy.random' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _public_classes() -> dict[str, type]:
    out = {}
    for name in ("phase_space", "clifford", "hamiltonian", "pauli_expr", "serialize", "verify",
                 "cli"):
        module = importlib.import_module(f"phasequark.{name}")
        out.update({attr: getattr(module, attr) for attr in module.__all__
                    if inspect.isclass(getattr(module, attr))})
    return out


def test_only_records_with_behaviour_of_their_own_are_dataclasses():
    # Generator6 validates its matrix; EMField and HamiltonianSpec compare, hash and
    # dataclasses.replace field by field; CheckResult's == skips timings
    assert {name for name, cls in _public_classes().items() if dataclasses.is_dataclass(cls)} == {
        "Generator6", "EMField", "HamiltonianSpec", "CheckResult"}


RECORD_FIELDS = {  # in the order of the dataclass fields each NamedTuple replaces
    "PhaseVector": ("p", "x"),
    "PairingScheme": ("label", "momenta", "positions"),
    "DerivedPairing": ("color", "quarter_turn", "quarter_turn_angle", "ordinary",
                       "ordinary_angle", "matrix", "residual"),
    "DistinctnessReport": ("color", "p", "x", "m", "min_distance", "minimizer", "margin",
                           "degenerate"),
    "SpectrumReport": ("eigenvalues", "degeneracies", "scalar_square", "scalar_residual",
                       "hermiticity_residual", "symmetric_about_zero"),
    "VerificationReport": ("suite", "seed", "checks"),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_are_named_tuples_in_their_field_order(name):
    cls = _public_classes()[name]
    assert issubclass(cls, tuple) and cls._fields == RECORD_FIELDS[name]
