"""The package imports exactly what pyproject.toml declares, no SciPy, and no
numpy.random on the CLI's import path; its plain records are NamedTuples, and
its public names are pinned here, so removing one is a deliberate edit."""

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


TOP_LEVEL = {
    "DEFAULT_SEED", "EMField", "Generator6", "HamiltonianSpec", "PairingScheme", "ParseError",
    "PauliExpr", "PhaseVector", "SUITES", "SpectrumReport", "anticommutator",
    "antiparticle_distinctness_check", "apply_pairing", "build_C", "build_composite",
    "build_hamiltonian", "charge_conjugation_tau_scan",
    "commutator6", "conjugate_hamiltonian", "derive_pairing_from_diagonal",
    "derive_pairing_from_rotation", "exp_generator", "is_orthogonal", "is_symplectic", "kron3",
    "named_operator", "pairing", "pairing_tags", "parse", "rotate_hamiltonian", "rotation_matrix",
    "run_suite", "square_and_spectrum", "structure_constants", "symplectic_form", "verify_su3_table",
}
MODULE_ALL = {
    "phase_space": ["COORD_NAMES", "PhaseVector", "Generator6", "PairingScheme", "DerivedPairing",
                    "LABEL_HELP", "resolve_generator6", "commutator6", "structure_constants",
                    "verify_su3_table", "exp_generator", "is_orthogonal", "is_symplectic",
                    "symplectic_form", "pairing", "pairing_tags", "apply_pairing",
                    "derive_pairing_from_rotation", "derive_pairing_from_diagonal"],
    "clifford": ["PAULI", "KRON3_STACK", "TENSOR_LABELS", "PHASE", "OPERATORS", "GENERATOR_NAMES",
                 "kron3", "named_operator", "anticommutator", "build_C",
                 "charge_conjugation_tau_scan"],
    "hamiltonian": ["EMField", "HamiltonianSpec", "SpectrumReport", "DistinctnessReport", "KINDS",
                    "coefficients", "matrices", "colored_sum", "build_hamiltonian",
                    "build_composite", "rotation_matrix", "rotated_operators",
                    "rotate_hamiltonian", "conjugate_hamiltonian",
                    "antiparticle_distinctness_check", "square_and_spectrum", "spec_spectrum"],
    "pauli_expr": ["PauliExpr", "ParseError", "parse", "SYMBOLS"],
    "serialize": ["dump_json", "matrix_to_csv", "resolve_export", "EXPORT_LABELS"],
    "verify": ["CheckResult", "VerificationReport", "run_suite", "substitution_conjugate",
               "SUITES", "DEFAULT_SEED"],
    "cli": ["main", "build_parser"],
}


def test_public_names_are_the_pinned_ones():
    package = importlib.import_module("phasequark")
    top = {name for name, value in vars(package).items()
           if not name.startswith("_") and not inspect.ismodule(value)}
    assert top == TOP_LEVEL
    for name, expected in MODULE_ALL.items():
        assert importlib.import_module(f"phasequark.{name}").__all__ == expected, name
    # each top-level name comes from a module that lists it in __all__
    init = ast.parse((SRC / "phasequark" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.name: node.module for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module in MODULE_ALL
                for alias in node.names}
    assert imported.keys() == TOP_LEVEL
    assert all(name in MODULE_ALL[module] for name, module in imported.items())
