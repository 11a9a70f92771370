"""The package imports exactly what pyproject.toml declares, no SciPy, and no
numpy.random on the CLI's import path."""

import ast
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
