"""The package imports exactly what pyproject.toml declares, and no SciPy."""

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


def test_verify_runs_with_scipy_blocked():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from phasequark.cli import main\n"
        "sys.exit(main(['verify']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
