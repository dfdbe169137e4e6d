"""The package imports nothing outside the standard library and declares
no dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_absolute_import_is_stdlib():
    modules = sorted((ROOT / "src" / "chordbasis").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
