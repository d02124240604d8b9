"""The runtime stays stdlib-only: every import under src/tdw is relative
or names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdw"


def foreign_imports(path: Path) -> list[str]:
    """path:line: module for each absolute import outside the standard library."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno}: {m}"
            for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in foreign_imports(path)] == []


def test_guard_flags_third_party_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import json, numpy.linalg\n"
        "from . import engine\n"
        "from .errors import Error\n"
        "from yaml import safe_load\n"
        "def f():\n"
        "    import os.path\n"
        "    import requests\n",
        encoding="utf-8",
    )
    assert foreign_imports(module) == [
        "mod.py:1: numpy.linalg",
        "mod.py:4: yaml",
        "mod.py:7: requests",
    ]
