"""Imports in the package modules: every one is used (no linter needed), and none is paid for needlessly."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gemsim"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_checker_sees_unused_and_used_imports():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: path"]


@pytest.mark.parametrize("module", ["scipy", "concurrent", "multiprocessing"])
def test_package_modules_do_not_import(module):
    def roots(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]

    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [p.name for p in modules if module in roots(ast.parse(p.read_text()))] == []


def test_package_modules_have_no_unused_imports():
    # __init__.py imports names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert not {name: lines for name, lines in unused.items() if lines}


def test_importing_the_cli_loads_no_process_pool():
    # nothing in the package imports them (see above), nor do the modules it imports
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, gemsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
