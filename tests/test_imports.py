"""Every name a package module imports is used in that module.

__init__ re-exports its imports and is exempt. A name counts as used when it
appears as an identifier anywhere in the module body, annotations included.

Importing the CLI stays light: no package module imports dataclasses, and
`import semiexact.cli` loads neither dataclasses nor inspect.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semiexact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from .morphisms import compose, is_zero_morphism, kernel\n"
              "import random\n"
              "def f(x):\n"
              "    return kernel(x), random.random()\n")
    assert unused_imports(source) == [(1, "compose"), (1, "is_zero_morphism")]


def imported_modules(source):
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_leaves_out_dataclasses_and_inspect(src_env):
    """A module count, not a timing: each of these costs every CLI run import
    time, and dataclasses also generates and compiles code per class."""
    code = "import sys, semiexact.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
