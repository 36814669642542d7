"""No module of the package reaches into another module's private names,
and the package imports nothing beyond the standard library and numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "subnyq").glob("*.py"))
RUNTIME_DEPENDENCIES = {"numpy"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "subnyq"


def private_accesses(source: str) -> list[str]:
    """`from .x import _name` imports and `module._name` accesses, where
    `module` is a name this source binds to a module of the package."""
    tree = ast.parse(source)
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                if node.module is None or node.module == "subnyq":  # from . import mod
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subnyq":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_detector_catches_both_forms():
    assert len(SOURCES) > 1, "package sources not found"
    source = (
        "from . import converse as cv\n"
        "from .samplers import _generator, draw_matrix\n"
        "x = cv._subset_det_sum_raw(1)\n"
        "y = cv.subset_det_sum(2)\n"
        "z = self._private\n"
    )
    assert private_accesses(source) == [
        "line 2: imports _generator",
        "line 3: cv._subset_det_sum_raw",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_accesses(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of anything but the standard library and numpy."""
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed
        ]
    return found


def test_dependency_detector_catches_both_forms():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy.linalg\n"
        "from scipy.special import ndtri\n"
        "import pandas as pd\n"
        "from . import numerics\n"
    )
    assert foreign_imports(source) == ["line 3: scipy.special", "line 4: pandas"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_scipy():
    # numpy.random is imported with the package, not lazily by the first draw
    probe = (
        "import sys, subnyq.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == ["[]", "True"]
