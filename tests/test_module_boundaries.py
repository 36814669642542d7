"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "subnyq").glob("*.py"))


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
