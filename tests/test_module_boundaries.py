"""No module of the package reaches into another module's private names,
imports a name it never uses, exports a name it does not define, or
imports anything beyond the standard library and numpy; and every library
name the benchmark (bench/) binds exists."""

import ast
import importlib
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


def package_imports(source: str) -> list[str]:
    """Imports of the package's own modules, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            found.append(f"line {node.lineno}: {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "subnyq"]
    return found


def test_output_imports_no_package_module():
    # output knows how bytes are laid out and nothing of what they mean
    assert package_imports("from . import numerics\nimport subnyq.cli\nimport json\n") == [
        "line 1: .", "line 2: subnyq.cli",
    ]
    source = (SRC / "subnyq" / "output.py").read_text(encoding="utf-8")
    assert package_imports(source) == [] and foreign_imports(source) == []


def cli_import_probe(probe: str) -> list[str]:
    """The words `probe` prints after `import sys, subnyq.cli` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, subnyq.cli\n" + probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.split()


# numpy.random imports secrets -> hmac -> _hashlib (OpenSSL): about 6 MB of
# RSS that no command needs, as samplers computes the Philox stream itself
RANDOM_PROBE = "print(sorted(m for m in ('numpy.random', '_hashlib') if m in sys.modules))\n"


def test_cli_import_loads_no_scipy():
    probe = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n" + RANDOM_PROBE
    assert cli_import_probe(probe) == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--command", "capacity", "--m", "2"],
        ["--command", "discrete", "--n", "12", "--k", "3", "--m", "4", "--state-cap", "50"],
        ["--command", "achievability", "--n", "10", "--k", "3", "--m", "3", "--trials", "2"],
        ["--command", "verify", "--seed", "7"],
    ],
    ids=lambda argv: argv[1],
)
def test_commands_load_no_numpy_random(tmp_path, argv):
    probe = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    print(subnyq.cli.main({argv + ['--out', str(tmp_path / 'out')]!r}))\n"
        + RANDOM_PROBE
    )
    assert cli_import_probe(probe) == ["[]"]
    assert (tmp_path / "out").stat().st_size > 0


def numpy_random_imports(source: str) -> list[str]:
    """Imports of numpy.random in any form, and `np.random` / `numpy.random`
    attribute reads, which import it lazily."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
        ):
            names = [f"{node.value.id}.random"]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[:2] in (["numpy", "random"], ["np", "random"])
        ]
    return found


def test_numpy_random_detector_catches_every_form():
    source = (
        "import numpy as np, numpy.random\n"
        "from numpy.random import Philox\n"
        "from numpy import random as npr, linalg\n"
        "def f(gen: np.random.Generator): return np.linalg.norm\n"
        "import random\n"
    )
    assert numpy_random_imports(source) == [
        "line 1: numpy.random",
        "line 2: numpy.random",
        "line 2: numpy.random.Philox",
        "line 3: numpy.random",
        "line 4: np.random",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_random_imports(path):
    assert numpy_random_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_concurrent():
    # the workers are forked processes; concurrent.futures costs about 10 ms to import
    probe = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
    assert cli_import_probe(probe) == ["[]"]


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the source never reads (`__future__`
    imports and names listed in `__all__` excepted)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy as np, os.path\n"
        "from .numerics import whiten, colex_plan as plan\n"
        "__all__ = ['whiten']\n"
        "x = np.zeros(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 3: plan"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


BENCH = SRC.parent / "bench"


def bench_bindings() -> list[tuple[str, str]]:
    """(module, name) of every library name the benchmark binds: the
    `TRACED` table of bench/child.py and the `from subnyq... import` lines
    of bench/workloads.py, read with `ast`, without running either file."""
    found = []
    child = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    for node in ast.walk(child):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            found += ast.literal_eval(node.value).values()
    workloads = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_binds_only_defined_names():
    # a traced name the library no longer defines drops its per-layer
    # metrics from the benchmark's result line, and a missing import fails
    # every invocation's output check
    bindings = bench_bindings()
    assert ("subnyq.cli", "main") in bindings and ("subnyq.channel", "ChannelState") in bindings
    missing = [
        f"{module}.{name}"
        for module, name in bindings
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def undefined_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level def, class or assignment of the
    source defines: a stale export, or one of a name it only imports."""
    tree = ast.parse(source)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def test_undefined_export_detector():
    source = (
        "from .numerics import whiten\n"
        "__all__ = ['A', 'B', 'f', 'whiten', 'gone']\n"
        "A = B = 1\n"
        "def f(): pass\n"
    )
    assert undefined_exports(source) == ["whiten", "gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_defined_in_module(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []
