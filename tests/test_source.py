"""Source checks that need no linter: every name a module imports is used,
no module reads another module's private name, no module imports what a
start need not load, every name the benchmark worker reads on a bsvi module
exists, and the package keeps its line budget."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsvi"


def unused_imports(source: str) -> list:
    """Names imported by ``source`` and never read, in order; an import whose
    lines say ``# noqa`` (a re-export, say) is skipped."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                "# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names in string annotations, such as "ScenarioTree"
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


# a package's __init__ imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_a_stale_name():
    source = ("import math\nfrom .lattice import (level_moments,\n    stacked_rows)\n"
              "from .analysis import epsilon_table  # noqa: F401\n"
              "def f(x) -> 'np.ndarray':\n    return level_moments(x)\n")
    assert unused_imports(source) == ["math", "stacked_rows"]
    assert unused_imports("import numpy as np\ndef f(x: 'np.ndarray'): pass\n") == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list:
    """Private names ``source`` reads from another module, in order: a
    ``from m import _name``, or an ``m._name`` on a module it imports by
    ``import m`` or ``from . import m``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if _private(a.name)]
            if node.module is None:  # from . import analysis: the names are modules
                modules |= {a.asname or a.name for a in node.names}
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_private_name_of_another(module):
    assert private_reads((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_private_name_check_flags_a_reach_in():
    source = ("from . import analysis\nfrom .convex import _as_points, prox\n"
              "import numpy as np\nfrom .lattice import Tree\n"
              "x = analysis._path_norm(Tree._size) + analysis.path_norm(np.pi)\n"
              "y = np.__version__, prox\n")
    assert private_reads(source) == ["_as_points", "analysis._path_norm"]


def imported_modules(source: str, module_level: bool = False) -> set:
    """Top-level names of the modules ``source`` imports absolutely; with
    ``module_level``, only by statements at the module's top level."""
    tree, found = ast.parse(source), set()
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_no_dataclasses(module):
    # a dataclass compiles its methods with exec when its class is made, on
    # every start of the CLI; the value classes derive from lattice.Record.
    # argparse (with gettext and locale) and csv cost every start about 2.2 ms
    # to import: the CLI imports them only for a line it does not read itself
    # and for a CSV bundle
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert "dataclasses" not in imported_modules(source)
    assert not {"argparse", "csv"} & imported_modules(source, module_level=True)


def test_import_check_sees_both_import_forms():
    source = ("import os.path\nfrom dataclasses import dataclass\nfrom . import lattice\n"
              "from .convex import prox\n")
    assert imported_modules(source) == {"os", "dataclasses"}
    nested = source + "def f():\n    import csv\n    from argparse import Namespace\n"
    assert imported_modules(nested) == {"os", "dataclasses", "csv", "argparse"}
    assert imported_modules(nested, module_level=True) == {"os", "dataclasses"}


def test_a_json_run_loads_no_argparse_gettext_locale_or_csv(tmp_path):
    # a fresh start with no bytecode cache, as the benchmark's checkouts run: a
    # run's first argparse parser cost it about 1 ms more, gettext's locale included
    code = ("import sys\nfrom bsvi import cli\n"
            "code = cli.main([sys.argv[1], '--out', sys.argv[2], '--format', 'json'])\n"
            "print(code, sorted({'argparse', 'gettext', 'locale', 'csv'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(PACKAGE.parent)}
    config = PACKAGE.parent.parent / "configs" / "minimal.yaml"
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "report.json").exists()


def package_reads(source: str) -> list:
    """(module, name) for every ``m.name`` that ``source`` reads on a bsvi
    module it imports by ``from bsvi import m`` (or ``as`` another name), in order."""
    tree = ast.parse(source)
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "bsvi"
               for a in node.names}
    return [(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def test_the_benchmark_worker_reads_only_names_the_package_has():
    # perfbench/worker.py runs the benchmark against this package's source; a
    # name it reads that the package no longer defines fails its workload
    worker = PACKAGE.parent.parent / "perfbench" / "worker.py"
    reads = package_reads(worker.read_text(encoding="utf-8"))
    assert {"analysis", "cli", "generators", "problems", "solver"} <= {m for m, _ in reads}
    missing = [f"{m}.{name}" for m, name in reads
               if not hasattr(importlib.import_module(f"bsvi.{m}"), name)]
    assert missing == []


def test_package_read_check_sees_module_attributes_only():
    source = ("from bsvi import analysis, solver as s\nimport numpy as np\n"
              "x = analysis.apriori_audit(s.prox_step_solve, np.pi, other.name)\n")
    assert package_reads(source) == [("analysis", "apriori_audit"), ("solver", "prox_step_solve")]


# ROADMAP item 10's gate on the package size; a change that grows the package
# past it raises the bound here and says why in CHANGES.md
PACKAGE_LINE_BUDGET = 2452


def test_package_stays_within_its_line_budget():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))  # as wc -l counts
    assert lines <= PACKAGE_LINE_BUDGET
