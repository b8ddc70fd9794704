"""Source checks that need no linter: every name a module imports is used,
no module reads another module's private name, no module calls BLAS, the
once-per-level functions call no numpy Python wrapper, no module imports what
a start need not load, every name the benchmark worker reads on a bsvi module
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


# the package's __init__ imports its modules and reads none of them
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


BLAS_CALLS = {"matmul", "dot", "inner", "vdot", "tensordot", "multi_dot"}


def blas_calls(source: str) -> list:
    """``@`` (``@=`` too) and the numpy products that may call BLAS, as
    ``line: text`` in order: an attribute or a name ``matmul``, ``dot``,
    ``inner``, ``vdot``, ``tensordot`` or ``multi_dot``, on numpy or an array."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_CALLS:
            found.append((node.lineno, node.id))
    return [f"{line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_makes_no_blas_call(module):
    # the BLAS twin of test_a_dim_one_run_makes_no_lapack_call: a matmul on a
    # (rows, 1) level took about 5 times an einsum's time with BLAS pinned to one
    # thread, and a node's product depended on how many rows shared the call
    calls = blas_calls((PACKAGE / module).read_text(encoding="utf-8"))
    assert calls == [], f"contract with np.einsum instead: {calls}"


def test_blas_check_flags_every_product_form():
    source = ("import numpy as np\nfrom numpy import vdot\nx = a @ b\nx @= b\n"
              "y = np.dot(a, b) + a.dot(b) + np.matmul(a, b) + np.inner(a, b)\n"
              "w = np.tensordot(a, b, 1) + vdot(a, b) + np.linalg.multi_dot([a, b])\n"
              "z = np.einsum('...l,kl->...k', a, b) * a + dot_count\n")
    assert blas_calls(source) == ["3: @", "4: @", "5: dot", "5: dot", "5: inner", "5: matmul",
                                  "6: multi_dot", "6: tensordot", "6: vdot"]


# the functions a solve or an audit enters once per level: each numpy wrapper below is a
# Python frame around the ufunc or array method it calls, `np.repeat` around
# ``ndarray.repeat``, `np.sum` and ``.sum(axis=...)`` around `np.add.reduce`
HOT_PATH = {"solver": ("_one_pass", "_weighted_distance"),
            "generators": ("frozen_prefix", "level_drift"),
            "lattice": ("level_moments", "row_sq_norms", "fold_running_max"),
            "analysis": ("_schedule_sums", "solution_residuals")}
WRAPPED_METHODS = {"sum", "max", "min", "mean", "all", "any"}
WRAPPED_FUNCTIONS = WRAPPED_METHODS | {"amax", "amin", "repeat"}


def wrapper_calls(source: str, function: str) -> list:
    """The numpy Python wrappers the top-level ``function`` of ``source`` reaches
    for, nested functions included, as ``line: text`` in order: ``np.sum``, ``max``,
    ``min``, ``mean``, ``all``, ``any``, ``amax``, ``amin`` or ``repeat``, and a call
    of the method ``.sum``, ``.max``, ``.min``, ``.mean``, ``.all`` or ``.any``."""
    [node] = [n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in ("np", "numpy") and sub.attr in WRAPPED_FUNCTIONS:
            found.append((sub.lineno, f"np.{sub.attr}"))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in WRAPPED_METHODS and not (
                    isinstance(sub.func.value, ast.Name) and sub.func.value.id in ("np", "numpy")):
            found.append((sub.lineno, f".{sub.func.attr}("))
    return [f"{line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("module, function", [(m, f) for m, fs in HOT_PATH.items() for f in fs])
def test_once_per_level_code_calls_no_numpy_wrapper(module, function):
    # a delayed Picard run's sweeps cost call overhead more than arithmetic: at
    # n = 8 a level holds at most 2,816 rows of the eps batch
    calls = wrapper_calls((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), function)
    assert calls == [], f"call the ufunc (np.add.reduce, np.maximum.reduce) or the " \
        f"array method (.repeat) instead: {calls}"


def test_wrapper_check_flags_every_form():
    source = ("import numpy as np\ndef level(a, b):\n    x = np.sum(a) + np.max(a, axis=0)\n"
              "    y = a.sum(axis=1) + a.reshape(-1).max() + np.isfinite(a).all()\n"
              "    def inner(c):\n        return np.repeat(c, 2) + c.any() + c.mean() + c.min()\n"
              "    z = np.mean(a) + np.min(a) + np.all(a) + np.any(a) + numpy.amax(a) + np.amin(a)\n"
              "    return np.add.reduce(a, axis=1) + np.maximum.reduce(a) + a.repeat(2, axis=0) \\\n"
              "        + sum(a) + max(1, 2) + min(b) + any(b) + all(b) + a.cumsum()\n"
              "def other(a):\n    return a.sum()\n")
    assert wrapper_calls(source, "level") == [
        "3: np.max", "3: np.sum", "4: .all(", "4: .max(", "4: .sum(", "6: .any(", "6: .mean(",
        "6: .min(", "6: np.repeat", "7: np.all", "7: np.amax", "7: np.amin", "7: np.any",
        "7: np.mean", "7: np.min"]
    assert wrapper_calls(source, "other") == ["11: .sum("]


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


def test_the_package_binds_only_its_modules_and_loads_them_before_pyyaml():
    # a re-exported name had a second import path; each name has one now, its
    # module's.  `import bsvi` loads every module before the CLI imports PyYAML,
    # so a fresh start does not compile them on top of PyYAML's memory
    code = ("import sys\nimport bsvi\n"
            "print(*sorted(n for n in vars(bsvi) if n[:2] != '__'), bsvi.__version__)\n"
            "from bsvi import cli\nloaded = list(sys.modules)\n"
            "print(*sorted(m for m in loaded[:loaded.index('yaml')] if m[:5] == 'bsvi.'))\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = "bsvi.analysis bsvi.convex bsvi.generators bsvi.lattice bsvi.solver"
    assert proc.stdout.splitlines() == [modules.replace("bsvi.", "") + " 0.1.0", modules]


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


def _reads(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unread_definitions(package: dict, others: list) -> list:
    """``module.name`` of each top-level function and class of the ``package``
    sources (module -> source) that no source reads, as an ``ast.Name`` or an
    ``ast.Attribute``'s attr, outside the definition itself, in order; every
    read of the ``others`` sources counts."""
    read = set().union(*(_reads(ast.parse(source)) for source in others))
    statements = [(module, node) for module, source in package.items()
                  for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in statements]
    return [f"{module}.{node.name}" for k, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
            and not any(node.name in r for j, r in enumerate(reads) if j != k)]


# the acceptance criteria call these two, and no package module, script or benchmark file does
AUDITED_ONLY_BY_TESTS = {
    "convex.yosida_triple": "criterion 1, the Yosida property suite",
    "analysis.stability_audit": "criterion 10, the stability estimate",
}


def test_every_definition_of_the_package_is_read_outside_the_tests():
    # a function or class that only the tests reach is a second way to do
    # what the package already does, or dead code
    root = PACKAGE.parent.parent
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text(encoding="utf-8") for d in ("scripts", "perfbench")
              for p in sorted((root / d).glob("*.py"))]
    assert sorted(unread_definitions(package, others)) == sorted(AUDITED_ONLY_BY_TESTS)


def test_unread_definition_check_counts_reads_outside_the_definition_only():
    package = {"a": "def f(n):\n    return f(n - 1)\nclass C:\n    pass\ndef g():\n    return C\n",
               "b": "import a\nx = a.h\n"}
    assert unread_definitions(package, []) == ["a.f", "a.g"]
    assert unread_definitions(package, ["g()\n"]) == ["a.f"]


# ROADMAP item 10's gate on the package size; a change that grows the package
# past it raises the bound here and says why in CHANGES.md
PACKAGE_LINE_BUDGET = 2310


def test_package_stays_within_its_line_budget():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))  # as wc -l counts
    assert lines <= PACKAGE_LINE_BUDGET
