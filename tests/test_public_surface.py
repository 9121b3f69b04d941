"""Contracts on the names other code reaches into.

* Every name in a ``repro`` subpackage's ``__all__`` must resolve, so a
  deletion cannot leave a dangling export behind.
* ``perfbench/tracer.py`` wraps ``repro`` functions by name through
  ``vars(owner)[attribute]``; every entry of its ``layer_table()`` must exist,
  or each traced benchmark run fails with ``KeyError``.  The tracer is read
  and executed here without importing it as a module, so nothing is written
  next to it.
* No module under ``src/repro``, ``examples/``, ``scripts/``, ``benchmarks/``
  or ``tests/`` imports a name at module level that it never uses (package
  ``__init__`` re-exports aside).
* Only ``repro/utils/workers.py`` imports ``multiprocessing`` or starts,
  pipes to, terminates or kills a process, so the rules for forking and
  for ending a child exist once.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg)
ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(
    path
    for folder in ("src/repro", "examples", "scripts", "benchmarks", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(f"repro.{name}")
    exported = package.__all__
    assert len(set(exported)) == len(exported), f"repro.{name}.__all__ repeats a name"
    missing = [export for export in exported if not hasattr(package, export)]
    assert not missing, f"repro.{name}.__all__ names missing attributes: {missing}"


def load_tracer() -> types.ModuleType:
    tracer = types.ModuleType("perfbench_tracer")
    tracer.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), tracer.__dict__)
    return tracer


def test_tracer_table_resolves():
    table = load_tracer().layer_table()
    assert table
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attribute}"
        for owner, attribute, *_ in table
        if attribute not in vars(owner)
    ]
    assert not missing, f"perfbench/tracer.py wraps names that no longer exist: {missing}"


def module_imports(tree: ast.Module):
    """Import statements run at import time (also inside top-level ``if`` / ``try``)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def names_used(tree: ast.Module) -> set:
    """Every ``Name`` in the module, including those in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(expression) if isinstance(name, ast.Name))
    return used


def test_no_unused_module_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        used = names_used(tree)
        for node in module_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    assert not unused, f"module-level imports never used: {unused}"


PROCESS_CALLS = {"get_context", "Process", "Pipe", "terminate", "kill"}


def process_calls(tree: ast.Module):
    """``(line, what)`` for each ``multiprocessing`` import and process call."""
    for node in ast.walk(tree):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        for module in modules:
            if module.split(".")[0] == "multiprocessing":
                yield node.lineno, f"import {module}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attribute, owner = node.func.attr, node.func.value
            is_fork = attribute == "fork" and isinstance(owner, ast.Name) and owner.id == "os"
            if attribute in PROCESS_CALLS or is_fork:
                yield node.lineno, f".{attribute}()"


def test_only_the_workers_module_starts_or_ends_processes():
    source = ROOT / "src" / "repro"
    owner = source / "utils" / "workers.py"
    found = [
        f"{path.relative_to(ROOT)}:{line} {what}"
        for path in sorted(source.rglob("*.py"))
        if path != owner
        for line, what in process_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"process plumbing outside repro.utils.workers: {found}"
