"""Contracts on the names other code reaches into.

* Every name in a ``repro`` subpackage's ``__all__`` must resolve, so a
  deletion cannot leave a dangling export behind.
* ``perfbench/tracer.py`` wraps ``repro`` functions by name through
  ``vars(owner)[attribute]``; every entry of its ``layer_table()`` must exist,
  or each traced benchmark run fails with ``KeyError``.  The tracer is read
  and executed here without importing it as a module, so nothing is written
  next to it.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg)
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
