"""The public surface stays whole: each module's `__all__` is real, and
every name the benchmark harness reaches for still exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hotelsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = [m.name for m in pkgutil.iter_modules(hotelsim.__path__)]


def test_every_traced_name_resolves():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{tier}.{name}" for tier, names in tracing.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"hotelsim.{tier}"), name)]
    assert missing == []


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` works: a name or a submodule."""
    found = importlib.import_module(module)
    return hasattr(found, name) or (
        hasattr(found, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_workload_import_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    missing = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("hotelsim")
               for alias in node.names if not _resolves(node.module, alias.name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"hotelsim.{name}")
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
