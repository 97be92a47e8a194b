"""The public surface stays whole: each module's `__all__` is real, and
every name the benchmark harness reaches for still exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import hotelsim
from hotelsim import dynamics
from hotelsim.dynamics import DynamicKnobs, PropagatorSettings
from hotelsim.well import SpectralState, WellGeometry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = [m.name for m in pkgutil.iter_modules(hotelsim.__path__)]


def _load(name: str):
    """A perfbench module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # tracing.py imports only the standard library
    tracing = _load("tracing")
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


def test_benchmark_check_reads_the_grid_report():
    # checks.py imports only numpy and the standard library; the
    # grid-dynamics workload hands it report.step_norms, a label -> norm map
    checks = _load("checks")
    geometry = WellGeometry(1.0)
    state = SpectralState(geometry=geometry,
                          amps=np.array([1.0, 0.0], dtype=complex))
    knobs = DynamicKnobs(m=255, compression_time=2.0)
    out, report = dynamics.run_dynamic_protocol(state, knobs)
    assert all(isinstance(label, str) and type(norm) is float
               for label, norm in report.step_norms.items())
    tau = 2.0 * np.pi / geometry.omega0()
    total = 2.0 + 2 * knobs.barrier_ramp_time + knobs.compression_time
    drift_tol = PropagatorSettings(dt=1.0).norm_drift_tol * max(1.0, total * tau)
    checks.check_dynamic(state.amps, out.amps, report.step_norms, drift_tol,
                         0.98, 0.02)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"hotelsim.{name}")
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
