"""The import graph follows the layers: a workload loads only what it runs.

Package ``__init__``s export their names lazily (``repro._lazy``), so a
simulation does not compile the analysis stack and the figure pipeline
does not compile the simulator.  The load checks run in a fresh
interpreter each, because this process has already imported most of the
package.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


def _loaded_after(*statements: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statements``."""
    code = "\n".join(
        [
            "import json, sys",
            *statements,
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'repro' or m.startswith('repro.'))))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _under(modules: list[str], prefixes: list[str]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_simulation_loads_no_analysis_stack():
    loaded = _loaded_after(
        "from repro.simulation.runner import RegionSimulation, SimulationConfig",
        "from repro.resilience.chaos import default_chaos_faults",
    )
    assert "repro.simulation.runner" in loaded
    layers = [
        "repro.core", "repro.datagen", "repro.analysis", "repro.frame",
        "repro.iofaults", "repro.verify", "repro.sweep", "repro.recovery",
    ]
    assert _under(loaded, layers) == []


def test_figure_pipeline_loads_no_simulator():
    loaded = _loaded_after(
        "from repro.datagen import GeneratorConfig, generate_dataset",
        "from repro.analysis.report import render_experiments_report",
        "from repro.datagen.validation import validate_dataset",
    )
    assert "repro.datagen.generator" in loaded
    layers = [
        "repro.simulation.runner", "repro.scheduler.pipeline",
        "repro.drs.balancer", "repro.resilience", "repro.faults",
    ]
    assert _under(loaded, layers) == []


def test_bare_import_loads_no_subpackage():
    assert _loaded_after("import repro") == ["repro", "repro._lazy"]


def test_top_level_names_resolve_in_a_fresh_interpreter():
    loaded = _loaded_after(
        "import repro",
        "assert repro.generate_dataset.__module__ == 'repro.datagen.generator'",
        "from repro.scheduler import FilterScheduler",
        "assert FilterScheduler.__module__ == 'repro.scheduler.pipeline'",
    )
    assert "repro.datagen.generator" in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    # Importing a submodule binds it on the package, so an export named
    # like its submodule must still resolve to the export.
    for info in pkgutil.iter_modules(module.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)
    listing = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, types.ModuleType), (package, name)
        assert name in listing, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")
