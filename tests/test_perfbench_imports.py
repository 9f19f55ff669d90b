"""What the benchmark scripts under ``perfbench/`` take from the program.

A name they import that no longer resolves breaks a workload, and a layer
boundary the tracer cannot find silently reads 0; both fail here instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The group parameters are in closed form, so there is no quadrature left to
# trace there.  The fits and the surface price all their strips through one
# ``price_strips`` call, so they no longer look up ``price_strikes``; their
# strips are seen only as ``msheston.pricer.integrate_adaptive`` calls until
# the tracer wraps ``price_strips``.  Every other traced boundary must exist.
KNOWN_UNMEASURED = {
    "msheston.group_params.integrate_adaptive",
    "msheston.calibration.price_strikes",
    "msheston.vol_surface.price_strikes",
}


def _imports():
    """(script, module, name) for every import from msheston or tests.helpers."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] in ("msheston", "tests"):
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "msheston"
                ]
    return sorted(set(found), key=lambda t: (t[0], t[1], t[2] or ""))


def test_scripts_import_from_the_program():
    modules = {module for _, module, _ in _imports()}
    assert {"msheston", "msheston.cli", "tests.helpers"} <= modules


@pytest.mark.parametrize(
    "script, module, name",
    _imports(),
    ids=lambda x: x if isinstance(x, str) else "module",
)
def test_imported_name_resolves(script, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{script}: {module}.{name} is gone"


def test_tracer_finds_its_boundaries():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert set(layers.Tracer().unmeasured) <= KNOWN_UNMEASURED
