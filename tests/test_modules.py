"""Package structure tests: modules use only each other's public names, and
the package imports no scipy module and runs without one."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chordsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Underscore names that a module's source takes from another chordsim
    module: ``from .x import _name``, or ``x._name`` on a module bound by
    ``from . import x``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "chordsim")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "chordsim"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_imports_finds_both_forms():
    source = ("from . import model\nfrom .channelizer import (notch_dc,\n    _notch_spectrum)\n"
              "x = model._SECTIONS\ny = model.__name__\n")
    assert private_imports(source) == ["channelizer._notch_spectrum", "model._SECTIONS"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_package_loads_no_scipy():
    # the package runs on numpy alone; scipy's modules cost a cold start
    # ~0.4 s and ~35 MB, and stay a test dependency, as the reference
    code = ("import sys, chordsim, chordsim.cli; print(' '.join(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')))")
    assert _run_python(code).split() == []


def test_the_fast_path_runs_without_scipy():
    # simulate, decode and localize one reply with every scipy import failing
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from chordsim.decoder import decode_pipeline
from chordsim.harness import SceneSpec, random_epc, simulate_capture, single_path_tag
from chordsim.locator import GridSpec, localize
from chordsim.model import Scene, default_array_geometry, default_carrier_plan
plan, geom = default_carrier_plan(), default_array_geometry()
tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(20)))
spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
banks, _, _ = simulate_capture(spec, plan, geom, seed=42, fast_path=True)
packet = decode_pipeline(banks, plan, geom)
est = localize(packet.channel, GridSpec(), geom, plan)
print(packet.crc_ok, *est.position_m)
"""
    crc_ok, *position = _run_python(code).split()
    assert crc_ok == "True"
    assert np.hypot(float(position[0]) - 0.4, float(position[1]) - 3.0) < 0.2


def _names_used(path: Path) -> set[str]:
    """Names a module's source reads: a bare name, an attribute or an
    imported name (the name a definition binds is not a use of it)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_outside_the_tests_is_used_or_a_kept_paper_formula():
    # a public name that only the tests call is test-only API: it belongs in
    # the tests; the paper's formulas are kept for the acceptance criteria
    exported = {alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    repo = PACKAGE.parents[1]
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [*(repo / "benchmarks").rglob("*.py"), *(repo / "demos").glob("*.py")]
    unused = exported - set().union(*map(_names_used, users))
    assert unused == {"distance_resolution", "fraunhofer_distance", "dynamic_range_required",
                      "optimize_crest_phases", "tof_spectrum"}
