"""Package structure tests: modules use only each other's public names, and
the package imports none of scipy's slow-to-load subpackages."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_scipy_signal_or_stats():
    # scipy.signal takes ~0.5 s and ~40 MB of a cold start and pulls in
    # scipy.stats; the package uses scipy's fft, special, linalg and ndimage
    code = ("import sys, chordsim, chordsim.cli; print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.signal', 'scipy.stats')))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == []


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
