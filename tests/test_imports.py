"""Import hygiene of the package.

Every name a package module imports is used in that module: no linter ships
with the project, so this stdlib-``ast`` check catches imports left behind
when the code that used them is deleted.  Likewise every module-level
function, class and constant is referenced somewhere in the package outside
its own definition (the ``__init__`` re-exports count), which catches
helpers and constants orphaned by a change.  ``__init__.py`` is skipped (its
imports are the public re-exports), as is ``__future__``.  The third-party
modules the package imports are exactly its declared runtime dependencies,
and neither importing the package nor running a live covariance refresh
loads ``scipy``: it would add start-up time and resident memory that nothing
in the package needs, and a check of the import alone would miss an import
deferred into the refresh.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "softrod"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def dead_definitions(sources):
    """``(file, line, name)`` of module-level definitions no other code names.

    A definition is a function, a class or an assignment to a plain name;
    dunder names such as ``__version__`` are read from outside and skipped.

    ``sources`` maps file names to source text.  A definition is live when
    its name appears as a name, an attribute or an imported name anywhere in
    ``sources`` outside the lines of the definition itself.
    """
    defs, refs = [], []
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((fname, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend(
                    (fname, node.lineno, node.end_lineno, target.id)
                    for target in targets
                    if isinstance(target, ast.Name) and not target.id.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((fname, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((fname, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((fname, node.lineno, alias.name) for alias in node.names)
    return sorted(
        (fname, first, name)
        for fname, first, last, name in defs
        if not any(
            ref == name and not (where == fname and first <= line <= last)
            for where, line, ref in refs
        )
    )


def third_party_imports(source):
    """Top-level names of the absolute, non-stdlib imports anywhere in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []


def test_check_flags_a_dead_definition():
    sources = {
        "a.py": "def used():\n    pass\n\ndef unused():\n    return unused()\n\n"
        "class Kept:\n    pass\n\nLIVE = 1\nORPHAN = (LIVE,\n    ORPHAN)\n",
        "b.py": "from .a import Kept\nused()\n",
    }
    assert dead_definitions(sources) == [("a.py", 4, "unused"), ("a.py", 11, "ORPHAN")]


def test_third_party_imports_match_declared_dependencies():
    # the declared distribution names double as their import names
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert imported == declared


def test_third_party_check_sees_deferred_and_skips_relative_imports():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "from . import rod\ndef f():\n    import scipy.linalg\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy"}


LIVE_REFRESH_PROBE = """
import sys
sys.path.insert(0, {src!r})
import softrod as sr

grid = sr.Grid.from_length(0.5, 0.125)
params = sr.RodParams(
    length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
)
plant = sr.make_initial_state(grid, "axial_spin")
est = sr.EstimatorState.initialize(plant, covariance_scale=1e-6)
after = sr.ekf_step(
    est,
    plant.p.copy(),
    sr.Wrench.zero(grid.n_nodes),
    params,
    grid,
    sr.NoiseModel.isotropic(grid, meas_var=0.02),
    sr.IntegratorConfig(dt=2e-4),
    riccati_stride=1,
)
assert grid.n_nodes == 5
assert after.gain.any() and (after.covariance != est.covariance).any(), "no live refresh ran"
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_live_refresh_leave_scipy_unloaded():
    # a fresh interpreter, so no other test's imports count
    probe = LIVE_REFRESH_PROBE.format(src=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
