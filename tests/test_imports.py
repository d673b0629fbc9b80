"""Import hygiene of the package.

Every name a package module imports is used in that module: no linter ships
with the project, so this stdlib-``ast`` check catches imports left behind
when the code that used them is deleted.  ``__init__.py`` is skipped (its
imports are the public re-exports), as is ``__future__``.  And importing the
package leaves ``scipy.sparse`` unloaded: it adds start-up time and resident
memory that nothing in the package needs.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "softrod"
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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


def test_import_leaves_scipy_sparse_unloaded():
    # a fresh interpreter, so no other test's imports count
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import softrod; "
        "print('scipy.sparse' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
