"""Import hygiene of the package.

Every name a package module imports is used in that module: no linter ships
with the project, so this stdlib-``ast`` check catches imports left behind
when the code that used them is deleted.  Names are resolved by scope, so a
parameter or local that shadows an import inside a function does not count
as a use of it.  Every function parameter not named with a leading ``_`` is
read in its function.  Likewise every module-level
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_name(alias):
    """The name an import alias binds: ``import a.b`` binds ``a``."""
    return alias.asname or alias.name.split(".")[0]


def _params(func):
    args = func.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [arg for arg in every if arg is not None]


def _outer_parts(node):
    """Children of a scope node that the enclosing scope evaluates."""
    if isinstance(node, FUNCTIONS):
        parts = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        if isinstance(node, ast.Lambda):
            return parts
        annotations = [arg.annotation for arg in _params(node) if arg.annotation]
        returns = [node.returns] if node.returns else []
        return node.decorator_list + parts + annotations + returns
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return []


def _inner_parts(node):
    """Children of a scope node that its own scope evaluates."""
    if isinstance(node, ast.Lambda):
        return [node.body]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.body
    return list(ast.iter_child_nodes(node))  # a comprehension


def _local_names(scope):
    """Names a function, class or comprehension binds in its own scope."""
    names = {arg.arg for arg in _params(scope)} if isinstance(scope, FUNCTIONS) else set()
    declared = set()
    stack = list(_inner_parts(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(map(_bound_name, node.names))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def resolve_names(source):
    """Scope-resolve a module: ``(imports, reads, functions)``.

    ``imports`` lists ``(scope, name, line)`` for every imported name except
    ``__future__`` features, ``reads`` is the set of ``(scope, name)`` pairs
    that some loaded name resolves to, and ``functions`` lists every function
    and lambda node.  A name resolves to the innermost enclosing function that
    binds it (as a parameter, a local or a local import), else to the module;
    a class body is a scope only for its own statements.  Decorators,
    defaults and annotations belong to the enclosing scope.
    """
    tree = ast.parse(source)
    imports, reads, functions = [], set(), []

    def resolve(name, chain):
        for depth in range(len(chain) - 1, 0, -1):
            scope, names = chain[depth]
            if isinstance(scope, ast.ClassDef) and depth != len(chain) - 1:
                continue
            if name in names:
                return scope
        return chain[0][0]

    def visit(node, chain):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imports.extend((chain[-1][0], _bound_name(a), node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((resolve(node.id, chain), node.id))
        elif isinstance(node, SCOPES):
            if isinstance(node, FUNCTIONS):
                functions.append(node)
            for child in _outer_parts(node):
                visit(child, chain)
            inner = chain + [(node, _local_names(node))]
            for child in _inner_parts(node):
                visit(child, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, chain)

    visit(tree, [(tree, set())])
    return imports, reads, functions


def unused_imports(source):
    """``(line, name)`` of imported names that no loaded name resolves to."""
    imports, reads, _ = resolve_names(source)
    return sorted((line, name) for scope, name, line in imports if (scope, name) not in reads)


def unread_parameters(source):
    """``(line, name)`` of function parameters never read in their function.

    A parameter named with a leading ``_`` is unread on purpose.
    """
    _, reads, functions = resolve_names(source)
    return sorted(
        (arg.lineno, arg.arg)
        for func in functions
        for arg in _params(func)
        if not arg.arg.startswith("_") and (func, arg.arg) not in reads
    )


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


@pytest.mark.parametrize(
    "source, unused",
    [
        # a parameter of the imported name shadows it in the function body
        ("from dataclasses import field\ndef f(field):\n    return field\n", [(1, "field")]),
        # so does a local, and a function-local import is its own
        ("import os\ndef f():\n    os = 1\n    return os\n", [(1, "os")]),
        ("import os\ndef f():\n    import os\n    return os\n", [(1, "os")]),
        ("def f():\n    import os\n    return os\n", []),
        # decorators, defaults and annotations run in the enclosing scope
        ("from functools import cache\n@cache\ndef f(cache):\n    return cache\n", []),
        ("from math import pi\ndef f(pi=pi):\n    return pi\n", []),
        (
            "from __future__ import annotations\nfrom typing import Any\n"
            "def f(x: Any) -> Any:\n    Any = x\n    return Any\n",
            [],
        ),
        # a nested function reads its enclosing function's parameter, not the import
        ("from math import pi\ndef f(pi):\n    return lambda: pi\n", [(1, "pi")]),
    ],
    ids=["parameter", "local", "local-import", "only-local-import", "decorator", "default",
         "annotation", "closure"],
)
def test_import_check_sees_through_shadowing(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_check_flags_an_unread_parameter():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n    return a + sum(args) + (lambda: kw)()\n"
        "g = lambda x, y: x\n"
    )
    assert unread_parameters(source) == [(1, "b"), (1, "d"), (3, "y")]


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
    sr.NoiseModel(grid.n_nodes, 0.02),
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
