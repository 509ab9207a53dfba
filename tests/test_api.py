"""Every public name is read in the package, through one import path.

``meanflock/__init__.py`` exports nothing: each name is imported from the
module whose top level defines it.
"""

import ast
from pathlib import Path

import meanflock

PACKAGE = Path(meanflock.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def bound(stmt):
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


DEFINED = {module: set().union(*map(bound, tree.body)) for module, tree in TREES.items()}


def names_read(tree):
    """Names a module loads, each outside the top-level statement that binds it."""
    read = set()
    for stmt in tree.body:
        read |= {
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        } - bound(stmt)
    return read


def test_every_public_name_is_read_in_the_package():
    read = set().union(*map(names_read, TREES.values()))
    public = {
        f"{module}.{name}"
        for module, names in DEFINED.items()
        for name in names - read
        if not name.startswith("_")
    }
    # bench/tracing.py patches this by name; it goes once the bench reads an
    # in-package profile (ROADMAP items 1 and 2)
    unread = sorted(public - {"transport.wasserstein"})
    assert not unread, f"defined but read nowhere in the package: {unread}"


def test_every_import_names_the_defining_module():
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                source = node.module or "__init__"  # from . import __version__
                found += [
                    f"{module}.py:{node.lineno} {alias.name} from {source}"
                    for alias in node.names
                    if alias.name not in DEFINED[source]
                ]
    assert not found, f"imported through a module that does not define it: {found}"


def test_package_imports_no_scipy():
    """Every solver runs on numpy alone: scipy is a test-only dependency."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in modules
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported in the package: {found}"
