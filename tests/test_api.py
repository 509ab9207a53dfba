"""The public API holds only what the package itself runs."""

import ast
import importlib
from pathlib import Path

import meanflock

PACKAGE = Path(meanflock.__file__).parent


def names_read(path):
    """Names a module loads, each outside the top-level definition of that name."""
    read = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        read |= {
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
        }
    return read


def test_every_public_name_is_read_in_the_package():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    read = set().union(*map(names_read, modules))
    unread = sorted(set(meanflock.__all__) - read)
    assert not unread, f"in meanflock.__all__ but read nowhere in the package: {unread}"


def test_every_public_name_resolves_to_its_module():
    """The lazy namespace hands out each module's own object, once resolved."""
    for module, names in meanflock._EXPORTS.items():
        defining = importlib.import_module(f"meanflock.{module}")
        for name in names:
            assert getattr(meanflock, name) is getattr(defining, name), name
    assert set(meanflock.__all__) == {"__version__"} | set(meanflock._MODULE_OF)
    assert set(meanflock.__all__) <= set(dir(meanflock))


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
