"""The public API holds only what the package itself runs."""

import ast
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
