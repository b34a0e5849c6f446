"""Static checks over the source of the package and its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names that ``source`` imports and never reads, in import order.

    ``from __future__`` imports are skipped; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    assert unused_imports(
        "from __future__ import annotations\nimport os.path\n"
        "from math import pi, tau as t\nos = pi\n") == ["os", "t"]
    # an __init__.py imports to re-export
    paths = [path for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) >= 10
    unused = {str(path.relative_to(ROOT)): names for path in paths
              if (names := unused_imports(path.read_text()))}
    assert unused == {}
