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


def matmul_lines(source):
    """Line numbers of the ``@`` and ``@=`` products in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult))


def test_kernels_and_geometry_take_no_matmul():
    # at d = 100 one ``a @ b`` of two vectors costs about twice
    # ``a.dot(b)``, the same BLAS dot behind matmul's dispatch, and the
    # rows of a batch's matrix-vector product differ in the last bit from
    # batch size to batch size; rows go through ``np.vecdot``
    assert matmul_lines("w = x.dot(z) @ m  # a @ b\ny @= np.vecdot(x, z)\n") == [1, 2]
    for module in ("kernels", "geometry"):
        source = (ROOT / "src" / "brightside" / f"{module}.py").read_text()
        assert matmul_lines(source) == [], module
