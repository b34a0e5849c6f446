"""Static checks over the source of the package and its tests."""

import ast
import sys
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


def package_imports(source):
    """(module, name) of each import from the package in ``source``:
    ``from .m import n`` and ``from brightside.m import n`` give (m, n),
    ``from . import m`` and ``import brightside.m`` give (m, None)."""
    pairs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("brightside")):
            module = (node.module or "").removeprefix("brightside").lstrip(".")
            pairs += [(module, a.name) if module else (a.name, None) for a in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(a.name.removeprefix("brightside."), None) for a in node.names
                      if a.name.startswith("brightside.")]
    return pairs


def top_level_names(source):
    """Names that ``source`` defines by def, class or assignment at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for target in node.targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return names


def test_special_functions_stay_in_special():
    # the incomplete beta and the t log-CDF live in ``special``, which
    # needs neither geometry nor targets; targets takes nothing private
    # of geometry, and geometry defines no beta of its own
    snippet = ("from . import special\nfrom .geometry import _x, y\n"
               "from brightside.targets import z\nimport brightside.kernels\n"
               "import numpy as np\na, (_beta_b, c) = 1, (2, 3)\n"
               "def _incomplete_beta_d():\n    from .errors import e\nclass F:\n    g = 1\n")
    assert package_imports(snippet) == [
        ("special", None), ("geometry", "_x"), ("geometry", "y"), ("targets", "z"),
        ("kernels", None), ("errors", "e")]
    assert top_level_names(snippet) == ["a", "_beta_b", "c", "_incomplete_beta_d", "F"]
    source = {module: (ROOT / "src" / "brightside" / f"{module}.py").read_text()
              for module in ("special", "geometry", "targets")}
    assert [pair for pair in package_imports(source["special"])
            if pair[0] in ("geometry", "targets")] == []
    assert [name for module, name in package_imports(source["targets"])
            if module == "geometry" and (name or "").startswith("_")] == []
    assert [name for name in top_level_names(source["geometry"])
            if name.startswith(("_beta", "_incomplete_beta", "_BETA"))] == []


def absolute_imports(source):
    """Top-level module of each absolute import in ``source``, in every
    scope; relative imports stay in the package and are skipped."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module.split(".")[0])
    return modules


def test_src_imports_only_numpy_and_the_standard_library():
    # the static form of the numpy-only CI job, whose smoke run catches an
    # import only on the paths it takes, a lazy one in a function included
    assert absolute_imports(
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import special\nfrom .errors import e\nfrom brightside.geometry import f\n"
        "def g():\n    from scipy.special import gammaln\n    import mpmath\n") == [
        "__future__", "os", "numpy", "brightside", "scipy", "mpmath"]
    allowed = sys.stdlib_module_names | {"numpy", "brightside"}
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) >= 9
    foreign = {str(path.relative_to(ROOT)): modules for path in paths
               if (modules := [m for m in absolute_imports(path.read_text())
                               if m not in allowed])}
    assert foreign == {}
