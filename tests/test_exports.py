"""Every exported name resolves, no module exports a name twice, each
name the package re-exports is exported by the module it comes from, no
module imports a name it never uses, and no private definition is left
that only tests read."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import subpix

MODULES = ["subpix"] + [f"subpix.{m.name}" for m in pkgutil.iter_modules(subpix.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_exported_by_their_module():
    tree = ast.parse(Path(subpix.__file__).read_text())
    source = {alias.asname or alias.name: node.module
              for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    assert set(subpix.__all__) - set(source) == {"__version__"}
    missing = [f"{source[n]}.{n}" for n in subpix.__all__ if n in source
               and n not in importlib.import_module(f"subpix.{source[n]}").__all__]
    assert missing == []


# an unused import must say why it stays: "# noqa: F401" and then a reason
_NOQA_WITH_REASON = re.compile(r"#\s*noqa:\s*F401\b\W*\w")


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    """Each module-level import is used in its module, listed in its
    ``__all__``, or marked ``# noqa: F401`` with a reason."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any(_NOQA_WITH_REASON.search(line)
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported and not marked:
                dead.append(f"{path.name}:{node.lineno}: {name}")
    assert dead == []


# a name that is hypot, or linalg's norm, however it is reached or imported
_DISTANCE_KERNEL = re.compile(r"(^|\.)(hypot|linalg\.norm)$")


def _distance_kernels(tree: ast.AST) -> list[str]:
    """Each use or import of ``hypot`` or ``linalg.norm`` in a parsed module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
    return [f"{line}: {name}" for line, name in names if _DISTANCE_KERNEL.search(name)]


@pytest.mark.parametrize("path", sorted(Path(subpix.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_point_distance_kernel(path):
    """Every landmark error goes through ``metrics.point_distances``: no
    module calls or imports ``hypot`` or ``linalg.norm``, a second distance
    kernel with its own last bits and its own cost."""
    assert _distance_kernels(ast.parse(path.read_text())) == []


def test_distance_kernel_scan_sees_each_spelling():
    spellings = ["np.hypot(a, b)", "math.hypot(a, b)", "hypot(a, b)", "f = np.hypot",
                 "np.linalg.norm(d, axis=1)", "numpy.linalg.norm(d)", "linalg.norm(d)",
                 "from numpy.linalg import norm", "from math import hypot as h"]
    assert [s for s in spellings if not _distance_kernels(ast.parse(s))] == []
    # prose and unrelated names pass
    assert _distance_kernels(ast.parse('"""np.hypot"""\n# linalg.norm\nnorm = hypotenuse')) == []


def _private_defs(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The module-level functions, classes and constants named ``_x`` (not dunders)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def _orphans(trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions that no code reads, outside the definition itself."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _private_defs(tree) if reads[name] == _reads(node)[name]]


def test_no_orphaned_private_definitions():
    """Every private module-level function, class or constant in the package
    is read by the package itself, not only by tests: a fold or a deletion
    leaves no helper behind."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(subpix.__file__).parent.glob("*.py"))}
    assert sum(len(_private_defs(t)) for t in trees.values()) > 0
    assert _orphans(trees) == []


def test_orphan_scan_sees_each_form():
    tree = ast.parse("def _a():\n    pass\n\ndef _b(n):\n    return _b(n - 1)\n\n"
                     "class _C:\n    pass\n\n_D = 1\n_E: int = 2\n__all__ = []\n"
                     "def _used():\n    return _E\n\nx = _used() + obj._unused_attr")
    assert _orphans({"m.py": tree}) == ["m.py: _a", "m.py: _b", "m.py: _C", "m.py: _D"]
