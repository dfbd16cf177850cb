"""No module in src/gfrma imports a name it never uses, and no module
defines a private top-level name that no module reads."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gfrma"


def unused_imports(source):
    """Names bound by import statements in source and never read.

    A name listed in __all__ counts as read: that is a re-export.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    src = ("import math\nimport numpy as np\nfrom os import path, sep\n"
           "__all__ = ['sep']\nprint(np.pi)\n")
    assert unused_imports(src) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(source):
    """{name: line} of the private names a module binds at its top level
    by def, class or assignment."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not name.endswith("__")}


def names_read(source):
    """Every name source loads, as a bare name, an attribute or an import
    from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources):
    """(file, line, name) of each private top-level name that no source in
    {file: source} reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted((path, line, name) for path, src in sources.items()
                  for name, line in private_names(src).items()
                  if name not in read)


def test_detects_unread_private_name():
    sources = {
        "a.py": ("_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
                 "def _f():\n    return _B\nclass _K:\n    _x = 0\n"),
        "b.py": "from a import _C\nimport a\nprint(a._K)\n",
    }
    assert unread_private_names(sources) == [("a.py", 1, "_A"),
                                             ("a.py", 4, "_f")]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
