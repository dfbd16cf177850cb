"""No module in src/gfrma imports a name it never uses, no module defines
a private top-level name that no module reads or a public one that only
tests read, and the simulator and DE run without loading scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gfrma"


def exported_names(source):
    """The names a module lists in __all__."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Names bound by import statements in source and never read.

    A name listed in __all__ counts as read: that is a re-export.
    """
    imported = {}
    used = exported_names(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
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


def top_level_names(source):
    """{name: line} of the names a module binds at its top level by def,
    class or assignment."""
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
    return bound


def private_names(source):
    """{name: line} of the private names a module binds at its top level."""
    return {name: line for name, line in top_level_names(source).items()
            if name.startswith("_") and not name.endswith("__")}


def names_read(source):
    """Every name source loads, as a bare name, an attribute, an import
    from another module or a string literal (perfbench names its configs
    and trace targets as strings)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
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


def names_only_tests_read(defining, readers):
    """(file, line, name) of each public top-level name of the modules in
    {file: source} defining that no source in readers reads; the names
    some module exports in __all__ count as read."""
    read = set().union(*map(names_read, readers.values()),
                       *map(exported_names, defining.values()))
    return sorted((path, line, name) for path, src in defining.items()
                  for name, line in top_level_names(src).items()
                  if not name.startswith("_") and name not in read)


def test_detects_test_only_name():
    defining = {
        "a.py": ("X = 1\nY = 2\n__all__ = ['Z']\ndef Z():\n    pass\n"
                 "def f():\n    return g()\ndef g():\n    pass\n"
                 "class K:\n    pass\ndef traced():\n    pass\n_p = 0\n"),
    }
    readers = dict(defining, **{
        "b.py": ("import a\nfrom a import Y\nprint(a.K)\n"
                 "TARGETS = [('a', 'traced')]\n"),
    })
    assert names_only_tests_read(defining, readers) == [("a.py", 1, "X"),
                                                  ("a.py", 6, "f")]


def test_no_test_only_public_names():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("src/gfrma", "demos", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))}
    assert names_only_tests_read(defining, readers) == []


def run_fresh(code):
    """stdout of code run in a fresh interpreter on this checkout's src;
    this one has loaded scipy and numpy.random for other tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_simulator_never_loads_scipy(tmp_path):
    # numpy is the one runtime dependency: with scipy blocked, so that
    # importing it raises ImportError, the sweep, then DE (a threshold
    # search and a 1-point attach_de), every command (sim, graph-dump, de
    # and sweep --with-de) and the DE demo run, and none of them loads
    # numpy.ma
    out = str(tmp_path / "out.csv")
    graph = str(tmp_path / "graph.txt")
    demo = str(ROOT / "demos" / "de_threshold.py")
    code = (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        "from gfrma import cli, de, harness\n"
        "spec = harness.ExperimentSpec(harness.DESK_CONFIG, (-5.0,),\n"
        "                              trials=1)\n"
        "result = harness.monte_carlo(spec)\n"
        "de.threshold_search(harness.DESK_CONFIG,\n"
        "    harness.expected_active_gains(harness.DESK_CONFIG))\n"
        "harness.attach_de(result, spec)\n"
        "assert cli.main(['sim', '--snr-db', '-5', '--trials', '1']) == 0\n"
        f"assert cli.main(['graph-dump', '--out', {graph!r}]) == 0\n"
        f"assert cli.main(['de', '--snr-db=-7,-6', '--out', {out!r}]) == 0\n"
        "assert cli.main(['sweep', '--snr-db', '-5', '--trials', '2',\n"
        f"                 '--with-de', '--out', {out!r}]) == 0\n"
        f"runpy.run_path({demo!r})\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if (m + '.').startswith('numpy.ma.')))\n"
    )
    assert run_fresh(code).splitlines()[-1].split() == []


def test_sweep_loads_no_module_late():
    # a module first loaded inside the timed sweep is timed with it
    code = (
        "import sys\n"
        "from gfrma import harness\n"
        "before = set(sys.modules)\n"
        "harness.monte_carlo(harness.ExperimentSpec(\n"
        "    harness.DESK_CONFIG, (-5.0,), trials=1))\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    assert run_fresh(code).split() == []


def test_sweep_builds_no_de_table():
    # the DE's spline tables, the check update's included, are built on
    # first use, so a sweep that imports gfrma.de builds none of them
    code = (
        "from gfrma import de, harness\n"
        "harness.monte_carlo(harness.ExperimentSpec(\n"
        "    harness.DESK_CONFIG, (-5.0,), trials=1))\n"
        "print(de._tables.cache_info().currsize,\n"
        "      de._check_table.cache_info().currsize)\n"
    )
    assert run_fresh(code).split() == ["0", "0"]
