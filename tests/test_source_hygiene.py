"""Every name a module imports is used in that module, so an import left
behind when its last user is deleted is seen.  The package ``__init__`` is
exempt: its imports are the public API.  Every private module-level name is
read somewhere in the package, so a helper stranded by its last caller is
seen too.  Names are read from the source.  Importing the package loads no
heavy standard-library module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantred"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[path.name] = found
    assert not unused, unused


def test_an_unused_import_is_reported():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\nlcm(2, 3)\n")
    assert _unused_imports(tree) == [(1, "gcd"), (2, "os")]


def _private_names(tree):
    """Module-level names with one leading underscore (dunders excluded)
    bound by a def, a class, an assignment or an import alias."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname for alias in node.names if alias.asname}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _unreferenced_private_names(trees):
    """(module, name) for each private module-level name that is read
    nowhere: not as a name in its own module, and not as an attribute or a
    name imported from it elsewhere."""
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared |= {alias.name for alias in node.names}
    unread = []
    for module, tree in trees.items():
        read = shared | {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(module, name) for name in _private_names(tree) if name not in read]
    return sorted(unread)


def test_every_private_name_is_used_in_the_package():
    # a helper whose last caller in the package is gone fails here, even if
    # a test still imports it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert trees
    assert not _unreferenced_private_names(trees)


def test_a_stranded_private_name_is_reported():
    trees = {name: ast.parse(source) for name, source in {
        "a.py": "from math import gcd as _gcd\n_CACHE = {}\ndef _used(): pass\n"
                "def _stranded(): _used()\nclass _Kept: pass\ndef __dunder__(): pass\n",
        "b.py": "from .a import _Kept\nimport a\na._CACHE.clear()\n"
                "def _stranded(): pass\n_stranded()\n",
    }.items()}
    # b's own _stranded, which b calls, does not keep a's alive
    assert _unreferenced_private_names(trees) == [("a.py", "_gcd"), ("a.py", "_stranded")]


def test_import_leaves_out_heavy_stdlib_modules():
    # dataclasses (which imports inspect) and argparse cost every fresh
    # process about 0.8 MB and 15 ms; only the command line needs argparse
    code = ("import sys; before = set(sys.modules); import quantred; "
            "print(sorted({'argparse', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_class_ring_does_not_import_the_cyclotomic_fields():
    # the class ring is rational: its scalars are ints over one denominator
    tree = ast.parse((PACKAGE / "cohomology.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {name for name in imported if name and name.split(".")[-1] == "exactnum"}
