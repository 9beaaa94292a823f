"""Every name a module imports is used in that module, so an import left
behind when its last user is deleted is seen.  The package ``__init__`` is
exempt: its imports are the public API.  Names are read from the source.
Importing the package loads no heavy standard-library module."""

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
