"""Every name a module imports is used in that module, so an import left
behind when its last user is deleted is seen.  The package ``__init__`` is
exempt: its imports are the public API.  Every private module-level name is
read somewhere in the package, so a helper stranded by its last caller is
seen too.  No function mutates a module-level list, dict or set, so every
process cache is an ``lru_cache`` that the cache tests can see and empty.
Names are read from the source.  Importing the package loads no heavy
standard-library module."""

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


_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
             "setdefault", "add", "discard", "sort", "reverse", "difference_update",
             "intersection_update", "symmetric_difference_update"}
_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_containers(tree):
    """Module-level names bound to a list, dict or set: a display, a
    comprehension, or a call of list, dict, set or defaultdict."""
    names = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        if isinstance(value, _DISPLAYS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in {"list", "dict", "set", "defaultdict"}):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_module_containers(tree):
    """(line, name) for each place a function changes a module-level
    container it does not shadow: a mutating method call, a subscript store
    or delete (augmented ones included), or a ``global`` statement."""
    containers = _module_containers(tree)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        declared = {name for node in ast.walk(func) if isinstance(node, ast.Global)
                    for name in node.names}
        local = {node.arg for node in ast.walk(func.args) if isinstance(node, ast.arg)}
        local |= {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        shared = containers - (local - declared)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = [node.func.value] if node.func.attr in _MUTATORS else []
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                targets = [node.value]
            elif isinstance(node, ast.Global):
                targets = [ast.Name(name) for name in node.names]
            else:
                continue
            found |= {(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id in shared}
    return sorted(found)


def test_no_function_mutates_a_module_level_container():
    # a process cache kept in a module-level list or dict is invisible to
    # tests/test_caches.py and to the cold_caches fixture; keep it in an
    # lru_cache instead
    mutated = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = _mutated_module_containers(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            mutated[path.name] = found
    assert not mutated, mutated


def test_a_mutated_module_container_is_reported():
    tree = ast.parse(
        "_TABLE = [1]\n_SEEN: dict = {}\n_NAMES = set()\nLIMIT = 3\n"
        "def extend(n):\n    while len(_TABLE) <= n:\n        _TABLE.append(n)\n"
        "    return _TABLE[:n]\n"
        "def remember(k, v):\n    _SEEN[k] += v\n"
        "def forget():\n    global _NAMES\n    _NAMES = set()\n"
        "def shadowed(_TABLE):\n    _TABLE.append(1)\n    _SEEN = {}\n    _SEEN[1] = 2\n"
        "def reads():\n    return sorted(_NAMES), LIMIT + 1\n")
    assert _mutated_module_containers(tree) == [(7, "_TABLE"), (10, "_SEEN"), (12, "_NAMES")]


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
