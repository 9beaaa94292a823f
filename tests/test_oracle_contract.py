"""The oracle is the independent third path: it may share the input data
model with the residue engine, and nothing else.  Its imports are checked
from the source, so an import added anywhere in the module is seen."""

import ast
import sys
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "src" / "quantred" / "oracle.py"


def test_oracle_imports_only_fixedpoint_and_the_stdlib():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    relative, absolute = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative.append((node.level, node.module))
            else:
                absolute.append(node.module)
    assert relative == [(1, "fixedpoint")]
    outside = [name for name in absolute
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
