import doctest
import importlib
import pkgutil

import quantred


def test_module_doctests_pass():
    names = ["quantred"] + [
        f"quantred.{info.name}" for info in pkgutil.iter_modules(quantred.__path__)
        if info.name != "__main__"  # exits the interpreter on import
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 3
