"""The benchmark's tracer looks quantred's hot methods up by name; a method
deleted or renamed here would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_hot_method_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOT_METHODS
    for cls_name, (layer, _label, methods) in tracer.HOT_METHODS.items():
        cls = getattr(importlib.import_module(f"quantred.{layer}"), cls_name)
        missing = [m for m in methods if m not in cls.__dict__]
        assert not missing, (cls_name, missing)
