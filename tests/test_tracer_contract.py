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


WORKLOADS = TRACER.with_name("workloads.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_pass_runs_and_puts_everything_back():
    # the tracer also looks public functions up by name (the oracle window
    # reads automatic_degree_bound), so run one traced pass end to end
    tracing = _load("perfbench_tracer", TRACER)
    workloads = _load("perfbench_workloads", WORKLOADS)
    m = workloads.import_quantred()
    cases = workloads.build(m, "mixed-small", 1)
    tracer = tracing.Tracer(m)
    before = tracing.snapshot(tracer.namespaces)
    tracer.install()
    try:
        result = workloads.run_pass(m, cases, on_instance=tracer.set_instance)
    finally:
        tracer.uninstall()
    assert result.failed == 0, result.failures
    after = tracing.snapshot(tracer.namespaces)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    counts = tracer.counts()
    assert counts["oracle.window_len"] > 0
    assert counts["cohomology.class.mul.calls"] > 0
