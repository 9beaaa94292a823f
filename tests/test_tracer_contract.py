"""The benchmark's tracer looks quantred's hot methods up by name; a method
deleted or renamed here would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
from collections import Counter
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


# Arithmetic that no verification runs.  Its textbook forms (the inverse in
# Q(zeta_N) as a product of Galois conjugates over the norm, series division
# without skip branches) are slower than the algorithms they replaced, which
# is acceptable only while this holds: a change that puts one of these back
# on the verify path fails here and has to be measured.
OFF_PATH = {
    ("exactnum", "Cyclotomic"): ("inverse", "__truediv__", "__rtruediv__", "__pow__",
                                 "promoted"),
    ("cohomology", "CohomologyClass"): ("inverse", "__truediv__", "__pow__",
                                        "todd_factor"),
}


def test_no_verification_runs_the_off_path_arithmetic(monkeypatch):
    from test_caches import lru_caches

    workloads = _load("perfbench_workloads", WORKLOADS)
    m = workloads.import_quantred()
    cases = [case for name in sorted(workloads.WORKLOADS) for case in workloads.build(m, name, 1)]
    series = m["laurent"].RingSeries
    targets = {(cls, name) for (layer, cls_name), names in OFF_PATH.items()
               for cls in [getattr(m[layer], cls_name)] for name in names}
    targets |= {(series, name) for name, obj in vars(series).items() if inspect.isfunction(obj)}
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, name in targets:
        monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}", vars(cls)[name]))
    for cache in lru_caches().values():
        cache.cache_clear()
    for _ in range(2):  # cold, then warm
        for name, doc, _ in cases:
            workloads.verify_document(m, name, doc)
    assert (series, "__truediv__") in targets
    assert not calls, dict(calls)
