"""The process caches of quantred are keyed by shape (weights, conductors,
denominator shapes, series lengths), never by component: verifying the
same documents a second time, parsed afresh, adds no entry to any of them.
And a run with every cache empty prints the same bytes as a warm one."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import quantred
from test_golden import GOLDEN, INSTANCES, render

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lru_caches() -> dict:
    """Every ``functools.lru_cache`` a quantred module defines, by name."""
    out = {}
    for info in pkgutil.iter_modules(quantred.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"quantred.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = obj
    return out


def test_the_caches_are_found():
    names = set(lru_caches())
    assert {"quantred.exactnum._galois_rows", "quantred.fixedpoint._wall_set",
            "quantred.laurent._site", "quantred.laurent._denominator_terms",
            "quantred.reduction.root_label"} <= names


def test_verifying_the_same_documents_again_grows_no_cache():
    # catalog entries, drawn family instances, the wide-field planes and
    # sphere and the high tensor powers, each verified as `verify --json`
    # does it: parsed from its document, validated, verified and printed
    workloads = _load_workloads()
    m = workloads.import_quantred()
    cases = [case for name in sorted(workloads.WORKLOADS) for case in workloads.build(m, name, 1)]

    def verify_all():
        for name, doc, _ in cases:
            workloads.verify_document(m, name, doc)

    verify_all()
    caches = lru_caches()
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    verify_all()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == sizes
    assert sizes["quantred.fixedpoint._wall_set"] > 0


# cp3-0223-k3-c4 and the hyperplanes have pole orders 2, 4 and 5 at t = -1;
# cp4-03331-k2-c1 and cp5-033331-k2-c1 have poles of order 3 and 4 at zeta_3
# beside a regular factor; the binary septic has walls of ten orders up to 14
@pytest.mark.parametrize("name", ["plane-0713-k1-c2", "plane-057-k1-c3", "sphere-pm30",
                                  "cp3-0223-k3-c4", "cp4-hyperplane-q2-k8",
                                  "cp5-hyperplane-q2-k8", "cp4-03331-k2-c1",
                                  "cp5-033331-k2-c1", "binary-septic-k12"])
@pytest.mark.parametrize("command", ["verify", "residues"])
def test_cold_caches_print_the_golden_bytes(name, command):
    for cache in lru_caches().values():
        cache.cache_clear()
    expected = (GOLDEN / f"{name}.{command}.json").read_bytes()
    assert render(command, [str(INSTANCES / f"{name}.json")]).encode("utf-8") == expected
