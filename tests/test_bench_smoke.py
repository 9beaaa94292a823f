"""One pass of every benchmark workload, seed 1, with the benchmark's own
correctness check: verdicts, agreement of the three counts, and the exact
values recorded in ``perfbench/reference.json``."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_the_workload_is_correct(name):
    m = workloads.import_quantred()
    cases = workloads.build(m, name, 1)
    result = workloads.run_pass(m, cases)
    assert result.attempted == len(cases) > 0
    assert result.failed == 0, result.failures
