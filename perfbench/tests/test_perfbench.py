"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The tests that start the benchmark command take about 20 seconds together.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def m():
    return workloads.import_quantred()


def _cases(m, names, seed=0):
    cases = workloads.build(m, "mixed-small", seed)
    return [c for c in cases if c[0] in names]


def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.manifest()


@pytest.mark.parametrize("workload,trace,section", [
    ("high-power", 0, "end_to_end"),
    ("wide-field", 1, "per_layer"),
])
def test_printed_metrics_match_benchmark_json(workload, trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_wrong_reference_value_counts_as_failed(m):
    cases = _cases(m, {"cp1-k(k=2)", "su2-excluded", "cp1-triple"})
    wrong = []
    for name, doc, expected in cases:
        if name == "cp1-k(k=2)":
            expected = dict(expected, reduced_main="2")
        if name == "cp1-triple":
            doc = dict(doc, components=[dict(c, moment=0) for c in doc["components"]])
        wrong.append((name, doc, expected))
    result = workloads.run_pass(m, wrong)
    assert result.attempted == 3
    assert result.failed == 2
    reasons = dict(result.failures)
    assert "reduced_main" in reasons["cp1-k(k=2)"]
    assert "InvalidInstanceError" in reasons["cp1-triple"]


def test_reference_values_reproduce(m):
    cases = _cases(m, {"cp1-k(k=2)", "su2-excluded", "cp2-line-double"})
    result = workloads.run_pass(m, cases)
    assert (result.attempted, result.failed) == (3, 0)


def test_traced_run_restores_every_quantred_attribute(m):
    tracer = tracing.Tracer(m)
    before = tracing.snapshot(tracer.namespaces)
    tracer.install()
    try:
        assert m["reduction"].validate is not before[("quantred.reduction", "validate")]
        workloads.run_pass(m, _cases(m, {"cp1-triple"}))
    finally:
        tracer.uninstall()
    after = tracing.snapshot(tracer.namespaces)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # validate is bound by ``from ... import`` in lefschetz and reduction;
    # the calls made there (verify_quantization, rr_invariant,
    # rr_reduced_main) are traced as well as the benchmark's own
    assert tracer.calls[("fixedpoint", "validate")] == 4


def test_traced_counts_repeat_exactly_and_spans_link(m):
    cases = _cases(m, {"cp1-triple", "cp2-line-double", "so3-s2xs2"})
    workloads.run_pass(m, cases)
    tracer = tracing.Tracer(m)
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            workloads.run_pass(m, cases, on_instance=tracer.set_instance)
        finally:
            tracer.uninstall()
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert counts[0]["lefschetz.residue_of_h.calls"] > counts[0]["lefschetz.residue_of_h.distinct"] > 0
    spans = tracer.spans
    assert {s[4] for s in spans} == {0, 1, 2}
    for name, start, end, parent, instance in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            assert spans[parent][4] == instance


def test_stream_is_made_from_the_seed(m):
    rng = lambda seed: workloads.random.Random(seed)
    first = [p.name for p in workloads.stream(m, rng(7))]
    assert first == [p.name for p in workloads.stream(m, rng(7))]
    assert first != [p.name for p in workloads.stream(m, rng(8))]
    cases = workloads.build(m, "mixed-small", 7)
    histogram = workloads.conductor_histogram(m, cases)
    assert max(histogram) <= workloads.STREAM_MAX_CONDUCTOR
    assert sum(histogram.values()) == len(cases)
