"""One measuring process of the benchmark; ``run.py`` starts each in a fresh
interpreter and reads the JSON object it prints last.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  probe  import quantred, build the workload, verify every instance once:
         one sample each of set-up time and of the cold (first) pass;
  main   the same, then warm passes for SECONDS: pass times, per-instance
         latencies and peak memory.
         Probe and main times are scaled to the reference machine speed
         (see speed.py); the wall-clock values are reported beside them.
  trace  a traced build of the workload's instances, then warm passes for
         SECONDS alternating untraced and traced, giving the per-layer
         metrics; writes every span of the last traced pass under
         perfbench/out/.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5


def _setup(workload, seed):
    start = time.perf_counter()
    m = workloads.import_quantred()
    cases = workloads.build(m, workload, seed)
    return m, cases, time.perf_counter() - start


def _report_failures(result):
    for name, reason in result.failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)


def _cold(workload, seed):
    m, cases, setup_wall = _setup(workload, seed)
    setup_scale = speed.scale_now()
    with speed.Speedometer() as meter:
        cold = workloads.run_pass(m, cases)
    _report_failures(cold)
    return m, cases, {
        "setup_s": setup_wall * setup_scale, "setup_wall_s": setup_wall,
        "cold_pass_s": meter.scaled(cold.start, cold.end),
        "cold_pass_wall_s": cold.seconds,
        "attempted": cold.attempted, "failed": cold.failed,
    }


def probe(workload, seed, seconds):
    return _cold(workload, seed)[2]


def main(workload, seed, seconds):
    m, cases, out = _cold(workload, seed)
    results = []
    with speed.Speedometer() as meter:
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            results.append(workloads.run_pass(m, cases))
    passes, walls, latencies = [], [], []
    for result in results:
        _report_failures(result)
        walls.append(result.seconds)
        passes.append(meter.scaled(result.start, result.end))
        latencies += [1000 * meter.scaled(a, b) for a, b in result.intervals]
        out["attempted"] += result.attempted
        out["failed"] += result.failed
    out.update(
        pass_s=passes, pass_wall_s=walls, latencies_ms=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        instances=len(cases),
        conductors=workloads.conductor_histogram(m, cases),
    )
    return out


def trace(workload, seed, seconds):
    m, cases, _ = _setup(workload, seed)
    warm = workloads.run_pass(m, cases)  # fills the process-level caches
    _report_failures(warm)
    attempted, failed = warm.attempted, warm.failed
    tracer = tracing.Tracer(m)
    before = tracing.snapshot(tracer.namespaces)

    builds = []
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workloads.build(m, workload, seed)
            builds.append(time.perf_counter() - start)
    finally:
        tracer.uninstall()

    untraced, traced, times, counts = [], [], [], []
    timings = None
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        result = workloads.run_pass(m, cases)
        untraced.append(result.seconds)
        tracer.reset()
        tracer.install()
        try:
            result_t = workloads.run_pass(m, cases, on_instance=tracer.set_instance)
        finally:
            tracer.uninstall()
        traced.append(result_t.seconds)
        times.append(tracer.times())
        counts.append(tracer.counts())
        timings = result_t.timings
        for r in (result, result_t):
            _report_failures(r)
            attempted += r.attempted
            failed += r.failed

    if tracing.snapshot(tracer.namespaces) != before:
        raise RuntimeError("the traced run left a quantred attribute patched")
    if any(c != counts[0] for c in counts):
        print("warning: per-layer counts differ between warm traced passes", file=sys.stderr)

    metrics = dict(counts[-1])
    metrics.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    metrics["catalog.build.s"] = statistics.median(builds)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_pass_s"] / metrics["trace.untraced_pass_s"]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "instances": [name for name, _, _ in cases],
        "report_timings_s": dict(timings),  # auxiliary: Report.timings of the last traced pass
        "metrics": metrics,
        "spans": {"fields": ["name", "start", "end", "parent", "instance"], "rows": tracer.spans},
    }), encoding="utf-8")
    print(f"Report.timings summed over the last traced pass: "
          f"{ {k: round(v, 4) for k, v in timings.items()} }; spans in {path}", file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


MODES = {"probe": probe, "main": main, "trace": trace}

if __name__ == "__main__":
    mode, workload, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    print(json.dumps(MODES[mode](workload, seed, seconds)))
