"""quantred benchmark: verify one workload's instances exactly and report
every metric of BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measurement happens in a fresh,
single-threaded ``worker.py`` process started here, one after another:

--trace 0  PROBES probe processes, then one main process.  Every fresh
           process gives one sample of set-up time (import quantred, build
           the instances) and of the cold first pass; the main process then
           makes warm passes for S seconds.  Prints the end-to-end metrics,
           timed with the machine-speed scaling of speed.py.
--trace 1  one traced process; prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero, with no such line, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
PROBES = 3
TIME_LIMIT_S = 175  # for the whole run, every worker included


def run_worker(mode, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {mode} did not finish within {TIME_LIMIT_S} s") from None
    if done.returncode != 0:
        raise SystemExit(f"worker {mode} exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(args):
    samples = [run_worker("probe", args) for _ in range(PROBES)]
    main = run_worker("main", args)
    samples.append(main)
    latencies = main["latencies_ms"]
    print(f"{args.workload} seed {args.seed}: {main['instances']} instances; "
          f"conductors {main['conductors']}")
    print(f"{len(main['pass_s'])} warm passes, {len(latencies)} warm verifications, "
          f"{len(samples)} fresh processes for set-up and cold pass")
    print(f"wall clock before speed scaling: pass {statistics.median(main['pass_wall_s']):.4f} s, "
          f"cold pass {statistics.median(s['cold_pass_wall_s'] for s in samples):.4f} s, "
          f"set-up {statistics.median(s['setup_wall_s'] for s in samples):.4f} s")
    metrics = {
        "pass_s": statistics.median(main["pass_s"]),
        "cold_pass_s": statistics.median(s["cold_pass_s"] for s in samples),
        "verify_ms.p50": statistics.median(latencies),
        "verify_ms.p90": statistics.quantiles(latencies, n=10)[-1],
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return metrics, sum(s["attempted"] for s in samples), sum(s["failed"] for s in samples)


def per_layer(args):
    out = run_worker("trace", args)
    return out["metrics"], out["attempted"], out["failed"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + TIME_LIMIT_S
    print(f"{args.workload}: {spec.WORKLOADS[args.workload]}")
    metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args)
    names = [n for n, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    for name in names:
        print(f"  {name:40s} {metrics[name]:>14.6g} {spec.UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]} for n in names},
    }))


if __name__ == "__main__":
    main()
