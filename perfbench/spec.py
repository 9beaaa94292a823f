"""What the benchmark measures: its workloads, its metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 perfbench/spec.py`` rewrites that file from the definitions
below, and ``perfbench/tests`` checks that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

# Why each workload exists.  Every workload is a closed loop: one caller in
# one single-threaded process verifies an instance, waits for the verdict,
# then sends the next.
WORKLOADS = {
    "wide-field": (
        "coprime-weight planes (N=84,120,140,180) and a +-30 sphere (N=60): "
        "residues in Q(zeta_N) of degree 16-48 dominate; the oracle is under 1%"
    ),
    "high-power": (
        "tensor powers 32-64 of small catalog entries (N<=12): the oracle "
        "expansion and long infinity-chart windows dominate; little big-field work"
    ),
    "mixed-small": (
        "every catalog entry plus a seeded stream of family instances with "
        "N<=24: per-call overhead over many small fields, Weyl factors, NOT-ASSERTED"
    ),
}

# name, unit, better, bound (share of the parent's median a PR may lose)
END_TO_END = [
    ("pass_s", "s", "lower", 0.15),
    ("cold_pass_s", "s", "lower", 0.2),
    ("verify_ms.p50", "ms", "lower", 0.2),
    ("verify_ms.p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit; all come from the traced run and are lower-is-better except
# the share of scanned roots that lie on a wall.  ``<fn>.s`` is the
# inclusive time of the outermost calls of one function, ``<layer>.self_s``
# the time spent in the layer's own code with every traced call into other
# code taken out.  Counts are for one warm pass and repeat exactly for a
# given seed.
PER_LAYER = [
    ("exactnum.cyclotomic.init.calls", "count"),
    ("exactnum.cyclotomic.mul.calls", "count"),
    ("exactnum.cyclotomic.inverse.calls", "count"),
    ("exactnum.scalar_ops", "ops_computed"),
    ("exactnum.field_degree.max", "degree"),
    ("exactnum.self_s", "s"),
    ("cohomology.class.mul.calls", "count"),
    ("cohomology.class.exp.calls", "count"),
    ("cohomology.self_s", "s"),
    ("laurent.expand_lefschetz_factor.calls", "count"),
    ("laurent.expand_lefschetz_factor.s", "s"),
    ("laurent.window_len.sum", "coefficients"),
    ("laurent.self_s", "s"),
    ("lefschetz.residue_of_h.calls", "count"),
    ("lefschetz.residue_of_h.distinct", "count"),
    ("lefschetz.residue_reuse_ratio", "ratio"),
    ("lefschetz.residue_of_h.s", "s"),
    ("lefschetz.rr_invariant.s", "s"),
    ("lefschetz.self_s", "s"),
    ("reduction.reduced_rr.s", "s"),
    ("reduction.residue_table.s", "s"),
    ("reduction.roots_scanned", "count"),
    ("reduction.wall_hit_ratio", "ratio"),
    ("reduction.residues_per_orbit", "ratio"),
    ("reduction.self_s", "s"),
    ("oracle.character_polynomial.s", "s"),
    ("oracle.window_len", "exponents"),
    ("oracle.invariant_multiplicity.s", "s"),
    ("oracle.self_s", "s"),
    ("fixedpoint.validate.calls", "count"),
    ("fixedpoint.validate.s", "s"),
    ("fixedpoint.wall_set.calls", "count"),
    ("fixedpoint.wall_set.s", "s"),
    ("fixedpoint.instance_from_dict.s", "s"),
    ("fixedpoint.self_s", "s"),
    ("cli.report_to_json.s", "s"),
    ("catalog.build.s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n == "reduction.wall_hit_ratio" else "lower"}
            for n, u in PER_LAYER
        ],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
