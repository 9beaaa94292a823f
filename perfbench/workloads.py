"""The benchmark's workloads: which instances each one verifies, how they are
built from a seed, and how one verification is run and checked.

Every verification runs the sequence ``quantred verify --json`` runs, in
memory: ``instance_from_dict`` -> ``validate`` -> ``verify_quantization`` ->
``report_to_json`` -> ``json.dumps``.  Instances are built once at set-up and
serialized with ``instance_to_dict``, so each verification pays for parsing
its document, as a command-line user does.

quantred functions are always looked up on their module at call time, never
bound here with ``from ... import``, so that a traced run sees these calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

LAYERS = (
    "exactnum", "cohomology", "laurent", "lefschetz", "reduction",
    "oracle", "fixedpoint", "catalog", "cli",
)

# mixed-small: how many seeded instances to draw from each stratum (family,
# conductor, number of positive-moment components).  A fixed count per
# stratum keeps the shape of the stream, and so the work in one pass, the
# same from seed to seed.
STREAM_PER_STRATUM = 6
STREAM_MAX_CONDUCTOR = 24


def import_quantred() -> dict:
    """Import quantred from this checkout's ``src`` and return its modules by
    layer name.  Raises ImportError if the sources are missing or another
    copy of the package would be used."""
    sys.path.insert(0, str(SRC))
    quantred = importlib.import_module("quantred")
    if Path(quantred.__file__).resolve().parent != SRC / "quantred":
        raise ImportError(f"quantred imported from {quantred.__file__}, not {SRC}")
    return {name: importlib.import_module(f"quantred.{name}") for name in LAYERS}


# -- instance families ---------------------------------------------------------

def _point(m, name, moment, weights):
    pres = m["cohomology"].RingPresentation.point()
    return m["fixedpoint"].FixedComponent(
        name, pres, moment, weights,
        [pres.zero() for _ in weights], pres.zero(), pres.one(),
    )


def _line(m, name, moment, weights, chern_multiples, omega_multiple):
    pres = m["cohomology"].RingPresentation.projective_line()
    x = pres.gen("x")
    return m["fixedpoint"].FixedComponent(
        name, pres, moment, weights,
        [x * n for n in chern_multiples], x * omega_multiple, pres.one() + x,
    )


def sphere(m, q, hi, lo):
    """Two fixed points with weights +-q: a sphere when q divides hi - lo."""
    fp = m["fixedpoint"]
    return fp.ProblemInstance(
        fp.GroupKind.U1,
        [_point(m, "north", hi, [q]), _point(m, "south", lo, [-q])],
        f"sphere(q={q},moments={hi},{lo})",
    )


def plane(m, ws, k, shift):
    """The projective plane under the circle with coordinate weights ws and
    the degree-k bundle shifted by ``shift``: three isolated fixed points."""
    fp = m["fixedpoint"]
    comps = [
        _point(m, f"e{j}", shift - k * ws[j], [ws[i] - ws[j] for i in range(3) if i != j])
        for j in range(3)
    ]
    return fp.ProblemInstance(fp.GroupKind.U1, comps, f"plane(w={ws},k={k},C={shift})")


def fixed_line(m, q, mu_p, area):
    """A plane with a pointwise-fixed line of normal weight q and the apex."""
    fp = m["fixedpoint"]
    return fp.ProblemInstance(
        fp.GroupKind.U1,
        [_line(m, "line", mu_p + q * area, [q], [1], area),
         _point(m, "apex", mu_p, [-q, -q])],
        f"fixed-line(q={q},mu_p={mu_p},a={area})",
    )


# The three compact families of the property tests, as parameter tuples with
# the conductor and the moments each would have.  Yielding tuples lets the
# stream be stratified without building thousands of instances.

def _family_universe():
    for q, sections, lo in itertools.product(range(1, 5), range(5), range(-6, 7)):
        hi = lo + q * sections
        if lo and hi:
            yield "sphere", (q, hi, lo), math.lcm(4, q), (hi, lo)
    for ws in itertools.combinations(range(-3, 5), 3):
        n = math.lcm(4, *(abs(a - b) for a, b in itertools.combinations(ws, 2)))
        for k, shift in itertools.product(range(1, 4), range(-5, 9)):
            moments = tuple(shift - k * w for w in ws)
            if all(moments):
                yield "plane", (ws, k, shift), n, moments
    for q, mu_p, area in itertools.product(range(1, 4), range(-4, 5), range(1, 5)):
        mu_l = mu_p + q * area
        if mu_p and mu_l:
            yield "fixed-line", (q, mu_p, area), math.lcm(4, q), (mu_l, mu_p)


_FAMILY_BUILDERS = {"sphere": sphere, "plane": plane, "fixed-line": fixed_line}


def stream(m, rng: random.Random) -> list:
    """Seeded draw of STREAM_PER_STRATUM instances from every stratum
    (family, conductor, positive-moment components) with conductor at most
    STREAM_MAX_CONDUCTOR.  Strata without a positive-moment component are
    left out: their reduced count is empty by construction."""
    strata: dict[tuple, list] = {}
    for family, params, n, moments in _family_universe():
        positive = sum(1 for mu in moments if mu > 0)
        if n <= STREAM_MAX_CONDUCTOR and positive:
            strata.setdefault((family, n, positive), []).append(params)
    out = []
    for key in sorted(strata):
        for params in rng.sample(strata[key], STREAM_PER_STRATUM):
            out.append(_FAMILY_BUILDERS[key[0]](m, *params))
    return out


# -- the workloads ------------------------------------------------------------
# Each workload is (fixed instances, seeded instances or None).  Fixed
# instances must reproduce the reference table; the seed only orders them.

def _wide_field(m):
    # five instances, not four: with an odd count the median latency is one
    # instance's time instead of falling in the gap between two of them
    planes = [plane(m, ws, 1, shift) for ws, shift in
              (((0, 3, 7), 2), ((0, 3, 8), 2), ((0, 5, 7), 3), ((0, 4, 9), 2))]
    return planes + [sphere(m, 30, 30, -30)]


def _high_power(m):
    cat, fp = m["catalog"], m["fixedpoint"]
    out = [cat.catalog("cp2-k", 64)]
    out += [fp.tensor_power(cat.catalog(name), 64)
            for name in ("cp2-line", "cp2-line-double", "cp1xcp1")]
    out.append(fp.tensor_power(cat.catalog("so3-s2xs2"), 32))
    return out


def _catalog_entries(m):
    cat = m["catalog"]
    return [cat.catalog(name) for name in cat.catalog_names()]


WORKLOADS = {
    "wide-field": (_wide_field, None),
    "high-power": (_high_power, None),
    "mixed-small": (_catalog_entries, stream),
}


def build(m, workload: str, seed: int) -> list:
    """The workload's cases for this seed, in the seed's order: a list of
    (instance name, JSON document, expected reference row or None)."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    fixed, seeded = WORKLOADS[workload]
    instances = [(p, reference[p.name]) for p in fixed(m)]
    if seeded is not None:
        instances += [(p, None) for p in seeded(m, rng)]
    rng.shuffle(instances)
    to_dict = m["fixedpoint"].instance_to_dict
    return [(p.name, to_dict(p), expected) for p, expected in instances]


def conductor_histogram(m, cases) -> dict:
    """Instances per conductor, so the shape of a workload is on record."""
    parse = m["fixedpoint"].instance_from_dict
    return dict(sorted(Counter(parse(doc, name).conductor for name, doc, _ in cases).items()))


# -- one verification -----------------------------------------------------------

def verify_document(m, name: str, doc: dict):
    """What ``quantred verify --json`` does with one instance document:
    returns the report and the JSON text it prints."""
    fp = m["fixedpoint"]
    p = fp.instance_from_dict(doc, name)
    findings = fp.validate(p)
    if fp.has_errors(findings):
        raise fp.InvalidInstanceError("; ".join(str(f) for f in findings))
    report = m["reduction"].verify_quantization(p)
    return report, json.dumps(m["cli"].report_to_json(report), indent=2)


def values(text: str) -> dict:
    """The exact values a verification printed, as the reference table
    stores them."""
    out = json.loads(text)
    return {
        "invariant": out["lefschetz"],
        "reduced_main": out["reduction"]["main"],
        "reduced_total": out["reduction"]["total"],
        "oracle": out["oracle"],
        "verdict": out["verdict"],
    }


def check(text: str, expected: dict | None) -> str | None:
    """None if the printed result is right, else why it is wrong.

    The invariant count and the oracle count the same thing and must agree
    on every instance; the reduced total must agree with both unless the
    verdict is NOT-ASSERTED.  Seeded instances (``expected`` None) must
    PASS; the others must reproduce their reference row exactly."""
    try:
        got = values(text)
    except (ValueError, KeyError) as exc:
        return f"unreadable JSON report: {exc!r}"
    want_verdict = "PASS" if expected is None else expected["verdict"]
    if got["verdict"] != want_verdict:
        return f"verdict {got['verdict']}, expected {want_verdict}"
    if got["invariant"] != got["oracle"]:
        return f"invariant count {got['invariant']} != oracle {got['oracle']}"
    if want_verdict == "PASS" and got["reduced_total"] != got["invariant"]:
        return f"reduced total {got['reduced_total']} != invariant {got['invariant']}"
    if expected is not None:
        wrong = [k for k in expected if got[k] != expected[k]]
        if wrong:
            return "differs from the reference in " + ", ".join(
                f"{k} ({got[k]} != {expected[k]})" for k in wrong)
    return None


class PassResult:
    """Outcome of verifying every case once."""

    def __init__(self):
        self.start = self.end = 0.0  # perf_counter readings
        self.intervals = []  # (start, end) of each verification, failed ones too; check excluded
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (instance name, reason)
        self.timings = Counter()  # Report.timings summed over the pass

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_pass(m, cases, on_instance=None) -> PassResult:
    """Verify and check every case once.  A verification that raises or
    prints a wrong result is counted as failed; the pass goes on."""
    result = PassResult()
    result.start = time.perf_counter()
    for index, (name, doc, expected) in enumerate(cases):
        if on_instance is not None:
            on_instance(index)
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            report, text = verify_document(m, name, doc)
        except Exception as exc:  # a failed verification is a result, not a crash
            report, problem = None, f"raised {type(exc).__name__}: {exc}"
        result.intervals.append((t0, time.perf_counter()))
        if report is not None:
            result.timings.update(report.timings)
            problem = check(text, expected)
        if problem is not None:
            result.failed += 1
            result.failures.append((name, problem))
    result.end = time.perf_counter()
    return result
