"""The reduced-space count: the residue at t = 1 of the Weyl-weighted forms
over positive-moment components (the smooth main term), plus correction
terms at the other roots of unity lying on some component's walls (the
orbifold corrections), and the verification report comparing everything
against the invariant count and the brute-force oracle.

Every residue comes from one table (components x pole sites); the report
reads both the invariant count (its infinity column) and the reduced count
off a single such table.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .exactnum import fraction_sum
from .fixedpoint import ProblemInstance, hypotheses_hold, require_valid
from .laurent import residue_row
from .lefschetz import WeylFactor, component_form, invariant_from_residues
from .oracle import character_polynomial, invariant_multiplicity, oracle_window


class ReducedRR(namedtuple("ReducedRR", "main corrections residues_by_root total")):
    """Reduced-space count split into the smooth term and the corrections.

    ``main`` is the smooth term and ``total`` the whole count, both
    ``Fraction``s.  ``residues_by_root`` maps each wall root zeta_d**j
    (d > 1) of the positive-moment components, keyed (d, j), to the sum of
    their residues there, in Q(zeta_d) (rational for d = 2); ``corrections``
    maps d to the trace of the sum at zeta_d, the rational sum over its
    Galois orbit.
    """

    __slots__ = ()


def _reduced_from_table(p: ProblemInstance, table) -> ReducedRR:
    """The reduced count read off a residue table of ``p``.

    The main term is the sum over positive-moment rows of the t = 1 cell:
    the evaluation of the Todd class against the reduced space, which is the
    full answer exactly when the action on the zero level is free.  The
    residue at a nontrivial root zeta_d**j sums the positive-moment rows
    with a cell there, the rows on whose walls it lies; roots on no such
    wall are left out (their residues vanish identically).  A row's cells
    fill whole Galois orbits and the trace is linear, so the correction of
    order d is the trace of the summed residue at zeta_d.
    """
    mains = []
    residues: dict[tuple[int, int], object] = {}
    for f, row in zip(p.components, table):
        if f.moment <= 0:
            continue
        for root, value in row.walls.items():
            if root == (1, 0):
                mains.append(value)
            elif root not in residues:
                residues[root] = value
            elif value:
                residues[root] = residues[root] + value
    residues = dict(sorted(residues.items()))
    corrections = {d: v.trace() if d > 2 else v
                   for (d, j), v in residues.items() if j == 1}
    main = fraction_sum(mains)
    return ReducedRR(main, corrections, residues, fraction_sum([main, *corrections.values()]))


# ---------------------------------------------------------------------------
# the full verification report
# ---------------------------------------------------------------------------

class ResidueRow(namedtuple("ResidueRow", "component zero walls infinity total")):
    """One component's residues, as ``residue_row`` gives them: the cell at
    zero, ``walls`` mapping (d, j) to the cell at zeta_d**j over the
    component's wall roots, the cell at infinity, and ``total``, their sum
    (zero by the global residue theorem)."""

    __slots__ = ()


class Report(SimpleNamespace):
    """The outcome of one verification, built by keyword with these
    attributes."""

    instance_name: str
    group: str
    n_components: int
    conductor: int
    dimension: int
    findings: list
    hypotheses_ok: bool
    lefschetz: Fraction | None
    reduced: ReducedRR | None
    oracle: int | None
    character: object | None
    residue_table: list
    verdict: str
    timings: dict


def residue_table(p: ProblemInstance) -> list[ResidueRow]:
    """Residues of Weyl * h_F at every pole site, one row per component,
    with the row sums (zero, by the residue theorem on the sphere).  Each
    component's rational function (``component_form``) is built once and its
    row read off ``residue_row``: on F's walls the residue at zeta_d is
    computed once per order d and the other cells of its Galois orbit are
    its Galois images.  A root off F's walls is no pole of F's form, and
    its row has no cell there.
    """
    weyl = WeylFactor(p.group).poly
    return [ResidueRow(f.name, *residue_row(*component_form(f, weyl))) for f in p.components]


def verify_quantization(p: ProblemInstance, degree_bound: int | None = None) -> Report:
    """Compute the invariant count, the reduced count with corrections and
    the oracle character count, and compare.

    The verdict is PASS when the stated hypotheses hold and all three agree,
    NOT-ASSERTED when a hypothesis fails (the values are still reported but
    equality is not claimed), FAIL otherwise.  ERROR-level findings raise
    InvalidInstanceError instead of producing a report.  ``degree_bound``
    raises (never lowers) the oracle's expansion bound; one whose window or
    oracle work is above its limit is rejected before any residue is
    computed.
    """
    findings = require_valid(p)
    if degree_bound is not None:
        # the oracle's limits at a raised bound (validation checks them at
        # the automatic one), before any residue is computed
        oracle_window(p, degree_bound)
    ok = hypotheses_hold(findings)
    timings = {}

    t0 = time.perf_counter()
    table = residue_table(p)
    lefschetz_value = invariant_from_residues([row.infinity for row in table])
    reduced = _reduced_from_table(p, table)
    timings["residues_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    character = character_polynomial(p, degree_bound)
    oracle_value = invariant_multiplicity(character, p.group)
    timings["oracle_s"] = time.perf_counter() - t0

    agree = lefschetz_value == reduced.total == oracle_value
    if not ok:
        verdict = "NOT-ASSERTED"
    elif agree:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return Report(
        instance_name=p.name,
        group=p.group.value,
        n_components=len(p.components),
        conductor=p.conductor,
        dimension=p.dimension(),
        findings=findings,
        hypotheses_ok=ok,
        lefschetz=lefschetz_value,
        reduced=reduced,
        oracle=oracle_value,
        character=character,
        residue_table=table,
        verdict=verdict,
        timings=timings,
    )
