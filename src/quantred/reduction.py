"""The reduced-space count: the residue at t = 1 of the Weyl-weighted forms
over positive-moment components (the smooth main term), plus correction
terms at the other roots of unity lying on some component's wall set (the
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
from functools import lru_cache
from types import SimpleNamespace

from .exactnum import fraction_sum
from .fixedpoint import (
    MAX_EXPANSION_WINDOW,
    InvalidInstanceError,
    ProblemInstance,
    hypotheses_hold,
    require_valid,
    wall_set,
)
from .laurent import Chart, form_residue
from .lefschetz import WeylFactor, component_form, invariant_from_residues
from .oracle import character_polynomial, invariant_multiplicity


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


def reduced_rr(p: ProblemInstance) -> ReducedRR:
    require_valid(p)
    return _reduced_from_table(p, residue_table(p))


def _reduced_from_table(p: ProblemInstance, table) -> ReducedRR:
    """The reduced count read off a residue table of ``p``.

    The main term is the sum over positive-moment rows of the t = 1 cell:
    the evaluation of the Todd class against the reduced space, which is the
    full answer exactly when the action on the zero level is free.  The
    residue at a nontrivial root zeta_d**j sums the positive-moment rows
    whose own wall set contains it; roots on no such wall are left out (their
    residues vanish identically).  A row's wall set holds whole Galois
    orbits and the trace is linear, so the correction of order d is the
    trace of the summed residue at zeta_d.
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

class ResidueRow(namedtuple("ResidueRow", "component entries total walls")):
    """One component's residues: ``entries`` lists (pole label, exact
    scalar), ``total`` is their sum (zero by the global residue theorem) and
    ``walls`` maps (d, j) to the cell, over the component's wall_set."""

    __slots__ = ()

    def labels(self):
        return [label for label, _ in self.entries]


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

    @property
    def values_agree(self) -> bool:
        return (
            self.lefschetz is not None
            and self.reduced is not None
            and self.oracle is not None
            and self.lefschetz == self.reduced.total == self.oracle
        )


@lru_cache(maxsize=None)
def root_label(d: int, j: int) -> str:
    """The column label of zeta_d**j: ``t=1`` for d = 1, else ``zeta_d^j``;
    built once per root."""
    return "t=1" if d == 1 else f"zeta_{d}^{j}"


_AT_ZERO, _AT_INFINITY = Chart.at_zero(), Chart.at_infinity()


def residue_table(p: ProblemInstance) -> list[ResidueRow]:
    """Residues of Weyl * h_F at every pole site, per component, with the
    row sums (zero, by the residue theorem on the sphere).

    Columns: 0, the wall roots zeta_d**j sorted by (d, j) (t = 1 first),
    then infinity.  Each component's rational function (``component_form``)
    is built once and every cell is read off it.  On F's walls the residue
    r_d at zeta_d is computed once per order d, in Q(zeta_d) as
    ``form_residue`` returns it (rational for d <= 2); chi_F has rational
    data, so the cell at zeta_d**j is its Galois image ``r_d.galois(j)``,
    and the row's cells of order d add up to Tr(r_d).  A root off F's
    walls is no pole of F's form, so its cell is 0.
    """
    weyl = WeylFactor(p.group).poly
    walls = [wall_set(f) for f in p.components]
    roots = sorted(set().union(*walls))
    labels = [root_label(d, j) for d, j in roots]
    off_wall = Fraction(0)
    rows = []
    for f, f_walls in zip(p.components, walls):
        numerator, denominator = component_form(f, weyl)
        at_zero = form_residue(numerator, denominator, _AT_ZERO)
        at_infinity = form_residue(numerator, denominator, _AT_INFINITY)
        summands = [at_zero, at_infinity]  # rational cells, and each orbit by its trace
        cells = {}
        for d, j in f_walls:  # (d, 1) comes first in its orbit
            if j <= 1:
                # a wall root is a valid chart as it stands
                r = form_residue(numerator, denominator, Chart("root", d, j))
                summands.append(r.trace() if d > 2 else r)
                cells[d, j] = r
            else:
                cells[d, j] = r.galois(j)
        entries = [("zero", at_zero)]
        entries += [(label, cells.get(root, off_wall)) for label, root in zip(labels, roots)]
        entries.append(("infinity", at_infinity))
        rows.append(ResidueRow(f.name, entries, fraction_sum(summands), cells))
    return rows


def verify_quantization(p: ProblemInstance, degree_bound: int | None = None) -> Report:
    """Compute the invariant count, the reduced count with corrections and
    the oracle character count, and compare.

    The verdict is PASS when the stated hypotheses hold and all three agree,
    NOT-ASSERTED when a hypothesis fails (the values are still reported but
    equality is not claimed), FAIL otherwise.  ERROR-level findings raise
    InvalidInstanceError instead of producing a report.  ``degree_bound``
    raises (never lowers) the oracle's expansion bound; one above the limit
    is rejected before any residue is computed.
    """
    findings = require_valid(p)
    # the oracle's limit (validation keeps the automatic bound below it),
    # checked before any residue is computed
    if degree_bound is not None and int(degree_bound) > MAX_EXPANSION_WINDOW:
        raise InvalidInstanceError(
            f"the character expansion bound {int(degree_bound)} is above the "
            f"limit of {MAX_EXPANSION_WINDOW}"
        )
    ok = hypotheses_hold(findings)
    timings = {}

    t0 = time.perf_counter()
    table = residue_table(p)
    lefschetz_value = invariant_from_residues(
        [row.entries[-1][1] for row in table]  # the infinity cell
    )
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
