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
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import Cyclotomic, rational_part, root_order
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


@dataclass(frozen=True)
class ReducedRR:
    """Reduced-space count split into the smooth term and the corrections.

    ``corrections`` maps the order d of a primitive root of unity to the
    (rational) sum of residues over the whole Galois orbit of primitive
    d-th roots; ``residues_by_exponent`` keeps the individual cyclotomic
    residues for diagnostics, keyed by the exponent k of zeta_N**k.
    """

    main: Fraction
    corrections: dict[int, Fraction]
    residues_by_exponent: dict[int, object]
    total: Fraction


def reduced_rr(p: ProblemInstance) -> ReducedRR:
    require_valid(p)
    return _reduced_from_table(p, residue_table(p))


def _reduced_from_table(p: ProblemInstance, table) -> ReducedRR:
    """The reduced count read off a residue table of ``p``.

    The main term is the sum over positive-moment rows of the t = 1 column:
    the evaluation of the Todd class against the reduced space, which is the
    full answer exactly when the action on the zero level is free.  The
    residue at a nontrivial root zeta_N**k sums the positive-moment rows
    whose own wall set contains k; roots on no such wall are left out (their
    residues vanish identically).  The residues are then grouped by Galois
    orbit: an irrational orbit sum raises NotRationalError (it would mean an
    incomplete orbit, i.e. a bug or corrupted data).
    """
    n = p.conductor
    sites = _sites([row.walls for row in table])
    main = Fraction(0)
    residues: dict[int, object] = {}
    for f, row in zip(p.components, table):
        if f.moment <= 0:
            continue
        for site, (_, value) in zip(sites, row.entries):
            if site == 0:
                main += rational_part(value)
            elif isinstance(site, int) and site in row.walls:
                _accumulate(residues, site, value)
    residues = dict(sorted(residues.items()))
    per_orbit: dict[int, object] = {}
    for k, value in residues.items():
        _accumulate(per_orbit, root_order(n, k), value)
    corrections = {d: rational_part(v) for d, v in sorted(per_orbit.items())}
    total = main + sum(corrections.values(), Fraction(0))
    return ReducedRR(main, corrections, residues, total)


def _accumulate(sums: dict, key, value) -> None:
    # sums[key] += value; a zero adds nothing once the key is there
    if key not in sums:
        sums[key] = value
    elif value:
        sums[key] = sums[key] + value


def rr_reduced_main(p: ProblemInstance) -> Fraction:
    """Sum over positive-moment components of the residue of Weyl * h_F at
    t = 1 (the smooth term of the reduced count)."""
    return reduced_rr(p).main


def kawasaki_corrections(p: ProblemInstance) -> dict[int, Fraction]:
    """Correction terms keyed by the order d > 1 of the primitive roots in
    each Galois orbit, valued in the exact rational orbit sum."""
    return reduced_rr(p).corrections


# ---------------------------------------------------------------------------
# the full verification report
# ---------------------------------------------------------------------------

@dataclass
class ResidueRow:
    component: str
    entries: list  # [(pole label, exact scalar)]
    total: object  # exact scalar; zero by the global residue theorem
    walls: tuple  # the component's wall_set

    def labels(self):
        return [label for label, _ in self.entries]


@dataclass
class Report:
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
    timings: dict = field(default_factory=dict)

    @property
    def values_agree(self) -> bool:
        return (
            self.lefschetz is not None
            and self.reduced is not None
            and self.oracle is not None
            and self.lefschetz == self.reduced.total == self.oracle
        )


def pole_labels(p: ProblemInstance) -> list:
    """Column order for residue tables: 0, the wall roots of unity
    (t = 1 first), then infinity."""
    n = p.conductor
    return _sites([wall_set(f, n) for f in p.components])


def _sites(walls) -> list:
    return ["zero"] + sorted(set().union(*walls)) + ["infinity"]


def residue_table(p: ProblemInstance) -> list[ResidueRow]:
    """Residues of Weyl * h_F at every pole site, per component, with the
    row sums (zero, by the residue theorem on the sphere).

    Each component's rational function (``component_form``) is built once
    and every cell is read off it.  At the roots of unity on F's walls the
    residue is computed once per Galois orbit: chi_F has rational data, so
    the residue at zeta_N**k = zeta_d**(k*d/N) (d the order of zeta_N**k)
    is the image under z -> zeta_N**k of the residue at zeta_d, computed in
    Q(zeta_d): the Galois image z -> z**(k*d/N) and the embedding into
    Q(zeta_N) in one pass.  A root off F's walls is no pole of F's form, so
    its cell is 0.  A row total adds the nonzero cells only.
    """
    weyl = WeylFactor.for_group(p.group).poly
    n = p.conductor
    walls = [wall_set(f, n) for f in p.components]
    sites = _sites(walls)
    rows = []
    for f, f_walls in zip(p.components, walls):
        numerator, denominator = component_form(f, weyl)
        at_primitive: dict[int, Cyclotomic] = {}  # d -> residue at zeta_d
        entries = []
        total = Fraction(0)
        for site in sites:
            if site == "zero":
                value = form_residue(numerator, denominator, Chart.at_zero())
            elif site == "infinity":
                value = form_residue(numerator, denominator, Chart.at_infinity())
            elif site == 0:
                value = form_residue(numerator, denominator, Chart.at_one())
            elif site in f_walls:
                d = root_order(n, site)
                if d not in at_primitive:
                    r = form_residue(numerator, denominator, Chart.at_root(d, 1))
                    if not isinstance(r, Cyclotomic):
                        r = Cyclotomic.from_rational(d, r)
                    at_primitive[d] = r
                value = at_primitive[d].substituted(n, site)
            else:
                value = Fraction(0)
            label = site if isinstance(site, str) else _root_label(n, site)
            entries.append((label, value))
            if value:
                total = total + value
        rows.append(ResidueRow(f.name, entries, total, f_walls))
    return rows


def _root_label(n: int, k: int) -> str:
    if k == 0:
        return "t=1"
    return f"zeta_{n}^{k}"


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
        [dict(row.entries)["infinity"] for row in table]
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
