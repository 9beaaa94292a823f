from fractions import Fraction
from pathlib import Path

import pytest

from conftest import orbit_sum, wall_roots, zeta
from quantred import (
    Chart,
    Cyclotomic,
    FixedComponent,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    RingPresentation,
    WeylFactor,
    catalog,
    catalog_names,
    component_form,
    load_instance,
    residue_row,
    residue_table,
    tensor_power,
    verify_quantization,
)
from quantred.cli import residue_columns, root_label

INSTANCES = Path(__file__).resolve().with_name("golden") / "instances"
SPHERE_N60 = INSTANCES / "sphere-pm30.json"
PLANE_N84 = INSTANCES / "plane-037-k1-c2.json"
POINT = RingPresentation.point()


def point_component(name, moment, weights):
    return FixedComponent(
        name, POINT, moment, weights,
        [POINT.zero() for _ in weights], POINT.zero(), POINT.one(),
    )


def reduced(p):
    """The reduced count split into its parts, as the report gives it."""
    return verify_quantization(p).reduced


def invariant_count(p):
    return verify_quantization(p).lefschetz


# -- main term -------------------------------------------------------------------

def test_main_term_cp1():
    assert reduced(catalog("cp1-k", 2)).main == 1


def test_main_term_empty_positive_side():
    p = ProblemInstance(
        GroupKind.U1,
        [point_component("a", -1, [1]), point_component("b", -2, [-1])],
    )
    assert reduced(p).main == 0


def test_main_term_is_fractional_on_orbifold_reductions():
    # the smooth-case formula alone gives a non-integer on non-quasi-free data
    assert reduced(catalog("cp1-double")).main == Fraction(1, 2)
    assert reduced(catalog("cp1-triple")).main == Fraction(1, 3)
    assert reduced(catalog("cp2-k", 4)).main == Fraction(17, 12)
    assert reduced(catalog("cp2-line-double")).main == Fraction(3, 4)


def test_main_term_requires_validity():
    p = ProblemInstance(GroupKind.U1, [point_component("f", 0, [1])])
    with pytest.raises(InvalidInstanceError):
        reduced(p)


# -- corrections ------------------------------------------------------------------

def test_quasi_free_entries_have_no_corrections():
    for name in ("cp1-k", "cp1xcp1", "cp2-line", "so3-coadjoint", "so3-s2xs2"):
        assert reduced(catalog(name)).corrections == {}, name


def test_cp1_double_correction():
    corr = reduced(catalog("cp1-double")).corrections
    assert corr == {2: Fraction(-1, 2)}


def test_cp1_triple_galois_orbit():
    p = catalog("cp1-triple")
    residues = reduced(p).residues_by_root  # the order-3 roots zeta_3, zeta_3^2
    assert set(residues) == {(3, 1), (3, 2)}
    assert residues[3, 1] == zeta(3, 1) / 3 == zeta(12, 4) / 3
    # the two residues are Galois conjugates in Q(zeta_3) ...
    assert residues[3, 2] == residues[3, 1].galois(2)
    assert residues[3, 1].conductor == residues[3, 2].conductor == 3
    # ... individually irrational, with rational orbit sum, the trace
    assert isinstance(residues[3, 1], Cyclotomic) and not residues[3, 1].is_rational()
    assert residues[3, 1] + residues[3, 2] == residues[3, 1].trace() == Fraction(-1, 3)
    assert reduced(p).corrections == {3: Fraction(-1, 3)}


def test_corrections_ignore_negative_moment_components():
    p = catalog("cp1-double")
    weyl = WeylFactor(p.group)
    north = next(f for f in p.components if f.name == "north")
    # the correction equals the north residue alone: south sits at negative
    # moment and is filtered out even though -1 lies on its wall set
    correction = reduced(p).residues_by_root[2, 1]
    assert correction == residue_row(*component_form(north, weyl.poly))[1][2, 1]
    south = next(f for f in p.components if f.name == "south")
    assert residue_row(*component_form(south, weyl.poly))[1][2, 1] != 0


def test_cp2_default_corrections():
    assert reduced(catalog("cp2-k", 4)).corrections == {
        2: Fraction(1, 4), 3: Fraction(1, 3)
    }


def test_nilpotent_kawasaki_term():
    corr = reduced(catalog("cp2-line-double")).corrections
    assert corr == {2: Fraction(-3, 4)}


def test_orbit_sums_are_rational_everywhere():
    # a correction is the trace of a residue at zeta_d: a Fraction on all
    # catalog data, including tensor powers
    for name in catalog_names():
        p = catalog(name)
        for q in (p, tensor_power(p, 3)):
            assert all(type(v) is Fraction for v in reduced(q).corrections.values())


# -- the identity -----------------------------------------------------------------

def test_totals_match_invariant_count():
    for name in catalog_names():
        p = catalog(name)
        if name == "su2-excluded":
            continue
        red = reduced(p)
        assert red.total == red.main + sum(red.corrections.values())
        assert red.total == invariant_count(p), name


def test_quasi_free_two_term_identity():
    # with all weights +-1 the main term alone equals the invariant count
    for name in ("cp1-k", "cp1xcp1", "cp2-line", "so3-s2xs2"):
        p = catalog(name)
        assert reduced(p).main == invariant_count(p), name


def test_correction_is_necessary_on_cp1_double():
    p = catalog("cp1-double")
    lef = invariant_count(p)
    red = reduced(p)
    assert red.main != lef
    assert red.main + red.corrections[2] == lef


# -- tensor-power polynomiality ------------------------------------------------------

def exact_finite_differences(values, order):
    d = list(values)
    for _ in range(order):
        d = [d[i + 1] - d[i] for i in range(len(d) - 1)]
    return d


def test_tensor_polynomiality():
    for name, degree in (("cp1-k", 0), ("cp2-k", 1)):
        base = catalog(name)
        totals = [reduced(tensor_power(base, k)).total for k in range(1, 7)]
        diffs = exact_finite_differences(totals, degree + 1)
        assert all(d == 0 for d in diffs), (name, totals)


# -- verify_quantization ---------------------------------------------------------------

def test_pass_verdicts():
    for name in ("cp1-k", "cp1-double", "cp2-k", "cp1xcp1", "cp2-line",
                  "cp2-line-double", "so3-coadjoint", "so3-s2xs2"):
        report = verify_quantization(catalog(name))
        assert report.verdict == "PASS", name
        assert report.lefschetz == report.reduced.total == report.oracle
        assert report.hypotheses_ok


def test_not_asserted_with_differing_sides():
    report = verify_quantization(catalog("su2-excluded"))
    assert report.verdict == "NOT-ASSERTED"
    assert not report.hypotheses_ok
    assert report.lefschetz == 1
    assert report.reduced.total == 0
    assert report.oracle == 1


def test_not_asserted_small_so3():
    report = verify_quantization(catalog("so3-coadjoint", 1))
    assert report.verdict == "NOT-ASSERTED"


def test_report_contents():
    report = verify_quantization(catalog("cp1-double"))
    assert report.group == "U1"
    assert report.conductor == 4
    assert report.n_components == 2
    assert report.dimension == 2
    assert report.character == {-1: 1, 1: 1}
    assert set(report.timings) == {"residues_s", "oracle_s"}
    assert report.reduced.residues_by_root.keys() == {(2, 1)}


def test_verify_computes_each_residue_and_validates_once(monkeypatch):
    import quantred.fixedpoint as fp
    import quantred.laurent as laurent
    import quantred.lefschetz as lef
    import quantred.reduction as red

    form_calls, residue_calls, check_calls = [], [], []
    names = {}  # id of a numerator -> its component
    real_form, real_outer, real_root = (lef.component_form, laurent._constant_term,
                                        laurent._root_residue)
    real_checks = fp._checks

    def counted_form(f, multiplier=None):
        form = real_form(f, multiplier)
        form_calls.append(f.name)
        names[id(form[0])] = f.name
        return form

    # the two plan kernels, each call with the site its plan piece is for
    def counted_outer(numerator, recurrence):
        chart = Chart.at_zero() if recurrence.sign == 1 else Chart.at_infinity()
        residue_calls.append((names[id(numerator)], chart))
        return real_outer(numerator, recurrence)

    def counted_root(numerator, site):
        # a site is at zeta_d, t = 1 for d = 1
        residue_calls.append((names[id(numerator)], Chart.at_root(site.order, 1)))
        return real_root(numerator, site)

    def counted_checks(p):
        check_calls.append(p)
        return real_checks(p)

    monkeypatch.setattr(red, "component_form", counted_form)
    monkeypatch.setattr(laurent, "_constant_term", counted_outer)
    monkeypatch.setattr(laurent, "_root_residue", counted_root)
    monkeypatch.setattr(fp, "_checks", counted_checks)
    # built afresh, so no instance has been validated before
    instances = [catalog(name) for name in
                 ("cp1-triple", "cp2-k", "so3-s2xs2", "cp2-line-double")]
    instances.append(load_instance(PLANE_N84))
    for p in instances:
        form_calls.clear()
        residue_calls.clear()
        check_calls.clear()
        report = red.verify_quantization(p)
        assert report.verdict == "PASS", p.name
        # one rational function per component
        assert sorted(form_calls) == sorted(f.name for f in p.components), p.name
        expected = []
        for f in p.components:
            # zero, t = 1 and infinity; the roots off F's walls cost nothing
            expected += [(f.name, Chart.at_zero()), (f.name, Chart.at_one()),
                         (f.name, Chart.at_infinity())]
            # one residue per wall order d > 1, at zeta_d in Q(zeta_d)
            expected += [(f.name, Chart.at_root(d, 1))
                         for d, j in wall_roots(f.weights) if j == 1]
        assert sorted(residue_calls, key=repr) == sorted(expected, key=repr), p.name
        assert len(check_calls) == 1, p.name


def test_verify_computes_the_expansion_window_once(monkeypatch):
    import quantred.fixedpoint as fp

    calls = []
    real_window = fp._window_of

    def counted_window(p):
        calls.append(p.name)
        return real_window(p)

    monkeypatch.setattr(fp, "_window_of", counted_window)
    # built afresh, so no window has been computed before; a tensor power is
    # a new instance and computes its own
    base = catalog("cp2-line")
    for p in (base, tensor_power(base, 8), tensor_power(catalog("so3-s2xs2"), 4)):
        calls.clear()
        assert verify_quantization(p).verdict == "PASS", p.name
        assert calls == [p.name]
        # a raised degree bound reads the same window
        verify_quantization(p, 3 * fp.expansion_window(p))
        assert calls == [p.name]


def test_wall_cells_equal_direct_residues():
    # each wall cell at zeta_d^j, the Galois image in Q(zeta_d) of one
    # residue per order d, embedded into the instance's Q(zeta_N) equals the
    # two-stage long-division reference at zeta_N^(jN/d), which shares no
    # residue code with the engine; the orbit sums of the reference values are the
    # rational corrections of the report
    from test_laurent import reference_root_residue

    instances = [catalog(name) for name in catalog_names()]
    instances += [load_instance(SPHERE_N60), load_instance(PLANE_N84)]
    checked = 0
    for p in instances:
        n = p.conductor
        weyl = WeylFactor(p.group).poly
        orbit_sums = {}
        table = residue_table(p)
        labels, layout = residue_columns(table)
        for f, row, values in zip(p.components, table, layout):
            assert tuple(row.walls) == wall_roots(f.weights), (p.name, f.name)
            numerator, denominator = component_form(f, weyl)
            cells = dict(zip(labels, values))
            for (d, j), value in row.walls.items():
                if d == 1:
                    continue
                assert cells[root_label(d, j)] is value
                direct = reference_root_residue(numerator, denominator,
                                                Chart.at_root(n, j * n // d))
                if d > 2:
                    assert value.conductor == d, (p.name, f.name, d, j)
                    value = value.promoted(n)
                assert value == direct, (p.name, f.name, d, j)
                checked += 1
                if f.moment > 0:
                    orbit_sums[d] = orbit_sums.get(d, Fraction(0)) + direct
        assert reduced(p).corrections == orbit_sums, p.name
    assert checked == 96  # wall cells over these instances; none skipped


def test_every_orbit_sum_matches_the_rational_reference():
    # each row's sum over the Galois orbit of zeta_d, and the report's main
    # term and corrections, equal the Moebius route of conftest.orbit_sum,
    # which uses no cyclotomic arithmetic: a correction is the trace of the
    # cell at zeta_d alone, so this is what sees a wrong conjugate cell
    instances = [catalog(name) for name in catalog_names()]
    instances += [load_instance(path) for path in sorted(INSTANCES.glob("*.json"))]
    orbits = 0
    for p in instances:
        weyl = WeylFactor(p.group).poly
        expected = {}
        for f, row in zip(p.components, residue_table(p)):
            form = component_form(f, weyl)
            for d in sorted({d for d, _ in row.walls}):
                cells = [v for (e, _), v in row.walls.items() if e == d]
                value = orbit_sum(*form, d)
                assert sum(cells, Fraction(0)) == value, (p.name, f.name, d)
                orbits += 1
                if f.moment > 0:
                    expected[d] = expected.get(d, Fraction(0)) + value
        red = reduced(p)
        assert red.main == expected.pop(1, 0), p.name
        assert red.corrections == expected, p.name
    assert orbits > 200


def test_verify_raises_on_invalid():
    p = ProblemInstance(GroupKind.U1, [point_component("f", 0, [1])])
    with pytest.raises(InvalidInstanceError):
        verify_quantization(p)


# -- nonabelian instances with nonzero counts ---------------------------------------
# the catalog's SO(3)/SU(2) entries all have vanishing counts; these two
# pin the Weyl-factor arithmetic against classical representation theory

def test_so3_triple_product_of_spheres():
    # SO(3) rotating S2(3) x S2(2) x S2(2): the invariant count is the
    # multiplicity of the trivial representation in V3 (x) V2 (x) V2, which
    # equals the multiplicity of V3 inside V2 (x) V2 = V0+V1+V2+V3+V4: one
    from itertools import product as cartesian

    comps = []
    for signs in cartesian((1, -1), repeat=3):
        m = 3 * signs[0] + 2 * signs[1] + 2 * signs[2]
        name = "p" + "".join("pn"[s < 0] for s in signs)
        comps.append(point_component(name, m, list(signs)))
    p = ProblemInstance(GroupKind.SO3, comps, "so3-triple")
    report = verify_quantization(p)
    assert report.verdict == "PASS"
    assert report.lefschetz == report.reduced.total == report.oracle == 1
    assert report.reduced.corrections == {}  # quasi-free


def test_su2_projective_three_space():
    # SU(2) on the projectivization of the spin-3/2 representation (torus
    # weights -3,-1,1,3), with the fourth bundle power: the sections form
    # Sym^4 of spin-3/2 = V6+V4+V3+V2+V0, dimension 35, one trivial summand.
    # Corrections appear at four Galois orbits and sum to 1 - 1/12.
    ws = [-3, -1, 1, 3]
    comps = [
        point_component(f"e{j}", -4 * wj, [wi - wj for wi in ws if wi != wj])
        for j, wj in enumerate(ws)
    ]
    p = ProblemInstance(GroupKind.SU2, comps, "su2-cp3")
    report = verify_quantization(p)
    assert report.verdict == "PASS"
    assert report.lefschetz == report.reduced.total == report.oracle == 1
    assert sum(report.character.coefficients.values()) == 35
    assert report.reduced.main == Fraction(1, 12)
    assert report.reduced.corrections == {
        2: Fraction(1, 12), 3: Fraction(1, 6), 4: Fraction(1, 2), 6: Fraction(1, 6),
    }


# -- residue table ----------------------------------------------------------------------

def test_residue_rows_sum_to_zero():
    for name in catalog_names():
        rows = residue_table(catalog(name))
        for row in rows:
            assert row.total == 0, (name, row.component)


def test_residue_table_quasi_free_has_no_extra_columns():
    labels, _ = residue_columns(residue_table(catalog("cp1-k", 2)))
    assert labels == ["zero", "t=1", "infinity"]


def test_residue_table_shows_wall_columns():
    labels, _ = residue_columns(residue_table(catalog("cp1-double")))
    assert labels == ["zero", "t=1", "zeta_2^1", "infinity"]


def test_residue_table_cell_types():
    # cells at zero, t = 1 and infinity are rational; a cell at a root on the
    # component's own walls is a Cyclotomic over rational coefficients, and
    # one at a root off them is a rational zero (no pole there)
    instances = [catalog(name) for name in catalog_names()]
    instances += [load_instance(path) for path in sorted(INSTANCES.glob("*.json"))]
    for p in instances:
        roots = sorted(set().union(*(wall_roots(f.weights) for f in p.components)))
        sites = ["zero", *roots, "infinity"]
        rows = residue_table(p)
        labels, layout = residue_columns(rows)
        assert labels == ["zero", *(root_label(*r) for r in roots), "infinity"]
        for f, row, values in zip(p.components, rows, layout):
            walls = wall_roots(f.weights)
            assert type(row.total) is Fraction
            for site, label, value in zip(sites, labels, values, strict=True):
                where = (p.name, f.name, label)
                if site in walls and site[0] > 2:
                    assert type(value) is Cyclotomic and value.conductor == site[0], where
                    assert all(type(c) is Fraction for c in value.coeffs), where
                else:
                    # Q(zeta_1) = Q(zeta_2) = Q
                    assert type(value) is Fraction, where
                    assert value == 0 or site in walls or site in ("zero", "infinity"), where
