import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quantred import (
    FixedComponent,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    RingPresentation,
    SchemaError,
    catalog,
    catalog_names,
    component_form,
    has_errors,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    residue_row,
    tensor_power,
    validate,
)
from quantred.catalog import UnknownCatalogError
from quantred.exactnum import phi_degree
from quantred.fixedpoint import (
    MAX_EXPANSION_WINDOW, MAX_FIELD_DEGREE, MAX_INTEGRAL_TABLE, MAX_ORACLE_WORK,
    MAX_POLE_ORDER, _parsed_class, _parsed_ring, expansion_window, oracle_work,
    require_valid,
)

POINT = RingPresentation.point()


def point_component(name, moment, weights):
    return FixedComponent(
        name, POINT, moment, weights,
        [POINT.zero() for _ in weights], POINT.zero(), POINT.one(),
    )


def row_walls(f):
    """The roots (d, j) of zeta_d**j at which the engine's residue row of
    F has a cell, in the row's order."""
    return tuple(residue_row(*component_form(f))[1])


# -- validation -----------------------------------------------------------

def test_quasi_free_info_no_errors():
    findings = validate(catalog("cp1-k", 2))
    assert not has_errors(findings)
    assert any(f.code == "quasi-free" and f.level == "INFO" for f in findings)


def test_moment_zero_is_error():
    p = ProblemInstance(GroupKind.U1, [point_component("f", 0, [1])])
    findings = validate(p)
    assert any(f.code == "moment-zero" and f.level == "ERROR" for f in findings)


def test_zero_weight_is_error():
    p = ProblemInstance(GroupKind.U1, [point_component("f", 1, [0])])
    assert any(f.code == "weight-zero" for f in validate(p))


def test_so3_small_moments_warn():
    findings = validate(catalog("so3-coadjoint", 1))
    assert any(f.code == "so3-small-moments" and f.level == "WARN" for f in findings)
    clean = validate(catalog("so3-coadjoint", 2))
    assert not any(f.level == "WARN" for f in clean)


def test_su2_warnings():
    findings = validate(catalog("su2-excluded"))
    codes = {f.code for f in findings if f.level == "WARN"}
    assert "su2-small-moments" in codes
    assert "su2-excluded-component" in codes


def test_weyl_asymmetry_is_error():
    p = ProblemInstance(
        GroupKind.SO3,
        [point_component("n", 2, [1]), point_component("s", -1, [-1])],
    )
    assert any(f.code == "weyl-asymmetry" for f in validate(p))


def test_validate_clean_on_catalog_defaults():
    for name in catalog_names():
        p = catalog(name)
        assert not has_errors(validate(p)), name


def _counted_checks(monkeypatch):
    # the instances whose checks ran, in order
    import quantred.fixedpoint as fp

    runs, real = [], fp._checks

    def counted(p):
        runs.append(p)
        return real(p)

    monkeypatch.setattr(fp, "_checks", counted)
    return runs


def test_validate_runs_the_checks_once_per_instance(monkeypatch):
    runs = _counted_checks(monkeypatch)
    p = catalog("so3-coadjoint", 1)
    first, second = validate(p), validate(p)
    assert runs == [p]
    assert first == second and first is not second
    assert any(f.code == "so3-small-moments" for f in first)


def test_a_changed_findings_list_changes_no_later_result():
    p = catalog("su2-excluded")
    first = validate(p)
    expected = list(first)
    first.append(first[0])
    first[0] = None
    assert validate(p) == expected
    assert require_valid(p) == expected


def test_a_tensor_power_is_validated_on_its_own(monkeypatch):
    runs = _counted_checks(monkeypatch)
    p = catalog("so3-coadjoint", 1)
    assert any(f.code == "so3-small-moments" for f in validate(p))
    power = tensor_power(p, 2)
    assert not any(f.code == "so3-small-moments" for f in validate(power))
    assert runs == [p, power]


def test_an_invalid_instance_raises_on_every_call(monkeypatch):
    runs = _counted_checks(monkeypatch)
    p = ProblemInstance(GroupKind.U1, [point_component("f", 0, [1])])
    for _ in range(3):
        with pytest.raises(InvalidInstanceError) as caught:
            require_valid(p)
        assert [f.code for f in caught.value.findings] == ["moment-zero", "quasi-free"]
    assert runs == [p]


# -- wall sets ------------------------------------------------------------
# walls are returned as exponents k of zeta_N**k; exponent 0 is the point t=1

def test_field_degree_limit():
    # the largest field a weight beta brings is Q(zeta_|beta|): validation
    # rejects a degree phi(|beta|) above the bound, naming it, before any
    # cyclotomic work
    def sphere(q):
        return ProblemInstance(GroupKind.U1, [
            point_component("north", q, [q]), point_component("south", -q, [-q]),
        ])

    for q in (1031, 10**6, 10**40 + 1):
        errors = [f for f in validate(sphere(q)) if f.code == "field-degree"]
        assert [f.level for f in errors] == ["ERROR"], q
        assert f"Q(zeta_{q})" in errors[0].message
        assert str(MAX_FIELD_DEGREE) in errors[0].message
    # |beta| = 2040 sits exactly at the limit; 2310 (N = 4620) is below it
    assert phi_degree(2040) == MAX_FIELD_DEGREE and phi_degree(2310) == 480
    for q in (2040, 2310):
        assert not has_errors(validate(sphere(q))), q


def test_field_degree_is_bounded_per_weight():
    # weights 23 and 29 need Q(zeta_23) and Q(zeta_29), never Q(zeta_2668)
    p = ProblemInstance(GroupKind.U1, [
        point_component("a", 1, [23, 29]), point_component("b", -1, [-23, -29]),
    ])
    assert p.conductor == 2668 and phi_degree(2668) > MAX_FIELD_DEGREE
    assert not has_errors(validate(p))
    # the largest offending weight is named
    p = ProblemInstance(GroupKind.U1, [
        point_component("a", 1, [1031, 1033]), point_component("b", -1, [-1031, -1033]),
    ])
    errors = [f.message for f in validate(p) if f.code == "field-degree"]
    assert len(errors) == 1 and "Q(zeta_1033)" in errors[0]


def dense_points(m, weights, classes=None):
    """Two points over Q[x]/x^m with omega = x, Todd class 1 + x and the
    normal Chern classes ``classes`` (x on every direction by default)."""
    ring = RingPresentation(("x",), (m,), 2 * (m - 1), {(m - 1,): 1})
    x = ring.gen("x")
    classes = [x for _ in weights] if classes is None else classes
    return ProblemInstance(GroupKind.U1, [
        FixedComponent("a", ring, 1, weights, classes, x, ring.one() + x),
        FixedComponent("b", ring, -1, [-b for b in weights], classes, x, ring.one() + x),
    ])


def test_integral_table_limit():
    # the table has C(N + d, d) possibly nonzero entries: N = m - 1 over
    # Q[x]/x^m, d distinct weights on a nonzero class
    errors = [f for f in validate(dense_points(64, [1, 2])) if f.level == "ERROR"]
    assert [(f.code, f.component) for f in errors] == [
        ("integral-table", "a"), ("integral-table", "b")]
    assert "2080 entries" in errors[0].message
    assert str(MAX_INTEGRAL_TABLE) in errors[0].message
    # C(45, 2) = 990 is below the limit, C(46, 2) = 1035 above it
    assert not has_errors(validate(dense_points(44, [1, 2])))
    assert has_errors(validate(dense_points(45, [1, 2])))
    # directions of one weight share an index, and a zero class adds none;
    # three dense directions over Q[x]/x^64 are too much oracle work
    assert [f.code for f in validate(dense_points(64, [3, 3, 3])) if f.level == "ERROR"] == [
        "oracle-work"]
    ring = dense_points(64, [1]).components[0].ring
    assert not has_errors(validate(dense_points(64, [1, 2], [ring.gen("x"), ring.zero()])))


def test_no_shipped_instance_trips_the_integral_table_limit():
    from test_caches import _load_workloads

    workloads = _load_workloads()
    m = workloads.import_quantred()
    instances = [catalog(name) for name in catalog_names()]
    golden = Path(__file__).resolve().parent / "golden" / "instances"
    instances += [load_instance(path) for path in sorted(golden.glob("*.json"))]
    instances += [instance_from_dict(doc, name) for workload in sorted(workloads.WORKLOADS)
                  for name, doc, _ in workloads.build(m, workload, 1)]
    for p in instances:
        codes = [f.code for f in validate(p)]
        assert not {"integral-table", "pole-order", "oracle-work"} & set(codes), p.name


def test_pole_order_limit():
    # r directions and d weights on nonzero classes over nilpotency bound N
    # give a pole of order at most r + d N at t = 1
    def points(n, weight=1):
        return ProblemInstance(GroupKind.U1, [
            point_component("p", 1, [weight] * n), point_component("q", -1, [-weight] * n),
        ])

    findings = validate(points(300))
    errors = [f for f in findings if f.level == "ERROR"]
    assert [(f.code, f.component) for f in errors] == [("pole-order", "p"), ("pole-order", "q")]
    assert "order up to 300" in errors[0].message
    assert str(MAX_POLE_ORDER) in errors[0].message
    assert not has_errors(validate(points(MAX_POLE_ORDER, 12)))
    assert has_errors(validate(points(MAX_POLE_ORDER + 1, 12)))
    # over Q[x]/x^64 (N = 63) every direction of weight 1 carries x, which
    # is also too much oracle work
    r = MAX_POLE_ORDER - 63
    assert [f.code for f in validate(dense_points(64, [1] * r)) if f.level == "ERROR"] == [
        "oracle-work"]
    assert [f.code for f in validate(dense_points(64, [1] * (r + 1))) if f.level == "ERROR"] == [
        "pole-order", "pole-order", "oracle-work"]
    ring = dense_points(64, [1]).components[0].ring
    assert not has_errors(validate(dense_points(64, [1] * (r + 1), [ring.zero()] * (r + 1))))


def projective_pair(n):
    """CP^n under the weights (0^(a+1), 1^(b+1)), a + b + 1 = n, with O(2) and
    fibre shift 1: the fixed CP^a and CP^b, over Q[x]/x^(a+1) and
    Q[x]/x^(b+1), with normal weights 1 and -1 on the class x."""
    def fixed(name, dim, moment, weights):
        ring = RingPresentation(("x",), (dim + 1,), 2 * dim, {(dim,): 1})
        x = ring.gen("x")
        todd = x.todd_factor() ** (dim + 1)
        return FixedComponent(name, ring, moment, weights, [x] * len(weights), 2 * x, todd)

    a = (n - 1) // 2
    b = n - 1 - a
    return ProblemInstance(GroupKind.U1, [fixed("F0", a, 1, [1] * (b + 1)),
                                          fixed("F1", b, -1, [-1] * (a + 1))], f"cp{n}-pair")


def test_oracle_work_limit():
    # r directions on nonzero classes, times the monomial pairs x^i x^j with
    # i > 0 that survive, times the column length 2A + 4 + |moment|: at
    # n = 48, A = 24 * 25 + 2 and (25 * 276 + 24 * 300) * 1209
    p = projective_pair(48)
    assert expansion_window(p) == 602
    assert oracle_work(p, 2 * 602 + 4) == 17046900
    errors = [f for f in validate(p) if f.level == "ERROR"]
    assert [(f.code, f.component) for f in errors] == [("oracle-work", None)]
    assert "17046900" in errors[0].message and str(MAX_ORACLE_WORK) in errors[0].message
    # n = 32 (work 2,331,448) verifies in under a second and is admitted;
    # n = 36 (4,147,605, 1.8 s) is rejected
    assert not has_errors(validate(projective_pair(32)))
    assert has_errors(validate(projective_pair(36)))


def test_expansion_window_limit():
    # moments +-10^6 with weights +-1 need only Q(i), but the expansion
    # window grows with |moment|: validation rejects it, naming the bound
    def sphere(q):
        return ProblemInstance(GroupKind.U1, [
            point_component("north", q, [1]), point_component("south", -q, [-1]),
        ])

    errors = [f for f in validate(sphere(10**6)) if f.level == "ERROR"]
    assert [f.code for f in errors] == ["expansion-window"]
    assert str(MAX_EXPANSION_WINDOW) in errors[0].message
    assert "1000002" in errors[0].message
    # the window of a +-q sphere with weights +-1 is q + 2
    assert expansion_window(sphere(MAX_EXPANSION_WINDOW - 2)) == MAX_EXPANSION_WINDOW
    assert not has_errors(validate(sphere(MAX_EXPANSION_WINDOW - 2)))
    assert has_errors(validate(sphere(MAX_EXPANSION_WINDOW - 1)))


def test_wall_set_quasi_free():
    f = point_component("f", 1, [1, -1])
    assert row_walls(f) == ((1, 0),)


def test_wall_set_weight_two():
    f = point_component("f", 1, [2])
    assert row_walls(f) == ((1, 0), (2, 1))  # 1 and -1


def test_wall_set_weights_two_three():
    f = point_component("f", 1, [2, 3])
    # 1, -1, zeta_3 and zeta_3^2, each in its own Q(zeta_d)
    assert row_walls(f) == ((1, 0), (2, 1), (3, 1), (3, 2))


def test_wall_set_respects_instance_conductor():
    p = catalog("cp2-k", 1)
    assert p.conductor == 12
    e0 = next(f for f in p.components if f.name == "e0")  # weights 1, 3
    assert row_walls(e0) == ((1, 0), (3, 1), (3, 2))
    # every wall root lies in the instance's Q(zeta_N)
    assert all(p.conductor % d == 0 for f in p.components for d, _ in row_walls(f))


# (conductor, [(level, code, component)]) of every catalog entry and golden
# instance, frozen: moving the wall-field rule must not change either
CONDUCTORS_AND_FINDINGS = {
    "cp1-k": (4, [("INFO", "quasi-free", None)]),
    "cp2-k": (12, []),
    "so3-coadjoint": (4, [("INFO", "quasi-free", None)]),
    "su2-sphere": (4, [("WARN", "su2-small-moments", None)]),
    "cp1-double": (4, []),
    "cp1-triple": (12, []),
    "cp1xcp1": (4, [("INFO", "quasi-free", None)]),
    "cp2-line": (4, [("INFO", "quasi-free", None)]),
    "cp2-line-double": (4, []),
    "so3-s2xs2": (4, [("INFO", "quasi-free", None)]),
    "su2-excluded": (4, [
        ("INFO", "quasi-free", None), ("WARN", "su2-small-moments", None),
        ("WARN", "su2-excluded-component", "north"),
        ("WARN", "su2-excluded-component", "south"),
    ]),
    "cp2-line-double-k64": (4, []),
    "cp3-plane": (4, [("INFO", "quasi-free", None)]),
    "cp3-plane-double": (4, []),
    "cp3-0223-k3-c4": (12, []),
    "cp3-lines-q1-k3": (4, [("INFO", "quasi-free", None)]),
    "cp3-lines-q2-k3": (4, []),
    "cp4-03331-k2-c1": (12, []),
    "cp4-hyperplane-q2-k8": (4, []),
    "cp5-hyperplane-q2-k8": (4, []),
    "cp5-033331-k2-c1": (12, []),
    "binary-quintic-k6": (120, []),
    "binary-septic-k12": (840, []),
    "plane-037-k1-c2": (84, []),
    "plane-057-k1-c3": (140, []),
    "plane-0711-k1-c2": (308, []),
    "plane-0713-k1-c2": (1092, []),
    "so3-s2xs2-k32": (4, [("INFO", "quasi-free", None)]),
    "sphere-pm30": (60, []),
}


def test_conductor_and_findings_are_unchanged():
    golden = Path(__file__).resolve().parent / "golden" / "instances"
    instances = [catalog(name) for name in catalog_names()]
    instances += [load_instance(path) for path in sorted(golden.glob("*.json"))]
    assert len(instances) == len(CONDUCTORS_AND_FINDINGS)
    for p in instances:
        got = (p.conductor, [(f.level, f.code, f.component) for f in validate(p)])
        assert got == CONDUCTORS_AND_FINDINGS[p.name.split("(")[0]], p.name


def test_zero_weights_leave_the_conductor_at_four():
    p = ProblemInstance(GroupKind.U1, [
        point_component("a", 1, [0]), point_component("b", -1, [0]),
    ])
    assert p.conductor == 4
    codes = [(f.code, f.component) for f in validate(p) if f.level == "ERROR"]
    assert codes == [("weight-zero", "a"), ("weight-zero", "b")]


# -- catalog ----------------------------------------------------------------

def test_cp1_k2_calibrated_data():
    p = catalog("cp1-k", 2)
    north, south = p.components
    assert (north.moment, north.weights) == (1, (1,))
    assert (south.moment, south.weights) == (-1, (-1,))


def test_cp1_double_walls():
    p = catalog("cp1-double")
    assert p.conductor == 4
    assert row_walls(next(f for f in p.components if f.name == "north")) == ((1, 0), (2, 1))


def test_unknown_name():
    with pytest.raises(UnknownCatalogError):
        catalog("does-not-exist")


def test_fixed_entries_reject_k():
    with pytest.raises(ValueError):
        catalog("cp1-double", 3)


def test_conductor_values():
    assert catalog("cp1-k", 2).conductor == 4
    assert catalog("cp1-triple").conductor == 12
    assert catalog("cp2-k", 1).conductor == 12
    assert catalog("su2-sphere", 1).conductor == 4


def test_weyl_symmetry_of_nonabelian_entries():
    for name in ("so3-coadjoint", "so3-s2xs2", "su2-sphere", "su2-excluded"):
        p = catalog(name)
        moments = sorted(f.moment for f in p.components)
        assert moments == sorted(-m for m in moments), name


def test_dimension_consistency():
    assert catalog("cp1-k", 2).dimension() == 2
    assert catalog("cp2-k", 1).dimension() == 4
    assert catalog("cp1xcp1").dimension() == 4
    assert catalog("cp2-line").dimension() == 4
    assert catalog("so3-s2xs2").dimension() == 4


# -- tensor powers ------------------------------------------------------------

def test_tensor_power_scales_moments_and_omega():
    p = catalog("cp1xcp1")
    q = tensor_power(p, 3)
    for f, g in zip(p.components, q.components):
        assert g.moment == 3 * f.moment
        assert g.omega == f.omega * 3
        assert g.weights == f.weights
        assert g.normal_chern == f.normal_chern


def test_tensor_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        tensor_power(catalog("cp1-k", 2), 0)


# -- component construction guards ---------------------------------------------

def test_component_rejects_mismatched_chern_count():
    with pytest.raises(ValueError):
        FixedComponent("f", POINT, 1, [1, 2], [POINT.zero()], POINT.zero(), POINT.one())


def test_component_rejects_nonnilpotent_omega():
    with pytest.raises(ValueError):
        FixedComponent("f", POINT, 1, [1], [POINT.zero()], POINT.one(), POINT.one())


@pytest.mark.parametrize("weights,moment", [
    ([1.5], 1),             # once truncated to (1,)
    ([Fraction(-3, 2)], 1),  # once truncated to (-1,)
    ([True], 1),
    ([1], True),
    ([1], 1.0),
])
def test_component_rejects_weights_and_moments_that_are_not_integers(weights, moment):
    with pytest.raises(ValueError, match="must be (an )?integer"):
        FixedComponent("f", POINT, moment, weights, [POINT.zero()], POINT.zero(), POINT.one())


def test_component_rejects_bad_todd():
    p1 = RingPresentation.projective_line()
    with pytest.raises(ValueError):
        FixedComponent("f", p1, 1, [1], [p1.zero()], p1.zero(), p1.gen("x"))


def test_records_are_immutable_and_rings_compare_by_value():
    f = point_component("f", 1, [1])
    p = ProblemInstance(GroupKind.U1, [f, point_component("g", -1, [-1])])
    p1 = RingPresentation.projective_line()
    for record, attribute in ((f, "moment"), (p1, "top_degree"), (p, "name")):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)
    twin = RingPresentation(["x"], [2], 2, {(1,): Fraction(1)})
    assert twin == p1 and hash(twin) == hash(p1)
    assert RingPresentation(["x"], [2], 2, {(1,): 2}) != p1


def test_instance_needs_unique_names():
    with pytest.raises(ValueError):
        ProblemInstance(
            GroupKind.U1,
            [point_component("f", 1, [1]), point_component("f", -1, [-1])],
        )


# -- JSON schema ----------------------------------------------------------------

def test_round_trip_through_dict():
    for name in ("cp1-k", "cp2-line", "cp1xcp1", "so3-s2xs2"):
        p = catalog(name)
        q = instance_from_dict(instance_to_dict(p), name=p.name)
        assert q.group == p.group
        for f, g in zip(p.components, q.components):
            assert f.name == g.name
            assert f.moment == g.moment
            assert f.weights == g.weights
            assert f.ring == g.ring
            assert f.omega == g.omega
            assert f.todd == g.todd
            assert f.normal_chern == g.normal_chern


def test_load_instance_from_file(tmp_path):
    doc = instance_to_dict(catalog("cp1-double"))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    p = load_instance(path)
    assert p.name == "inst"
    assert [f.moment for f in p.components] == [1, -1]


def test_floats_rejected():
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["omega"] = {"1": 0.5}
    with pytest.raises(SchemaError, match="float"):
        instance_from_dict(doc)
    # a monomial that is zero in the ring still needs an exact literal
    doc = instance_to_dict(catalog("cp2-line"))
    doc["components"][0]["omega"] = {"x^2": 0.5}
    with pytest.raises(SchemaError, match="float"):
        instance_from_dict(doc)
    doc["components"][0]["omega"] = {"x^2": "1/2"}
    assert instance_from_dict(doc).components[0].omega.is_zero()
    # generator orders: no float truncation, no bool or string coercion,
    # and an out-of-range order is a schema error too
    for order in (2.7, 2.0, True, "2", None, 0):
        doc = instance_to_dict(catalog("cp1xcp1"))
        doc["components"][0]["ring"]["generators"][0][1] = order
        with pytest.raises(SchemaError, match="generators|order"):
            instance_from_dict(doc)
    # the top degree takes no bool (false is not 0), float or string either
    for top in (False, True, 2.0, "2"):
        doc = instance_to_dict(catalog("cp1-k", 2))
        doc["components"][0]["ring"]["top_degree"] = top
        with pytest.raises(SchemaError, match="top_degree"):
            instance_from_dict(doc)


def test_ring_generator_names_checked():
    # a repeated name could never be referenced (every lookup finds the
    # first), and a name outside the monomial grammar could never be parsed
    with pytest.raises(ValueError, match="distinct"):
        RingPresentation(("x", "x"), (2, 2), 4, {(1, 1): 1})
    bad = (
        ([["x", 2], ["x", 2]], "distinct"),
        ([["x y", 2]], "identifier"),
        ([[3, 2]], "identifier"),
        ([["x^2", 2]], "identifier"),
        ([["1", 2]], "identifier"),
        ([["", 2]], "identifier"),
        ([[None, 2]], "identifier"),
        ([["\u00e9", 2]], "identifier"),
    )
    for gens, match in bad:
        doc = instance_to_dict(catalog("cp1xcp1"))
        doc["components"][0]["ring"]["generators"] = gens
        with pytest.raises(SchemaError, match=match):
            instance_from_dict(doc)


def test_component_names_must_be_strings():
    # a name is printed in every report row; str() of a number, a list or
    # null would silently invent one
    for name in (3, ["a"], None, 1.5, True, {"n": 1}):
        doc = instance_to_dict(catalog("cp1-k", 2))
        doc["components"][0]["name"] = name
        with pytest.raises(SchemaError, match=r"components\[0\]\.name"):
            instance_from_dict(doc)
    doc = instance_to_dict(catalog("cp1-k", 2))
    del doc["components"][1]["name"]
    assert instance_from_dict(doc).components[1].name == "F1"


def test_float_moment_rejected():
    doc = instance_to_dict(catalog("cp1-k", 2))
    doc["components"][0]["moment"] = 1.0
    with pytest.raises(SchemaError, match="moment"):
        instance_from_dict(doc)


def test_bad_rational_literal():
    # only -?[0-9]+(/[0-9]+)? in ASCII with a nonzero denominator is a
    # rational literal; Fraction(str) would take most of these
    doc = instance_to_dict(catalog("cp1-k", 2))
    for literal in ("1/0", "0.5", "1e-1", " 1/2 ", "1_000", "\u0663", "+1", "1/-2",
                    "1/", "/2", "", "1 / 2", "0x10", "inf", "nan", "1/2\n"):
        doc["components"][0]["omega"] = {"1": literal}
        with pytest.raises(SchemaError, match="omega.*bad rational literal"):
            instance_from_dict(doc)


def test_rational_literal_grammar():
    doc = instance_to_dict(catalog("cp1-k", 2))
    for literal, value in (("7/3", Fraction(7, 3)), ("-4/6", Fraction(-2, 3)),
                           ("007", Fraction(7)), ("-0", Fraction(0)), (5, Fraction(5))):
        doc["components"][0]["ring"]["integrals"] = {"1": literal}
        assert instance_from_dict(doc).components[0].ring.integrals == {(): value}


def test_bad_monomial_key():
    # a key is "1" or generator names joined by "*", each with an optional
    # "^" and ASCII digits: no spaces, no other digits, no empty key
    doc = instance_to_dict(catalog("cp2-line"))
    for key in ("x^\u0661", " x ", "x * x", "", "x\n", "x^", "*x", "x^" + "9" * 5000):
        doc["components"][0]["omega"] = {key: "1"}
        with pytest.raises(SchemaError, match="(?s)omega.*bad monomial"):
            instance_from_dict(doc)
    # x*x = x^2 is zero in Q[x]/x^2
    doc["components"][0]["omega"] = {"x*x": "1", "x^01": "2"}
    assert instance_from_dict(doc).components[0].omega.coeffs == {(1,): 2}


def test_schema_messages_cut_long_keys_and_literals():
    # a bad 5,000-character key or literal is echoed cut to a fixed length,
    # in the location and in the message alike
    long_keys = ("*" * 5000, "q" * 5000, "x^" + "9" * 5000, "x*" + "x" * 4998)
    cases = []
    for key in long_keys:
        for field in ("omega", "todd"):
            cases.append((field, {key: "1"}))
        cases.append(("ring", {"generators": [["x", 2]], "top_degree": 2, "integrals": {key: "1"}}))
    for literal in ("1/" + "x" * 5000, ["1"] * 2000, "7" * 5000):
        cases.append(("omega", {"x": literal}))
    cases.append(("ring", {"generators": [["x" * 5000 + "!", 2]], "top_degree": 2}))
    cases.append(("ring", {"generators": [["x", "2" * 5000]], "top_degree": 2}))
    for field, value in cases:
        doc = instance_to_dict(catalog("cp2-line"))
        doc["components"][0][field] = value
        with pytest.raises(SchemaError) as info:
            instance_from_dict(doc)
        assert len(str(info.value)) < 300, (field, str(info.value)[:400])
    with pytest.raises(SchemaError) as info:
        instance_from_dict({"group": "E" * 5000, "components": []})
    assert len(str(info.value)) < 300


def test_unknown_generator_diagnostic():
    doc = instance_to_dict(catalog("cp1xcp1"))
    doc["components"][0]["omega"] = {"q": "1"}
    with pytest.raises(SchemaError, match="q"):
        instance_from_dict(doc)


def test_unknown_group():
    with pytest.raises(SchemaError, match="group"):
        instance_from_dict({"group": "E8", "components": []})


def test_point_ring_integrals_default_to_one():
    doc = {
        "group": "U1",
        "components": [
            {"name": "a", "moment": 1, "weights": [1], "ring": {}},
            {"name": "b", "moment": -1, "weights": [-1], "ring": {}},
        ],
    }
    p = instance_from_dict(doc)
    assert p.components[0].ring == RingPresentation.point()
    # a two-point sphere written with maximal shorthand still computes
    from quantred import character_polynomial

    assert character_polynomial(p).coefficients == {-1: 1, 0: 1, 1: 1}


def test_exact_rationals_in_schema():
    pres = {"generators": [["x", 2]], "top_degree": 2, "integrals": {"x": "1"}}
    doc = {
        "group": "U1",
        "components": [
            {"name": "a", "moment": 1, "weights": [1], "ring": pres,
             "omega": {"x": "7/3"}, "todd": {"1": "1", "x": "1/2"},
             "normal_chern": [{"x": "-2/5"}]},
            {"name": "b", "moment": -1, "weights": [-1], "ring": pres,
             "omega": {"x": "7/3"}, "todd": {"1": "1", "x": "1/2"},
             "normal_chern": [{"x": "-2/5"}]},
        ],
    }
    p = instance_from_dict(doc)
    f = p.components[0]
    assert f.omega.coeffs[(1,)] == Fraction(7, 3)
    assert f.normal_chern[0].coeffs[(1,)] == Fraction(-2, 5)


# -- one ring per document ---------------------------------------------------------

P1_DOC = {"generators": [["x", 2]], "top_degree": 2, "integrals": {"x": "1"}}


def _two_components(first, second):
    def component(name, moment, weight, ring):
        return {"name": name, "moment": moment, "weights": [weight], "ring": ring,
                "omega": {}, "todd": {"1": "1"}, "normal_chern": [{}]}

    return {"group": "U1", "components": [component("a", 1, 1, first),
                                          component("b", -1, -1, second)]}


def test_components_with_one_ring_document_share_one_presentation():
    # the three points of a plane, read back from JSON text: equal ring
    # dicts, not one object, parse to one presentation
    from quantred.catalog import catalog as build

    doc = json.loads(json.dumps(instance_to_dict(build("cp2-k", 2))))
    rings = [f.ring for f in instance_from_dict(doc).components]
    assert len(rings) == 3 and all(ring is rings[0] for ring in rings)
    p = instance_from_dict(_two_components(P1_DOC, dict(P1_DOC)))
    a, b = p.components
    assert a.ring is b.ring
    assert a.todd.presentation is b.ring and b.omega.presentation is a.ring


def test_different_ring_documents_stay_different_presentations():
    # a point and a line; equal fields written another way ("1" and 1, key
    # order) parse twice, to equal presentations
    p = instance_from_dict(_two_components({}, P1_DOC))
    assert p.components[0].ring != p.components[1].ring
    other = {"integrals": {"x": 1}, "top_degree": 2, "generators": [["x", 2]]}
    a, b = instance_from_dict(_two_components(P1_DOC, other)).components
    assert a.ring is not b.ring and a.ring == b.ring


def _deep(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


def _p1(**fields):
    return {**P1_DOC, **fields}


POINT_AS_LINE = {"generators": [["x", 1]], "top_degree": 0, "integrals": {"1": 1}}

# a bad ring in the first or a later component, after a good one that a
# plain == would match (1 == 1.0 == True, 0 == False), with its message
BAD_RING_DOCUMENTS = [
    ([], P1_DOC, "components[0].ring: expected a ring description"),
    (P1_DOC, [], "components[1].ring: expected a ring description"),
    (_p1(generators=[["x", True]]), P1_DOC,
     "components[0].ring.generators: order True is not an integer"),
    (P1_DOC, _p1(generators=[["x", 2.0]]),
     "components[1].ring.generators: order 2.0 is not an integer"),
    (POINT_AS_LINE, {**POINT_AS_LINE, "generators": [["x", True]]},
     "components[1].ring.generators: order True is not an integer"),
    ({"top_degree": 0}, {"top_degree": False}, "components[1].ring.top_degree: expected an integer"),
    (P1_DOC, _p1(top_degree=2.0), "components[1].ring.top_degree: expected an integer"),
    (_p1(integrals={"x": 1}), _p1(integrals={"x": True}),
     "components[1].ring.integrals.x: booleans are not numbers"),
    (_p1(integrals={"x": 1}), _p1(integrals={"x": 1.0}),
     "components[1].ring.integrals.x: floats are not accepted; write an exact rational "
     "string like \"7/3\""),
    (P1_DOC, _p1(integrals={"x": "1/0"}),
     "components[1].ring.integrals.x: bad rational literal '1/0'"),
    (P1_DOC, _p1(integrals={"y": "1"}), "components[1].ring.integrals.y: unknown generator 'y'"),
    (P1_DOC, _p1(generators=_deep(50)), "components[1].ring.generators: entries are [name, order]"),
    # deeper than repr can go
    (P1_DOC, _p1(generators=_deep(10 * sys.getrecursionlimit())),
     "components[1].ring.generators: entries are [name, order]"),
    (P1_DOC, {"generators": [["x", 0]], "top_degree": 2, "integrals": {"q": "1"}},
     "components[1].ring: nilpotency orders must be >= 1"),
    (P1_DOC, {"generators": [["x", 5], ["y", 13]], "top_degree": 2, "integrals": {"q": "1"}},
     "components[1].ring: the ring has 65 monomials, above the limit of 64"),
]


@pytest.mark.parametrize("first,second,message", BAD_RING_DOCUMENTS)
def test_bad_rings_keep_their_schema_messages(first, second, message):
    with pytest.raises(SchemaError) as info:
        instance_from_dict(_two_components(first, second))
    assert str(info.value) == message


def test_ring_documents_too_long_to_print_still_parse():
    # an int past the digit limit of str() cannot be looked up by repr; it
    # is parsed as it is, as each component's ring was before sharing
    huge = 10**5000
    ring = {"generators": [["x", 2]], "top_degree": 2, "integrals": {"x": huge}}
    a, b = instance_from_dict(_two_components(ring, dict(ring))).components
    assert a.ring == b.ring and a.ring.integral_num == (((1,), huge),)


# -- one parse per process ------------------------------------------------------------

def test_documents_share_the_parse_of_equal_sub_documents():
    # two documents parsed one after the other, their ring and class
    # documents equal but not one object: one presentation, one class each
    first = instance_from_dict(_two_components(P1_DOC, P1_DOC))
    second = instance_from_dict(json.loads(json.dumps(_two_components(P1_DOC, P1_DOC))))
    for f, g in zip(first.components, second.components):
        assert g.ring is f.ring and g.todd is f.todd and g.omega is f.omega
        assert g.normal_chern[0] is f.normal_chern[0]
    # the place of a sub-document is not part of its key
    assert len({id(f.todd) for f in first.components + second.components}) == 1
    doc = instance_to_dict(catalog("cp2-line"))
    again = json.loads(json.dumps(doc))
    for f, g in zip(instance_from_dict(doc).components, instance_from_dict(again).components):
        assert g.ring is f.ring and g.todd is f.todd


def _with_literals(ring, todd):
    doc = _two_components(ring, ring)
    doc["components"][0]["todd"] = todd
    return doc


GOOD_RING, GOOD_TODD = _p1(integrals={"x": 1}), {"1": 1, "x": 1}

# after GOOD_RING and GOOD_TODD, a ring or class document in a later
# document that == matches them (2 == 2.0, 1 == 1.0 == True) or differs
# from them only in the type of a literal ("1" and 1), with its message, or
# None when it parses
LITERAL_TWINS = [
    (_p1(integrals={"x": 1}, top_degree=2.0), GOOD_TODD,
     "components[0].ring.top_degree: expected an integer"),
    (_p1(integrals={"x": 1}, top_degree=True), GOOD_TODD,
     "components[0].ring.top_degree: expected an integer"),
    (_p1(integrals={"x": True}), GOOD_TODD,
     "components[0].ring.integrals.x: booleans are not numbers"),
    (_p1(integrals={"x": 1.0}), GOOD_TODD,
     "components[0].ring.integrals.x: floats are not accepted; write an exact rational "
     "string like \"7/3\""),
    (_p1(integrals={"x": "1"}), GOOD_TODD, None),
    (GOOD_RING, {"1": True, "x": 1}, "components[0].todd.1: booleans are not numbers"),
    (GOOD_RING, {"1": 1, "x": 1.0},
     "components[0].todd.x: floats are not accepted; write an exact rational "
     "string like \"7/3\""),
    (GOOD_RING, {"1": "1", "x": 1}, None),
]


@pytest.mark.parametrize("ring,todd,message", LITERAL_TWINS)
def test_a_sub_document_equal_but_for_a_literal_type_is_parsed_on_its_own(ring, todd, message):
    good = instance_from_dict(_with_literals(GOOD_RING, GOOD_TODD)).components[0]
    if message is not None:
        with pytest.raises(SchemaError) as info:
            instance_from_dict(_with_literals(ring, todd))
        assert str(info.value) == message
        return
    f = instance_from_dict(_with_literals(ring, todd)).components[0]
    assert f.ring == good.ring and f.todd == good.todd and f.todd is not good.todd
    assert (f.ring is good.ring) == (ring is GOOD_RING) and f.todd.presentation is f.ring


def test_a_bad_class_names_its_own_place_every_time():
    # one bad class document at two places in two documents, parsed twice
    first = _two_components(P1_DOC, P1_DOC)
    first["components"][0]["omega"] = {"x": "1/0"}
    second = _two_components(P1_DOC, P1_DOC)
    second["components"][1]["normal_chern"] = [{"x": "1/0"}]
    for _ in range(2):
        for doc, place in ((first, "components[0].omega"),
                           (second, "components[1].normal_chern[0]")):
            with pytest.raises(SchemaError) as info:
                instance_from_dict(doc)
            assert str(info.value) == f"{place}.x: bad rational literal '1/0'"


def test_a_document_changed_after_its_parse_changes_no_later_parse():
    doc = _with_literals(_p1(integrals={"x": "3"}), {"1": "1", "x": "5"})
    copy = json.loads(json.dumps(doc))
    before = instance_from_dict(doc).components[0]
    doc["components"][0]["ring"]["integrals"]["x"] = "7"
    doc["components"][0]["todd"]["x"] = "2"
    again = instance_from_dict(copy).components[0]
    assert again.ring.integrals == {(1,): 3} and again.todd.coeffs[(1,)] == 5
    assert again.ring == before.ring and again.todd == before.todd
    changed = instance_from_dict(doc).components[0]
    assert changed.ring.integrals == {(1,): 7} and changed.todd.coeffs[(1,)] == 2


def test_the_parse_caches_are_bounded():
    for cache in (_parsed_ring, _parsed_class):
        assert cache.cache_info().maxsize is not None
