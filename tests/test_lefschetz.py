"""The first test here is the sign-convention calibration: everything else
in the engine (window choices, the positive-moment filter, the correction
terms) is downstream of the two-point projective line producing exactly the
character t^-1 + 1 + t."""

import cmath
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_classes
from quantred import (
    CohomologyClass,
    FixedComponent,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    RingPresentation,
    WeylFactor,
    catalog,
    catalog_names,
    Chart,
    character_from_chart,
    character_polynomial,
    component_form,
    form_residue,
    invariant_multiplicity,
    load_instance,
    outer_expansion,
    rational_part,
    root_order,
    residue_of_h,
    rr_invariant,
    tensor_power,
    wall_set,
)
from quantred.lefschetz import NonIntegerResultError

POINT = RingPresentation.point()
INSTANCES = Path(__file__).resolve().with_name("golden") / "instances"


def point_component(name, moment, weights):
    return FixedComponent(
        name, POINT, moment, weights,
        [POINT.zero() for _ in weights], POINT.zero(), POINT.one(),
    )


# -- calibration (the gate for everything else) --------------------------------

def test_calibration_cp1_degree2():
    p = catalog("cp1-k", 2)
    expected = {-1: Fraction(1), 0: Fraction(1), 1: Fraction(1)}
    assert character_from_chart(p, Chart.at_infinity(), 5) == expected
    assert character_from_chart(p, Chart.at_zero(), 5) == expected
    assert rr_invariant(p) == 1


# -- per-component residues -------------------------------------------------------
# frozen values, cross-checked three ways: the infinity-chart geometric
# series by hand, the residue theorem (rows sum to zero), and the oracle

def test_cp1_per_component_residues_at_infinity():
    p = catalog("cp1-k", 2)
    north, south = p.components
    at = Chart.at_infinity()
    assert residue_of_h(north, at) == -1
    assert residue_of_h(south, at) == 0
    total = -(residue_of_h(north, at) + residue_of_h(south, at))
    assert total == 1  # dim of the invariant part


def test_simple_pole_at_one_for_positive_moment():
    # h = t^mu dt / (t - 1) has residue exactly 1 at t = 1, any mu >= 0
    for mu in (1, 2, 5):
        f = point_component("f", mu, [1])
        assert residue_of_h(f, Chart.at_one()) == 1
        assert residue_of_h(f, Chart.at_zero()) == 0
        assert residue_of_h(f, Chart.at_infinity()) == -1
    # a double weight halves it; t = 1 is also zeta_4^0
    f = point_component("f", 1, [2])
    assert residue_of_h(f, Chart.at_one()) == residue_of_h(f, Chart.at_root(4, 0)) == Fraction(1, 2)


def test_three_chart_sum_negative_moment():
    f = point_component("f", -2, [1])
    r0 = residue_of_h(f, Chart.at_zero())
    r1 = residue_of_h(f, Chart.at_one())
    rinf = residue_of_h(f, Chart.at_infinity())
    assert (r0, r1, rinf) == (-1, 1, 0)
    assert r0 + r1 + rinf == 0


def test_residue_sum_over_all_poles_is_zero_per_component():
    # global residue theorem on the sphere, component by component,
    # with the group's Weyl factor included
    for name in catalog_names():
        p = catalog(name)
        weyl = WeylFactor(p.group)
        for f in p.components:
            total = residue_of_h(f, Chart.at_zero(), weyl)
            total = total + residue_of_h(f, Chart.at_infinity(), weyl)
            for d, j in wall_set(f):
                total = total + residue_of_h(f, Chart.at_root(d, j), weyl)
            assert rational_part(total) == 0, (name, f.name)


# -- vanishing windows ------------------------------------------------------------

def test_window_vanishing_on_catalog():
    # res_0 and res_inf of t^r h_F both vanish when moment + r lies strictly
    # between -n_plus and n_minus
    checked = 0
    for name in catalog_names():
        p = catalog(name)
        for f in p.components:
            for r in range(-2, 3):
                if -f.n_plus < f.moment + r < f.n_minus:
                    assert residue_of_h(f, Chart.at_zero(), twist=r) == 0, (name, f.name, r)
                    assert residue_of_h(f, Chart.at_infinity(), twist=r) == 0, (name, f.name, r)
                    checked += 1
    assert checked >= 4  # the window is nonempty on several catalog entries


def test_window_edges_can_be_nonzero():
    # just outside the window the residues are allowed to be (and are) nonzero
    f = point_component("f", 1, [1])  # window (-1, 0) is empty
    assert residue_of_h(f, Chart.at_infinity(), twist=-1) == -1  # mu + r = 0 = n_minus


def test_poles_only_on_wall_sets():
    # at a root of unity off the component's wall set the form is regular,
    # so the residue vanishes identically
    p = catalog("cp2-k", 1)
    n = p.conductor  # 12
    for f in p.components:
        walls = set(wall_set(f))
        for k in range(n):
            d = root_order(n, k)
            if (d, k * d // n) not in walls:
                value = residue_of_h(f, Chart.at_root(n, k), WeylFactor(p.group))
                assert value == 0, (f.name, k)


# -- the invariant count -------------------------------------------------------------

def test_rr_invariant_worked_values():
    assert rr_invariant(catalog("cp1-k", 2)) == 1
    assert rr_invariant(catalog("cp1-k", 1)) == 0  # zero level outside the image
    assert rr_invariant(catalog("cp1xcp1")) == 2
    assert rr_invariant(catalog("cp2-line")) == 2
    assert rr_invariant(catalog("so3-coadjoint", 2)) == 0
    assert rr_invariant(catalog("su2-excluded")) == 1


def test_rr_invariant_matches_oracle_everywhere():
    for name in catalog_names():
        p = catalog(name)
        c = character_polynomial(p)
        assert rr_invariant(p) == invariant_multiplicity(c, p.group), name


def test_rr_invariant_on_tensor_powers():
    for name, kmax in (("cp1-k", 4), ("cp2-k", 4), ("cp2-line", 4)):
        base = catalog(name)
        for k in range(1, kmax + 1):
            p = tensor_power(base, k)
            expected = invariant_multiplicity(character_polynomial(p), p.group)
            assert rr_invariant(p) == expected, (name, k)


def test_rr_invariant_requires_valid_instance():
    p = ProblemInstance(GroupKind.U1, [point_component("f", 0, [1])])
    with pytest.raises(InvalidInstanceError) as excinfo:
        rr_invariant(p)
    # the error carries the findings, as it does from the reduced side
    assert [f.code for f in excinfo.value.findings] == ["moment-zero", "quasi-free"]


def test_non_integer_result_detected():
    p1 = RingPresentation.projective_line()
    x = p1.gen("x")
    comps = [
        FixedComponent("t", p1, 1, [1], [p1.zero()], x * Fraction(1, 2), p1.one() + x),
        FixedComponent("b", p1, -1, [-1], [p1.zero()], x * Fraction(1, 2), p1.one() + x),
    ]
    with pytest.raises(NonIntegerResultError):
        rr_invariant(ProblemInstance(GroupKind.U1, comps))


# -- two-chart agreement and finiteness --------------------------------------------

def rescaled(p, s):
    """The same instance written in the generators y = s*x: a class's
    coefficient at a monomial of total degree k is divided by s**k and each
    integral multiplied by s**k, so every integral of a product is unchanged
    while c, omega and the Todd class get denominators."""
    def cls(c, ring):
        return CohomologyClass(ring, {e: v / s ** sum(e) for e, v in c.coeffs.items()})

    comps = []
    for f in p.components:
        ring = RingPresentation(
            f.ring.generators, f.ring.orders, f.ring.top_degree,
            {e: v * s ** sum(e) for e, v in f.ring.integrals.items()},
        )
        comps.append(FixedComponent(
            f.name, ring, f.moment, f.weights,
            [cls(c, ring) for c in f.normal_chern], cls(f.omega, ring), cls(f.todd, ring),
        ))
    return ProblemInstance(p.group, comps, f"{p.name}/{s}")


def test_charts_assemble_the_same_polynomial():
    cases = [(name, catalog(name)) for name in (
        "cp1-k", "cp1-double", "cp2-k", "cp1xcp1", "cp2-line",
        "cp2-line-double", "so3-s2xs2")]
    # the oracle keeps one denominator per component: give it some
    cases += [(f"{name}/{s}", rescaled(catalog(name), s))
              for name in ("cp2-line", "cp2-line-double", "cp1xcp1") for s in (2, 3)]
    assert all(
        any(v.denominator > 1 for f in p.components
            for c in (f.omega, f.todd, *f.normal_chern) for v in c.coeffs.values())
        for name, p in cases if "/" in name
    )
    from quantred import automatic_degree_bound

    for name, p in cases:
        top = automatic_degree_bound(p)
        from_inf = character_from_chart(p, Chart.at_infinity(), top)
        from_zero = character_from_chart(p, Chart.at_zero(), top)
        assert from_inf == from_zero, name
        oracle = {m: Fraction(c) for m, c in character_polynomial(p).coefficients.items()}
        assert from_inf == oracle, name
        assert character_polynomial(p) == character_polynomial(catalog(name.split("/")[0])), name


def test_infinity_tail_vanishes_beyond_bound():
    # the summed expansion is a genuine Laurent polynomial: coefficients of
    # w^n for n beyond the automatic bound are zero
    from quantred import automatic_degree_bound

    p = catalog("cp2-k", 2)
    top = automatic_degree_bound(p) + 6
    coeffs = character_from_chart(p, Chart.at_infinity(), top)
    for m, v in coeffs.items():
        assert abs(m) <= automatic_degree_bound(p) or v == 0


# -- Weyl factors ----------------------------------------------------------------------

def test_weyl_polynomials():
    assert WeylFactor(GroupKind.U1).poly == {0: Fraction(1)}
    assert WeylFactor(GroupKind.SO3).poly == {
        0: Fraction(1), 1: Fraction(-1, 2), -1: Fraction(-1, 2)
    }
    assert WeylFactor(GroupKind.SU2).poly == {
        0: Fraction(1), 2: Fraction(-1, 2), -2: Fraction(-1, 2)
    }


def test_weyl_factor_nonnegative_on_circle():
    for group in (GroupKind.SO3, GroupKind.SU2):
        poly = WeylFactor(group).poly
        for j in range(16):
            t = cmath.exp(2j * cmath.pi * j / 16)
            value = sum(complex(a) * t**r for r, a in poly.items())
            assert abs(value.imag) < 1e-12
            assert value.real >= -1e-12


# -- the integer numerator of a component's rational function -----------------------

def _reference_form(f, multiplier):
    """N_F(t) / prod (1 - t^-beta)^M in Fractions, written out apart from
    the engine with one index per normal direction: N_F = t^mu * multiplier
    * sum_k I_k prod_j s_j^k_j (1 - s_j)^(K_j - k_j), s_j = t^-beta_j,
    I_k = integral_F e^omega Td(F) prod_j x_j^k_j, x_j = e^-c_j - 1, K_j the
    largest k_j of a nonzero I_k, and M_beta the sum of K_j + 1 over the
    directions of weight beta."""
    xs = [(-c).exp() - 1 for c in f.normal_chern]
    classes = {(): f.omega.exp() * f.todd}
    for x in xs:
        grown = {}
        for k, cls in classes.items():
            power = 0
            while power == 0 or cls.coeffs:
                grown[k + (power,)] = cls
                cls, power = cls * x, power + 1
        classes = grown
    table = {k: cls.integrate() for k, cls in classes.items()}
    table = {k: v for k, v in table.items() if v}
    if not table:
        return {}, {}
    tops = [max(k[j] for k in table) for j in range(len(xs))]
    body = {}
    for k, value in table.items():
        poly = {0: value}
        for beta, kj, top in zip(f.weights, k, tops):
            step = {}
            for r, a in poly.items():
                for i in range(top - kj + 1):
                    e = r - beta * (kj + i)
                    step[e] = step.get(e, 0) + a * (-1) ** i * comb(top - kj, i)
            poly = step
        for r, a in poly.items():
            body[r] = body.get(r, 0) + a
    numerator = {}
    for r, a in multiplier.items():
        for e, v in body.items():
            numerator[e + r + f.moment] = numerator.get(e + r + f.moment, 0) + a * v
    denominator = {}
    for beta, top in zip(f.weights, tops):
        denominator[beta] = denominator.get(beta, 0) + top + 1
    return {e: Fraction(v) for e, v in numerator.items() if v}, denominator


def _every_instance():
    out = [catalog(name) for name in catalog_names()]
    return out + [load_instance(path) for path in sorted(INSTANCES.glob("*.json"))]


def _times_denominator_powers(numerator, powers):
    # numerator * prod_beta (1 - t^-beta)^powers[beta], term by term
    for beta, m in powers.items():
        for _ in range(m):
            step = {}
            for e, v in numerator.items():
                step[e] = step.get(e, 0) + v
                step[e - beta] = step.get(e - beta, 0) - v
            numerator = {e: v for e, v in step.items() if v}
    return numerator


def _repeats_a_weight_on_a_nonzero_class(f):
    weights = [beta for beta, c in zip(f.weights, f.normal_chern) if not c.is_zero()]
    return len(set(weights)) < len(weights)


def _assert_matches_the_per_direction_form(f, multiplier=None, where=None) -> bool:
    """component_form keeps N_F as integers over one denominator D and one
    pole order M_beta per distinct weight; brought to the per-direction
    orders of :func:`_reference_form`, N_F / D has its Fraction
    coefficients.  Grouping lowers M_beta only where a weight repeats on a
    nonzero class.  Returns whether it lowered one."""
    (terms, scale), denominator = component_form(f, multiplier)
    numerator, expected_denominator = _reference_form(f, multiplier or {0: 1})
    assert type(scale) is int and scale > 0
    assert all(type(v) is int and v for v in terms.values())
    assert sorted(denominator) == sorted(expected_denominator), where
    assert all(denominator[b] <= m for b, m in expected_denominator.items()), where
    if not _repeats_a_weight_on_a_nonzero_class(f):
        assert denominator == expected_denominator, where
    lift = {b: m - denominator[b] for b, m in expected_denominator.items()}
    raised = _times_denominator_powers({e: Fraction(v, scale) for e, v in terms.items()}, lift)
    assert raised == numerator, where
    return any(lift.values())


def test_integer_numerator_matches_the_fraction_formula():
    # on every catalog entry and golden instance, with and without the Weyl
    # factor; the two lines of each cp3-lines golden repeat a weight
    grouped = 0
    for p in _every_instance():
        weyl = WeylFactor(p.group).poly
        for f in p.components:
            for multiplier in (None, weyl):
                grouped += _assert_matches_the_per_direction_form(f, multiplier, (p.name, f.name))
    assert grouped == 2 * 2 * 2


@pytest.mark.parametrize("name", ["cp3-lines-q1-k3", "cp3-lines-q2-k3"])
def test_a_repeated_weight_is_one_pole_order(name):
    # each line has weights (q, q) on the classes x, x over Q[x]/x^2: per
    # direction M_q = (1 + 1) + (1 + 1) = 4, grouped r_q + K_q = 2 + 1 = 3
    p = load_instance(INSTANCES / f"{name}.json")
    for f in p.components:
        (beta,) = set(f.weights)
        assert _reference_form(f, {0: 1})[1] == {beta: 4}
        assert component_form(f)[1] == {beta: 3}


DRAWN_RINGS = [
    RingPresentation.point(),
    RingPresentation.projective_line(),
    RingPresentation(("x",), (4,), 6, {(3,): Fraction(1, 2)}),
    RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): 1}),
]


@st.composite
def drawn_components(draw):
    # up to four directions over weights +-1, 2, so that weights repeat, on
    # classes that may be zero, equal or dense
    ring = draw(st.sampled_from(DRAWN_RINGS))
    weights = draw(st.lists(st.sampled_from([1, -1, 2]), min_size=0, max_size=4))
    nilpotent = ring_classes(ring, nilpotent=True)
    shared = draw(nilpotent)
    chern = [draw(st.one_of(st.just(shared), st.just(ring.zero()), nilpotent))
             for _ in weights]
    return FixedComponent("f", ring, draw(st.integers(-3, 3).filter(bool)), weights,
                          chern, draw(nilpotent), ring.one() + draw(nilpotent))


@settings(max_examples=60, deadline=None)
@given(f=drawn_components())
def test_grouped_form_matches_the_per_direction_formula_on_drawn_components(f):
    _assert_matches_the_per_direction_form(f)


def test_expansions_divide_once_by_the_numerator_denominator():
    # outer_expansion and form_residue read a pair (integers, D) as the
    # integers over D: D taken 3 times too large, which no component_form
    # returns, gives a third of every value, so the division by D is seen at
    # every pole order; D = 1 gives D times the values.  The type of a value
    # depends on the chart alone
    for p in _every_instance():
        weyl = WeylFactor(p.group).poly
        for f in p.components:
            (terms, scale), denominator = component_form(f, weyl)
            charts = [Chart.at_zero(), Chart.at_infinity(), Chart.at_one()]
            charts += [Chart.at_root(d, 1) for d in
                       sorted({d for d, _ in wall_set(f)}) if d > 1]
            where = (p.name, f.name)
            for chart in charts[:2]:
                window = outer_expansion((terms, scale), denominator, chart, -6, 6)
                assert all(type(v) is Fraction for v in window)
                third = outer_expansion((terms, 3 * scale), denominator, chart, -6, 6)
                assert third == [v / 3 for v in window], where
                whole = outer_expansion((terms, 1), denominator, chart, -6, 6)
                assert whole == [scale * v for v in window], where
            for chart in charts:
                value = form_residue((terms, scale), denominator, chart)
                third = form_residue((terms, 3 * scale), denominator, chart)
                assert third == value / 3 and type(third) is type(value), (where, chart)
                whole = form_residue((terms, 1), denominator, chart)
                assert whole == scale * value and type(whole) is type(value), (where, chart)
