from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expansion, ring_classes
from quantred import (
    CharacterPolynomial,
    CohomologyClass,
    FixedComponent,
    GroupKind,
    ProblemInstance,
    RingPresentation,
    StabilizationError,
    SymmetryError,
    WeylFactor,
    automatic_degree_bound,
    catalog,
    catalog_names,
    character_polynomial,
    component_form,
    invariant_multiplicity,
    load_instance,
    residue_row,
    tensor_power,
)
from quantred.fixedpoint import MAX_EXPANSION_WINDOW, InvalidInstanceError
from quantred.oracle import _integer_class, _monomials, _mul, _scaled_exp

POINT = RingPresentation.point()


def point_component(name, moment, weights):
    return FixedComponent(
        name, POINT, moment, weights,
        [POINT.zero() for _ in weights], POINT.zero(), POINT.one(),
    )


# -- worked characters --------------------------------------------------------

def test_cp1_degree2_sections():
    c = character_polynomial(catalog("cp1-k", 2))
    assert c == {-1: 1, 0: 1, 1: 1}
    assert str(c) == "t^-1 + 1 + t"


def test_cp1_degree0_trivial_bundle():
    # degenerate entry: both moments vanish, so it fails validation for the
    # residue paths, but the bare character is still the constant 1
    c = character_polynomial(catalog("cp1-k", 0))
    assert c == {0: 1}
    assert str(c) == "1"


def test_single_free_point_does_not_stabilize():
    p = ProblemInstance(GroupKind.U1, [point_component("only", 1, [1])])
    with pytest.raises(StabilizationError):
        character_polynomial(p)


def test_mismatched_weights_do_not_stabilize():
    # a weight-2 point can only close up against another weight-2 point
    p = ProblemInstance(
        GroupKind.U1,
        [point_component("a", 1, [2]), point_component("b", -1, [-3])],
    )
    with pytest.raises(StabilizationError):
        character_polynomial(p)


def test_character_dimensions_match_section_counts():
    # dim H^0(P^1, O(k)) = k + 1
    for k in range(1, 7):
        c = character_polynomial(catalog("cp1-k", k))
        assert sum(c.coefficients.values()) == k + 1
    # dim H^0(P^2, O(k)) = (k+1)(k+2)/2
    for k in range(1, 5):
        c = character_polynomial(catalog("cp2-k", k))
        assert sum(c.coefficients.values()) == (k + 1) * (k + 2) // 2, k
    # P^2 with a fixed line, degree 3: ten sections
    assert sum(character_polynomial(catalog("cp2-line")).coefficients.values()) == 10


def test_cp2_line_character_staircase():
    c = character_polynomial(catalog("cp2-line"))
    assert c == {-1: 1, 0: 2, 1: 3, 2: 4}


def test_cp2_line_double_character():
    c = character_polynomial(catalog("cp2-line-double"))
    assert c == {-1: 1, 1: 2, 3: 3}


def test_product_of_spheres_character():
    c = character_polynomial(catalog("so3-s2xs2"))
    assert c == {-3: 1, -2: 2, -1: 3, 0: 3, 1: 3, 2: 2, 3: 1}


def test_su2_sphere_characters_step_by_two():
    c = character_polynomial(catalog("su2-sphere", 3))
    assert c == {-3: 1, -1: 1, 1: 1, 3: 1}


# -- stabilization robustness ----------------------------------------------------

def test_doubling_the_bound_changes_nothing():
    for name in catalog_names():
        p = catalog(name)
        auto = automatic_degree_bound(p)
        assert character_polynomial(p) == character_polynomial(p, 2 * auto), name


def test_degree_bound_never_lowers_automatic():
    p = catalog("cp1-k", 6)
    assert character_polynomial(p, 1) == character_polynomial(p)


def test_fractional_data_flagged():
    # omega with a non-integral period produces non-integer multiplicities
    p1 = RingPresentation.projective_line()
    x = p1.gen("x")
    half = x * Fraction(1, 2)
    comps = [
        FixedComponent("top", p1, 1, [1], [p1.zero()], half, p1.one() + x),
        FixedComponent("bot", p1, -1, [-1], [p1.zero()], half, p1.one() + x),
    ]
    p = ProblemInstance(GroupKind.U1, comps)
    with pytest.raises(StabilizationError, match="integer"):
        character_polynomial(p)


# -- invariant multiplicities ------------------------------------------------------

@pytest.mark.parametrize("coefficients", [
    {1: Fraction(7, 2)},  # once truncated to 3*t
    {2.5: 1},             # once truncated to t^2
    {0: 1.9},             # once equal to {0: 1}
])
def test_characters_reject_non_integral_terms(coefficients):
    with pytest.raises(ValueError, match="not all integral"):
        CharacterPolynomial(coefficients)
    assert (CharacterPolynomial({0: 1}) == coefficients) is False


@pytest.mark.parametrize("other", [
    {0: Fraction(1, 2)},  # a non-integral count
    {"a": 1},             # a key that is no integer
])
def test_a_dict_that_is_no_integral_character_compares_unequal(other):
    c = CharacterPolynomial({0: 1})
    assert (c == other) is False and (c != other) is True


def test_characters_take_integral_values_of_any_type():
    c = CharacterPolynomial({Fraction(4, 2): 3.0, 1: Fraction(0), -1: True})
    assert c.coefficients == {2: 3, -1: 1} and str(c) == "t^-1 + 3*t^2"


def test_trivial_character_u1():
    assert invariant_multiplicity(CharacterPolynomial({0: 1}), GroupKind.U1) == 1


def test_adjoint_character_so3():
    adjoint = CharacterPolynomial({-1: 1, 0: 1, 1: 1})
    assert invariant_multiplicity(adjoint, GroupKind.SO3) == 0


def test_su2_spin1_plus_trivial():
    c = CharacterPolynomial({-2: 1, 0: 2, 2: 1})
    assert invariant_multiplicity(c, GroupKind.SU2) == 1


def test_symmetry_violation():
    lopsided = CharacterPolynomial({0: 1, 1: 1})
    with pytest.raises(SymmetryError):
        invariant_multiplicity(lopsided, GroupKind.SO3)
    assert invariant_multiplicity(lopsided, GroupKind.U1) == 1


@pytest.mark.parametrize("coefficients", [
    {-2: 1, 0: 3, 1: 1, -1: 1},  # weight -2 on one side only
    {-3: 1, -1: 2, 0: 1, 1: 3, 3: 1},  # -1 and 1 both present, counts 2 and 3
])
@pytest.mark.parametrize("group", [GroupKind.SO3, GroupKind.SU2])
def test_an_asymmetric_character_raises(coefficients, group):
    c = CharacterPolynomial(coefficients)
    assert not c.is_weyl_symmetric()
    with pytest.raises(SymmetryError):
        invariant_multiplicity(c, group)


def test_so3_ladder():
    # sum of spin-l characters: ladder multiplicities recover each a_l
    # a_0 V_0 + a_1 V_1 + a_2 V_2 with a = (2, 3, 1)
    coeffs = {}
    for l, a in ((0, 2), (1, 3), (2, 1)):
        for m in range(-l, l + 1):
            coeffs[m] = coeffs.get(m, 0) + a
    c = CharacterPolynomial(coeffs)
    assert invariant_multiplicity(c, GroupKind.SO3) == 2


def test_su2_mixed_parity():
    # V_{1/2} + 2 V_0: weights {-1, +1} + twice {0}
    c = CharacterPolynomial({-1: 1, 0: 2, 1: 1})
    assert invariant_multiplicity(c, GroupKind.SU2) == 2


def test_weyl_symmetric_on_nonabelian_catalog():
    for name in ("so3-coadjoint", "so3-s2xs2", "su2-sphere", "su2-excluded"):
        assert character_polynomial(catalog(name)).is_weyl_symmetric(), name


# -- tensor powers reach the oracle --------------------------------------------

def test_tensor_power_characters():
    base = catalog("cp1-k", 2)
    for k in range(1, 5):
        c = character_polynomial(tensor_power(base, k))
        assert c == {m: 1 for m in range(-k, k + 1)}


# -- the per-exponent layout, kept as a reference ------------------------------
# The oracle's previous layout: a series in w is a list of classes (None for
# zero) indexed by exponent offset, and each normal factor builds one class
# per exponent.  The column layout must give the same character, or raise the
# same exception with the same message, on every input.

def _divided(a, n):
    if n == 1:
        return a
    out = []
    for x in a:
        q, r = divmod(x, n)
        if r:
            raise ArithmeticError(f"inexact division by {n} in the oracle recurrence")
        out.append(q)
    return out


def reference_character_polynomial(p, degree_bound=None):
    auto = automatic_degree_bound(p)
    bound = auto if degree_bound is None else max(int(degree_bound), auto)
    if bound > MAX_EXPANSION_WINDOW:
        raise InvalidInstanceError(
            f"the character expansion bound {bound} is above the limit of "
            f"{MAX_EXPANSION_WINDOW}"
        )
    top = bound + auto + 4
    parts = []
    for f in p.components:
        index, rows = _monomials(f.ring.orders)
        scale, expo = _scaled_exp(f.omega, index, rows)
        base = _mul(expo, _integer_class(f.todd.num.items(), index), rows)
        den = scale * f.todd.den
        g = gcd(den, *base)
        series = [[x // g for x in base]]
        den //= g
        low = -f.moment
        for b, chern in zip(f.weights, f.normal_chern):
            if b == 0:
                raise InvalidInstanceError(f"component {f.name!r} has a zero weight")
            m = abs(b)
            scale, step = _scaled_exp(chern, index, rows, -1 if b > 0 else 1)
            if b > 0:
                num = [cls and [scale * x for x in cls] for cls in series]
            else:
                num = [cls and [-x for x in _mul(step, cls, rows)] for cls in series]
                low += m
            den *= scale
            new = []
            for i in range(top - low + 1):
                cls = num[i] if i < len(num) else None
                prev = new[i - m] if i >= m else None
                if prev:
                    if chern.coeffs:
                        prev = _divided(_mul(step, prev, rows), scale)
                    cls = prev if cls is None else [x + y for x, y in zip(cls, prev)]
                new.append(cls if cls and any(cls) else None)
            series = new
        wden = f.ring.integral_den
        weights = _integer_class(f.ring.integral_num, index)
        weights = [(j, w) for j, w in enumerate(weights) if w]
        values = {}
        for i, cls in enumerate(series):
            if cls:
                value = sum(cls[j] * w for j, w in weights)
                if value:
                    values[low + i] = value
        parts.append((den * wden, values))
    common = lcm(*(d for d, _ in parts))
    total = {}
    for d, values in parts:
        s = common // d
        for w_exp, value in values.items():
            total[w_exp] = total.get(w_exp, 0) + value * s
    total = {e: v for e, v in total.items() if v}
    bad = [e for e in total if e > bound]
    if bad:
        raise StabilizationError(
            f"expansion does not stabilize: nonzero coefficients at "
            f"t^{[-e for e in sorted(bad)]} beyond the bound {bound}; the "
            "data does not come from a compact manifold"
        )
    coeffs = {}
    for w_exp, v in total.items():
        count, rest = divmod(v, common)
        if rest:
            raise StabilizationError(
                f"character coefficient at t^{-w_exp} is {Fraction(v, common)}, "
                "not an integer; inconsistent fixed-point data"
            )
        coeffs[-w_exp] = count
    return CharacterPolynomial(coeffs)


def _outcome(p, degree_bound=None, oracle=character_polynomial):
    try:
        return oracle(p, degree_bound)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def reversed_action(p):
    """The same manifold with the circle acting through t -> 1/t: weights
    and moments negated, classes unchanged."""
    return ProblemInstance(p.group, [
        FixedComponent(f.name, f.ring, -f.moment, [-b for b in f.weights],
                       f.normal_chern, f.omega, f.todd)
        for f in p.components
    ], f"{p.name}-reversed")


def _assert_same_as_reference(p, degree_bound=None):
    got = _outcome(p, degree_bound)
    assert got == _outcome(p, degree_bound, reference_character_polynomial), p.name
    return got


GOLDEN = Path(__file__).resolve().parent / "golden" / "instances"
INSTANCES = {name: (lambda name=name: catalog(name)) for name in catalog_names()}
INSTANCES.update(
    (path.stem, lambda path=path: load_instance(path)) for path in sorted(GOLDEN.glob("*.json"))
)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_columns_match_the_per_exponent_reference(name):
    base = INSTANCES[name]()
    for k in (1, 2, 7, 32, 64):
        p = tensor_power(base, k) if k > 1 else base
        got = _assert_same_as_reference(p)
        _assert_same_as_reference(p, 2 * automatic_degree_bound(p))
        # the reversed action reaches b < 0 with the same Chern classes, and
        # its character is c(1/t)
        flipped = _assert_same_as_reference(reversed_action(p))
        if isinstance(got, CharacterPolynomial):
            assert flipped == {-m: c for m, c in got.coefficients.items()}, (name, k)
        else:
            assert type(flipped) is tuple and flipped[0] is got[0], (name, k)


# P(O + L) over a two-generator base, L = O(a, b): the zero and infinity
# sections are the fixed components, with normal weights q and -q and normal
# Chern classes +-c_1(L); the line bundle restricts to omega and omega + s k
# c_1(L), with moments mu and mu + s k q.  Each base comes with its Todd
# class: (1 + x)(1 + y) on P^1 x P^1, (1 + 3x/2 + x^2)(1 + y) on P^2 x P^1.
BASES = (
    (RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): 1}), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}),
    (RingPresentation(("x", "y"), (3, 2), 6, {(2, 1): 1}),
     {(0, 0): 1, (1, 0): Fraction(3, 2), (2, 0): 1, (0, 1): 1, (1, 1): Fraction(3, 2), (2, 1): 1}),
)


@st.composite
def projective_bundles(draw):
    ring, todd = draw(st.sampled_from(BASES))
    x, y = ring.gen("x"), ring.gen("y")
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    # a fractional omega stabilizes, but its character need not be integral
    u, v = (draw(st.fractions(-3, 3, max_denominator=3)) for _ in "uv")
    q, k, s = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from((1, -1)))
    mu = draw(st.integers(-6, 6))
    classes = {"chern0": x * a + y * b, "chern1": x * -a + y * -b, "omega0": x * u + y * v,
               "omega1": x * (u + s * k * a) + y * (v + s * k * b)}
    # random nilpotent classes in place of some: data that need not stabilize
    for key in draw(st.sets(st.sampled_from(sorted(classes)), max_size=2)):
        classes[key] = draw(ring_classes(ring, nilpotent=True))
    todd = CohomologyClass(ring, todd)
    return ProblemInstance(GroupKind.U1, [
        FixedComponent("zero", ring, mu, [q], [classes["chern0"]], classes["omega0"], todd),
        FixedComponent("infinity", ring, mu + s * k * q, [-q], [classes["chern1"]],
                       classes["omega1"], todd),
    ], "bundle")


@settings(max_examples=80, deadline=None)
@given(p=projective_bundles())
def test_columns_match_the_reference_on_drawn_bundles(p):
    got = _assert_same_as_reference(p)
    _assert_same_as_reference(p, 2 * automatic_degree_bound(p))
    flipped = _assert_same_as_reference(reversed_action(p))
    if isinstance(got, CharacterPolynomial):
        assert flipped == {-m: c for m, c in got.coefficients.items()}


def test_columns_name_the_same_non_integral_coefficient():
    # points whose integral is 1/2: every coefficient of the halved character
    # is a candidate, and the one named depends on the order of the components
    half = RingPresentation((), (), 0, {(): Fraction(1, 2)})
    for name in ("cp2-k", "so3-s2xs2", "cp1xcp1"):
        comps = [
            FixedComponent(f.name, half, f.moment, f.weights,
                           [half.zero() for _ in f.weights], half.zero(), half.one())
            for f in catalog(name).components
        ]
        for order in permutations(comps):
            p = ProblemInstance(GroupKind.U1, order)
            got = _assert_same_as_reference(p)
            assert got[0] is StabilizationError and "not an integer" in got[1], name


# -- long strides ---------------------------------------------------------------
# The running sum goes over m residue classes, so weights up to 12 reach
# strides the catalog does not.  Spheres, projective planes and 3-spaces, and
# planes with a fixed line, some of them perturbed into data that need not
# close up; the top and bottom points of a plane or 3-space carry two or
# three normal directions of one sign, as does the apex of a fixed line.

P1 = RingPresentation.projective_line()


def line_component(name, moment, weights, chern_multiples, omega, ring=P1):
    x = ring.gen("x")
    return FixedComponent(name, ring, moment, weights, [x * n for n in chern_multiples],
                          x * omega, ring.one() + x)


@st.composite
def long_stride_instances(draw):
    kind = draw(st.sampled_from(("sphere", "space", "fixed-line")))
    if kind == "sphere":
        q, lo = draw(st.integers(1, 12)), draw(st.integers(-30, 30))
        comps = [point_component("north", lo + q * draw(st.integers(0, 4)), [q]),
                 point_component("south", lo, [-q])]
    elif kind == "space":  # P^2 or P^3: differences of coordinate weights up to 12
        ws = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=4, unique=True))
        k, shift = draw(st.integers(1, 3)), draw(st.integers(-8, 8))
        comps = [point_component(f"e{j}", shift - k * w, [v - w for v in ws if v != w])
                 for j, w in enumerate(ws)]
    else:
        q, mu_p, area = draw(st.integers(1, 12)), draw(st.integers(-12, 12)), draw(st.integers(1, 4))
        comps = [line_component("line", mu_p + q * area, [q], [1], area),
                 point_component("apex", mu_p, [-q, -q])]
    # perturb one component: a moment, a weight or omega off by a little
    tweak = draw(st.sampled_from((None, "moment", "weight", "omega")))
    if tweak is not None:
        i = draw(st.integers(0, len(comps) - 1))
        f = comps[i]
        moment, weights, omega = f.moment, list(f.weights), f.omega
        if tweak == "moment":
            moment += draw(st.sampled_from((-2, -1, 1, 2)))
        elif tweak == "weight":
            j = draw(st.integers(0, len(weights) - 1))
            weights[j] = draw(st.integers(-12, 12).filter(bool))
        elif f.ring is P1:  # a point keeps its zero omega
            omega = omega + P1.gen("x") * draw(st.fractions(-2, 2, max_denominator=3))
        comps[i] = FixedComponent(f.name, f.ring, moment, weights, f.normal_chern, omega, f.todd)
    return ProblemInstance(GroupKind.U1, comps, f"{kind}-{tweak}")


@settings(max_examples=150, deadline=None)
@given(p=long_stride_instances())
def test_columns_match_the_reference_on_long_strides(p):
    for q in (p, reversed_action(p)):
        _assert_same_as_reference(q)
        _assert_same_as_reference(q, 2 * automatic_degree_bound(q))


def _bundle(base, a, b, q, k, mu):
    # the projective bundle of the drawn-bundle test above, with s = 1 and
    # omega = 0 on the zero section
    ring, todd = base
    x, y = ring.gen("x"), ring.gen("y")
    todd = CohomologyClass(ring, todd)
    return ProblemInstance(GroupKind.U1, [
        FixedComponent("zero", ring, mu, [q], [x * a + y * b], ring.zero(), todd),
        FixedComponent("infinity", ring, mu + k * q, [-q], [x * -a + y * -b],
                       x * (k * a) + y * (k * b), todd),
    ], f"bundle({a},{b},q={q},k={k})")


HALF = RingPresentation((), (), 0, {(): Fraction(1, 2)})
DOUBLE_LINE = RingPresentation(("x",), (2,), 2, {(1,): 2})


def half_point(name, moment, weights, ring=HALF):
    return FixedComponent(name, ring, moment, weights, [ring.zero() for _ in weights],
                          ring.zero(), ring.one())


# Each unit shortcut (a scale L, an integral weight, a component's factor
# over the common denominator, the common denominator itself) is met both
# at 1 and away from it, with strides m > 1, on a certified character and on
# each kind of failure.
UNIT_CASES = {
    # L = 2 (c = x + y, c^2 = 2xy) and L = 6 (c^3 = 3x^2 y), over common
    # denominators 2 and 12; a fixed line has L = 1 and a common denominator 1
    "scale-2": (_bundle(BASES[0], 1, 1, 4, 2, 3), {7: -4}),
    "scale-6": (_bundle(BASES[1], 1, 1, 5, 2, 3), {8: -6}),
    "fixed-line-q5": (ProblemInstance(GroupKind.U1, [
        line_component("line", 17, [5], [1], 3), point_component("apex", 2, [-5, -5])]),
        {2: 1, 7: 2, 12: 3, 17: 4}),
    # an integral weight of 2 on the line, over a common denominator of 1
    "weight-2": (ProblemInstance(GroupKind.U1, [
        line_component("line", 17, [5], [1], 3, DOUBLE_LINE),
        point_component("apex", 2, [-5, -5])]), None),
    # the tail fails with m = 3 over a common denominator of 1 and with m = 5
    # over 2
    "open-stride-3": (ProblemInstance(GroupKind.U1, [
        point_component("north", 4, [3]), point_component("south", -4, [-3])]),
        "does not stabilize"),
    "open-stride-5": (ProblemInstance(GroupKind.U1, [
        line_component("line", 17, [5], [1], Fraction(5, 2)),
        point_component("apex", 2, [-5, -5])]), "does not stabilize"),
    # halved points: every coefficient is 1/2 over a common denominator of 2,
    # and one component over 1 next to one over 2
    "half-stride-5": (ProblemInstance(GroupKind.U1, [
        half_point("north", 7, [5]), half_point("south", -3, [-5])]), "not an integer"),
    "mixed-denominators": (ProblemInstance(GroupKind.U1, [
        point_component("north", 7, [5]), half_point("south", -3, [-5])]), None),
}


@pytest.mark.parametrize("name", sorted(UNIT_CASES))
def test_unit_shortcuts_both_ways(name):
    p, expected = UNIT_CASES[name]
    for q in (p, reversed_action(p)):
        got = _assert_same_as_reference(q)
        _assert_same_as_reference(q, 2 * automatic_degree_bound(q))
        if isinstance(expected, dict):
            assert got == (expected if q is p else {-m: c for m, c in expected.items()})
        elif expected is not None:
            assert got[0] is StabilizationError and expected in got[1], got


def _oracle_inputs(p):
    # every class numerator, integral table and cached product table the
    # oracle reads, copied
    return [([dict(c.num) for c in (f.omega, f.todd, *f.normal_chern)], f.ring.integral_num,
             dict(_monomials(f.ring.orders)[0]), _monomials(f.ring.orders)[1])
            for f in p.components]


def test_the_columns_leave_their_inputs_alone():
    # the unit shortcuts share lists instead of copying them; no input may
    # change under the oracle
    instances = [INSTANCES[name]() for name in sorted(INSTANCES)]
    instances += [tensor_power(p, 7) for p in instances] + [p for p, _ in UNIT_CASES.values()]
    for p in instances:
        before = _oracle_inputs(p)
        first = _outcome(p)
        _outcome(reversed_action(p))
        assert _outcome(p) == first, p.name
        assert _oracle_inputs(p) == before, p.name


# -- long windows ----------------------------------------------------------------
# Twice the high-power benchmark's windows, where both the oracle's columns and
# the kernel at zero and at infinity run longest.

LONG_WINDOWS = [
    catalog("cp2-k", 128),
    *(tensor_power(catalog(name), 128) for name in ("cp2-line", "cp2-line-double", "cp1xcp1")),
    tensor_power(catalog("so3-s2xs2"), 64),
]


@pytest.mark.parametrize("p", LONG_WINDOWS, ids=lambda p: p.name)
def test_long_windows_match_both_references(p):
    weyl = WeylFactor(p.group).poly
    for q in (p, reversed_action(p)):
        assert isinstance(_assert_same_as_reference(q), CharacterPolynomial), q.name
        for f in q.components:
            numerator, denominator = component_form(f, weyl)
            zero, _, infinity, _ = residue_row(numerator, denominator)
            assert zero == expansion(numerator, denominator, 1, 0, 0)[0], (q.name, f.name)
            assert infinity == -expansion(numerator, denominator, -1, 0, 0)[0], (q.name, f.name)
