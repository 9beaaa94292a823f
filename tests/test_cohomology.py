from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import (
    CohomologyClass,
    PresentationMismatch,
    RingPresentation,
    todd_coefficients,
)
from quantred.fixedpoint import _parse_class

from conftest import bernoulli_plus, cyclotomics, ring_classes, small_fractions

POINT = RingPresentation.point()
P1 = RingPresentation.projective_line()
P1XP1 = RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): 1})
P2ISH = RingPresentation(("x",), (3,), 4, {(2,): 1})  # Q[x]/x^3 with int x^2 = 1


def test_presentation_rejects_bad_integrals():
    with pytest.raises(ValueError):
        RingPresentation(("x",), (2,), 2, {(0,): 1})  # not top degree
    with pytest.raises(ValueError):
        RingPresentation(("x",), (2,), 2, {(2,): 1})  # exceeds nilpotency
    with pytest.raises(ValueError):
        RingPresentation(("x",), (2,), 3, {})  # odd top degree


def test_point_presentation():
    assert POINT.rank == 0
    assert POINT.integrals == {(): Fraction(1)}
    assert POINT.constant(5).integrate() == 5


# -- ring multiplication --------------------------------------------------

def test_nilpotency_truncates():
    x = P1.gen("x")
    assert (x * x).is_zero()


def test_one_is_identity():
    a = P1.one() + P1.gen("x") * 3
    assert P1.one() * a == a


def test_polynomial_arithmetic_mod_x_cubed():
    x = P2ISH.gen("x")
    assert (1 + x) * (1 - x) == 1 - x * x


def test_commutative_and_associative_spot():
    x, y = P1XP1.gen("x"), P1XP1.gen("y")
    a, b, c = 1 + x, 2 + y, x + y
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_presentation_mismatch_raises():
    with pytest.raises(PresentationMismatch):
        P1.gen("x") * P1XP1.gen("x")


def test_monomials_at_a_nilpotency_order_are_zero():
    # x in Q[x]/(x), and x^2 in Q[x]/(x^2), are zero in the ring
    q_mod_x = RingPresentation(("x",), (1,), 0, {(0,): 1})
    for zero_class in (q_mod_x.gen("x"), CohomologyClass(P1, {(2,): 1})):
        assert zero_class.is_zero()
        assert zero_class == zero_class.presentation.zero()
        assert hash(zero_class) == hash(zero_class.presentation.zero())
    assert CohomologyClass(P1, {(0,): 3, (1,): 2, (3,): 5}) == 3 + P1.gen("x") * 2


# -- exponential -----------------------------------------------------------

def test_exp_of_zero():
    assert P1.zero().exp() == P1.one()


def test_exp_on_p1():
    x = P1.gen("x")
    assert x.exp() == 1 + x


def test_exp_on_product():
    x, y = P1XP1.gen("x"), P1XP1.gen("y")
    assert (x + y).exp() == 1 + x + y + x * y


def test_exp_needs_nilpotent():
    with pytest.raises(ValueError):
        P1.one().exp()


@settings(max_examples=40)
@given(st.data())
def test_exp_is_multiplicative(data):
    pres = data.draw(st.sampled_from([P1, P1XP1, P2ISH]))
    a = data.draw(ring_classes(pres, nilpotent=True))
    b = data.draw(ring_classes(pres, nilpotent=True))
    assert (a + b).exp() == a.exp() * b.exp()


# -- todd series -------------------------------------------------------------

def test_todd_coefficients_match_bernoulli_oracle():
    # x/(1 - e^{-x}) = sum B+_n x^n / n!, B+ computed by the classical
    # recurrence, entirely independent of the package's power recurrence
    fact = 1
    for n, c in enumerate(todd_coefficients(40)):
        if n:
            fact *= n
        assert c == bernoulli_plus(n) / fact, n


def test_todd_known_prefix():
    assert todd_coefficients(6) == [
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
        Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
    ]


def test_todd_of_zero():
    assert POINT.zero().todd_factor() == POINT.one()


def test_todd_on_p1():
    x = P1.gen("x")
    assert x.todd_factor() == 1 + x * Fraction(1, 2)


def test_todd_to_second_order():
    x = P2ISH.gen("x")
    assert x.todd_factor() == 1 + x * Fraction(1, 2) + x * x * Fraction(1, 12)


def test_todd_needs_nilpotent():
    with pytest.raises(ValueError):
        (P1.one() + P1.gen("x")).todd_factor()


@settings(max_examples=40)
@given(st.data())
def test_todd_times_inverse_factor_is_one(data):
    pres = data.draw(st.sampled_from([P1, P1XP1, P2ISH]))
    a = data.draw(ring_classes(pres, nilpotent=True))
    # (1 - e^{-a}) / a = sum_n (-a)^n / (n+1)!, a finite sum since a is nilpotent
    inverse = sum(
        ((-a) ** n * Fraction(1, factorial(n + 1)) for n in range(pres.nilpotency_bound + 1)),
        pres.zero(),
    )
    assert a.todd_factor() * inverse == pres.one()


# -- integration -------------------------------------------------------------

def test_integrate_on_point():
    assert POINT.constant(5).integrate() == 5


def test_integrate_degree_selection_on_p1():
    x = P1.gen("x")
    assert (3 + x * 7).integrate() == 7


def test_integrate_top_term_on_product():
    x, y = P1XP1.gen("x"), P1XP1.gen("y")
    assert ((1 + x) * (1 + y)).integrate() == 1


@settings(max_examples=40)
@given(st.data())
def test_integrate_bilinear(data):
    pres = data.draw(st.sampled_from([P1, P1XP1]))
    a = data.draw(ring_classes(pres))
    b = data.draw(ring_classes(pres))
    c = data.draw(ring_classes(pres))
    s = data.draw(st.integers(min_value=-3, max_value=3))
    lhs = ((a + b * s) * c).integrate()
    assert lhs == (a * c).integrate() + s * (b * c).integrate()


# -- class inversion (used by series reciprocals) ------------------------------

@settings(max_examples=40)
@given(st.data())
def test_class_inverse(data):
    pres = data.draw(st.sampled_from([P1, P1XP1, P2ISH]))
    a = data.draw(ring_classes(pres, nilpotent=True))
    u = pres.one() + a  # unit
    assert u * u.inverse() == pres.one()
    assert u ** -2 == u.inverse() * u.inverse() and u ** -2 * u ** 2 == pres.one()


def test_inverse_of_nilpotent_constant_raises():
    with pytest.raises(ZeroDivisionError):
        P1.gen("x").inverse()
    with pytest.raises(ZeroDivisionError):
        P1.gen("x") ** -1


def test_negative_powers_are_powers_of_the_inverse():
    x = P1.gen("x")
    assert (1 + x) ** -1 == (1 + x).inverse() == 1 - x
    assert (1 + x) ** -3 == 1 - 3 * x
    assert (2 + x) ** 0 == P1.one()


# -- the class kernel against a naive reference ---------------------------------
# The reference adds exponent vectors and drops any that reach a nilpotency
# order, one pair of terms at a time.

def _ref_clean(coeffs):
    return {e: v for e, v in coeffs.items() if v}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + sign * v
    return _ref_clean(out)


def _ref_mul(orders, a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x < m for x, m in zip(e, orders)):
                out[e] = out.get(e, 0) + v1 * v2
    return _ref_clean(out)


def _ref_power_sum(pres, a, coefficients):
    # sum_n coefficients[n] * a^n, each power by the reference product
    unit = (0,) * pres.rank
    out, power = {}, {unit: Fraction(1)}
    for c in coefficients:
        out = _ref_add(out, {e: v * c for e, v in power.items()})
        power = _ref_mul(pres.orders, power, a)
    return out


def _assert_clean(cls):
    for expo, value in cls.coeffs.items():
        assert type(expo) is tuple and len(expo) == cls.presentation.rank, expo
        assert all(type(e) is int for e in expo), expo
        assert type(value) is Fraction and value, (expo, value)


@st.composite
def _rings(draw):
    orders = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=3))
    top = tuple(m - 1 for m in orders)
    names = [f"x{i}" for i in range(len(orders))]
    return RingPresentation(names, orders, 2 * sum(top), {top: 1})


_scalars = st.one_of(small_fractions, st.integers(-3, 3))


def _classes(pres, scalars, nilpotent=False):
    monos = [e for e in pres.monomials() if not (nilpotent and not any(e))]
    if not monos:
        return st.just(pres.zero())
    return st.dictionaries(st.sampled_from(monos), scalars, max_size=5).map(
        lambda coeffs: CohomologyClass(pres, coeffs)
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_class_kernel_matches_naive_reference(data):
    pres = data.draw(_rings())
    a = data.draw(_classes(pres, _scalars))
    b = data.draw(_classes(pres, _scalars))
    n = data.draw(_classes(pres, _scalars, nilpotent=True))
    s = data.draw(_scalars)
    for cls in (a, b, n):
        _assert_clean(cls)
    orders = pres.orders
    cases = [
        (a * b, _ref_mul(orders, a.coeffs, b.coeffs)),
        (a + b, _ref_add(a.coeffs, b.coeffs)),
        (a - b, _ref_add(a.coeffs, b.coeffs, -1)),
        (a - a, {}),
        (-a, _ref_add({}, a.coeffs, -1)),
        (a * s, _ref_clean({e: v * s for e, v in a.coeffs.items()})),
        (s * a, _ref_clean({e: v * s for e, v in a.coeffs.items()})),
        (a + s, _ref_add(a.coeffs, {(0,) * pres.rank: s})),
        # the lowest-degree terms of n cancel inside the product
        ((1 + n) * (1 - n), _ref_add({(0,) * pres.rank: 1}, _ref_mul(orders, n.coeffs, n.coeffs), -1)),
    ]
    bound = pres.nilpotency_bound
    exp_coefficients = [Fraction(1, factorial(k)) for k in range(bound + 1)]
    cases.append((n.exp(), _ref_power_sum(pres, n.coeffs, exp_coefficients)))
    todd = [bernoulli_plus(k) / factorial(k) for k in range(bound + 1)]
    cases.append((n.todd_factor(), _ref_power_sum(pres, n.coeffs, todd)))
    if s:
        unit = pres.constant(s) + n
        inverse = unit.inverse()
        cases.append((inverse, inverse.coeffs))
        assert _ref_mul(orders, unit.coeffs, inverse.coeffs) == {(0,) * pres.rank: 1}
    for got, want in cases:
        _assert_clean(got)
        assert got.coeffs == want


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cyclotomic_operands_raise_type_error(data):
    # the class ring is rational: a cyclotomic scalar is refused everywhere
    pres = data.draw(_rings())
    a = data.draw(_classes(pres, _scalars))
    z = data.draw(cyclotomics(data.draw(st.sampled_from([3, 4, 5]))).filter(bool))
    operations = [
        lambda: a + z, lambda: z + a, lambda: a - z, lambda: z - a,
        lambda: a * z, lambda: z * a, lambda: a / z,
        lambda: pres.constant(z), lambda: CohomologyClass(pres, {(0,) * pres.rank: z}),
        lambda: RingPresentation(pres.generators, pres.orders, pres.top_degree,
                                 {e: z for e in pres.integrals}),
    ]
    for operation in operations:
        with pytest.raises(TypeError):
            operation()


def _assert_lowest_terms(cls):
    # the integer layout: den > 0, no zero numerator, gcd(den, *num) = 1,
    # every exponent below the nilpotency orders
    assert type(cls.den) is int and cls.den > 0, cls.den
    assert all(type(v) is int and v for v in cls.num.values()), cls.num
    assert gcd(cls.den, *cls.num.values()) == 1, (cls.num, cls.den)
    orders = cls.presentation.orders
    assert all(all(e < m for e, m in zip(expo, orders)) for expo in cls.num), cls.num


def _parsed(pres, coeffs):
    # the class as the schema reads it: every coefficient a rational string
    keys = {e: "*".join(f"{g}^{k}" for g, k in zip(pres.generators, e) if k) or "1"
            for e in coeffs}
    return _parse_class({keys[e]: str(v) for e, v in coeffs.items()}, pres, "c")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_way_of_building_a_class_keeps_lowest_terms(data):
    pres = data.draw(_rings())
    monos = list(pres.monomials())
    # some integer and some Fraction coefficients, a few of them zero
    coeffs = data.draw(st.dictionaries(st.sampled_from(monos), _scalars, max_size=5))
    a = CohomologyClass(pres, coeffs)
    fractions = {e: Fraction(v) for e, v in coeffs.items()}
    # over -60, a multiple of every denominator drawn, with a monomial that
    # is zero in the ring
    numerators = {e: -v.numerator * (60 // v.denominator) for e, v in fractions.items()}
    if pres.rank:
        numerators[pres.orders] = 7
    built = [
        a,
        _parsed(pres, coeffs),
        CohomologyClass(pres, fractions),
        CohomologyClass.from_integers(pres, numerators, -60),
    ]
    for cls in built:
        assert cls == a and hash(cls) == hash(a)
        assert cls.coeffs == {e: v for e, v in fractions.items() if v}
    b = data.draw(_classes(pres, _scalars))
    n = data.draw(_classes(pres, _scalars, nilpotent=True))
    s = data.draw(_scalars)
    built += [a + b, a - b, a - a, -a, a * b, a * s, s * a, a + s, s - a, a ** 2,
              n.exp(), n.todd_factor(), n.nilpotent_part(), pres.constant(s),
              pres.zero(), pres.one()]
    if s:
        built += [a / s, (pres.constant(s) + n).inverse()]
    for cls in built:
        _assert_lowest_terms(cls)
        # equal values give equal classes with equal hashes, whichever way
        # they were built
        again = CohomologyClass(pres, cls.coeffs)
        assert again == cls and hash(again) == hash(cls)
        assert (again.num, again.den) == (cls.num, cls.den)


def test_integral_table_is_integers_over_one_denominator():
    pres = RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): Fraction(-4, 6)})
    assert (pres.integral_num, pres.integral_den) == ((((1, 1), -2),), 3)
    assert pres.integrals == {(1, 1): Fraction(-2, 3)}
    cls = CohomologyClass(pres, {(1, 1): Fraction(3, 4), (0, 0): 5})
    assert cls.integral_parts() == (-6, 12)
    assert cls.integrate() == Fraction(-1, 2)


def test_equal_presentations_survive_the_product_cache():
    p, q = (RingPresentation(("x", "y"), (3, 2), 6, {(2, 1): 1}) for _ in range(2))
    assert p is not q and p == q and hash(p) == hash(q)
    x, y = p.gen("x"), p.gen("y")
    square = (1 + x + y) * (1 + x + y) * (2 + x * y)
    assert p == q and hash(p) == hash(q)
    # classes built on either presentation combine, compare and hash alike
    u, v = q.gen("x"), q.gen("y")
    other = (1 + u + v) * (1 + u + v) * (2 + u * v)
    assert square == other and hash(square) == hash(other)
    assert (square - other).is_zero()
    # equal orders alone do not make presentations equal
    r = RingPresentation(("x", "y"), (3, 2), 6, {(2, 1): 2})
    assert r != p
    with pytest.raises(PresentationMismatch):
        r.gen("x") * x
