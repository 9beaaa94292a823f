from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import (
    PresentationMismatch,
    RingPresentation,
    exp_class,
    integrate,
    ring_mul,
    todd_coefficients,
    todd_series,
)

from conftest import bernoulli_plus, ring_classes

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
    assert ring_mul(x, x).is_zero()


def test_one_is_identity():
    a = P1.one() + P1.gen("x") * 3
    assert ring_mul(P1.one(), a) == a


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
        ring_mul(P1.gen("x"), P1XP1.gen("x"))


# -- exponential -----------------------------------------------------------

def test_exp_of_zero():
    assert exp_class(P1.zero()) == P1.one()


def test_exp_on_p1():
    x = P1.gen("x")
    assert exp_class(x) == 1 + x


def test_exp_on_product():
    x, y = P1XP1.gen("x"), P1XP1.gen("y")
    assert exp_class(x + y) == 1 + x + y + x * y


def test_exp_needs_nilpotent():
    with pytest.raises(ValueError):
        exp_class(P1.one())


@settings(max_examples=40)
@given(st.data())
def test_exp_is_multiplicative(data):
    pres = data.draw(st.sampled_from([P1, P1XP1, P2ISH]))
    a = data.draw(ring_classes(pres, nilpotent=True))
    b = data.draw(ring_classes(pres, nilpotent=True))
    assert exp_class(a + b) == exp_class(a) * exp_class(b)


# -- todd series -------------------------------------------------------------

def test_todd_coefficients_match_bernoulli_oracle():
    # x/(1 - e^{-x}) = sum B+_n x^n / n!, B+ computed by the classical
    # recurrence, entirely independent of the package's series division
    fact = 1
    for n, c in enumerate(todd_coefficients(10)):
        if n:
            fact *= n
        assert c == bernoulli_plus(n) / fact, n


def test_todd_known_prefix():
    assert todd_coefficients(6) == [
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
        Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
    ]


def test_todd_of_zero():
    assert todd_series(POINT.zero()) == POINT.one()


def test_todd_on_p1():
    x = P1.gen("x")
    assert todd_series(x) == 1 + x * Fraction(1, 2)


def test_todd_to_second_order():
    x = P2ISH.gen("x")
    assert todd_series(x) == 1 + x * Fraction(1, 2) + x * x * Fraction(1, 12)


def test_todd_needs_nilpotent():
    with pytest.raises(ValueError):
        todd_series(P1.one() + P1.gen("x"))


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
    assert integrate(POINT.constant(5)) == 5


def test_integrate_degree_selection_on_p1():
    x = P1.gen("x")
    assert integrate(3 + x * 7) == 7


def test_integrate_top_term_on_product():
    x, y = P1XP1.gen("x"), P1XP1.gen("y")
    assert integrate((1 + x) * (1 + y)) == 1


@settings(max_examples=40)
@given(st.data())
def test_integrate_bilinear(data):
    pres = data.draw(st.sampled_from([P1, P1XP1]))
    a = data.draw(ring_classes(pres))
    b = data.draw(ring_classes(pres))
    c = data.draw(ring_classes(pres))
    s = data.draw(st.integers(min_value=-3, max_value=3))
    lhs = integrate(ring_mul(a + b * s, c))
    assert lhs == integrate(a * c) + s * integrate(b * c)


# -- class inversion (used by series reciprocals) ------------------------------

@settings(max_examples=40)
@given(st.data())
def test_class_inverse(data):
    pres = data.draw(st.sampled_from([P1, P1XP1, P2ISH]))
    a = data.draw(ring_classes(pres, nilpotent=True))
    u = pres.one() + a  # unit
    assert u * u.inverse() == pres.one()


def test_inverse_of_nilpotent_constant_raises():
    with pytest.raises(ZeroDivisionError):
        P1.gen("x").inverse()
