import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    phi_degree,
)
from quantred.exactnum import _power_table

from conftest import cyclotomics, mobius, root_order, small_fractions, zeta

FIELDS = [1, 2, 3, 4, 6, 8, 12]


# -- cyclotomic polynomials ---------------------------------------------------

def test_phi_1_and_4_classical():
    assert cyclotomic_polynomial(1) == (-1, 1)  # z - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # z^2 + 1


def test_phi_12_by_exact_division_oracle():
    # independent oracle: the product of Phi_d over all d | 12 is z^12 - 1
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    product = [1]
    for d in (1, 2, 3, 4, 6, 12):
        product = poly_mul(product, list(cyclotomic_polynomial(d)))
    assert product == [-1] + [0] * 11 + [1]
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # z^4 - z^2 + 1


def test_phi_products_over_divisors_at_large_conductors():
    # sympy-free check of the radical construction at conductors with many
    # primes: the product of Phi_d over all d | N is z^N - 1, and Phi_N has
    # degree phi(N)
    def sparse_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        return out

    for n in (1092, 2244, 2310):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = sparse_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1], n
        assert len(cyclotomic_polynomial(n)) - 1 == phi_degree(n), n


def test_phi_degree_is_totient():
    totients = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 12: 4}
    for n, t in totients.items():
        assert phi_degree(n) == t


def test_phi_degree_is_the_degree_of_phi_n():
    # phi_degree counts by trial division; the polynomial is built apart
    for n in range(1, 201):
        assert phi_degree(n) == len(cyclotomic_polynomial(n)) - 1, n


def test_conductor_must_be_positive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        phi_degree(0)
    with pytest.raises(ValueError):
        Cyclotomic.from_integers(-3, [0, 1])


# -- roots of unity -----------------------------------------------------------

def test_zeta_2_is_minus_one():
    assert zeta(2, 1) == -1


def test_zeta_4_squares_to_minus_one():
    i = zeta(4, 1)
    assert i * i == -1


def test_zeta_6_plus_inverse_is_one():
    assert zeta(6, 1) + zeta(6, 5) == 1


def test_power_and_identity_laws():
    for n in FIELDS:
        for k in range(n):
            z = zeta(n, k)
            assert z**n == 1
        assert zeta(n, 0) == 1


def test_root_order():
    assert root_order(12, 4) == 3
    assert root_order(12, 6) == 2
    assert root_order(12, 1) == 12
    assert root_order(4, 0) == 1
    # the reference is the least power of zeta_n**k that is 1
    for n in FIELDS:
        for k in range(n):
            z = zeta(n, k)
            assert next(d for d in range(1, n + 1) if z**d == 1) == root_order(n, k), (n, k)


# -- inversion ----------------------------------------------------------------

def test_invert_trivial_units():
    one = zeta(4, 0)
    assert one.inverse() == 1
    assert (-one).inverse() == -1


def test_invert_one_minus_zeta3():
    # (1 - zeta_3)^(-1) = (2 + zeta_3)/3, since (1 - z)(2 + z) = 2 - z - z^2 = 3
    z = zeta(3, 1)
    x = 1 - z
    inv = x.inverse()
    assert x * inv == 1
    assert inv == (2 + z) / 3


@pytest.mark.parametrize("n", [84, 120, 180, 420])
def test_inverse_of_one_minus_zeta_past_the_sympy_fields(n):
    # sum_{c<N} c z^c = N / (z - 1) for z^N = 1, z != 1, so
    # (1 - zeta_N)^(-1) = -(1/N) sum_{c<N} c zeta_N^c
    closed = Cyclotomic.from_integers(n, [-c for c in range(n)], n)
    assert (1 - zeta(n, 1)).inverse() == closed


def test_dense_inverse_at_conductor_420():
    rng = random.Random(420)
    x = Cyclotomic(420, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(phi_degree(420))])
    assert x * x.inverse() == 1


def test_invert_zero_raises():
    zero = zeta(4, 0) - 1
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


# -- rational part ------------------------------------------------------------

def test_rational_part_of_one():
    one = zeta(8, 0)
    assert one.rational_part() == 1 and type(one.rational_part()) is Fraction
    assert Cyclotomic.from_rational(8, Fraction(7, 3)).rational_part() == Fraction(7, 3)


def test_primitive_cube_roots_sum_to_minus_one():
    z = zeta(3, 1)
    assert (z + z * z).rational_part() == -1


def test_zeta_5_is_irrational():
    with pytest.raises(NotRationalError):
        zeta(5, 1).rational_part()


# -- field axioms (property) --------------------------------------------------

@settings(max_examples=40)
@given(st.data())
def test_field_axioms(data):
    n = data.draw(st.sampled_from(FIELDS))
    a = data.draw(cyclotomics(n))
    b = data.draw(cyclotomics(n))
    c = data.draw(cyclotomics(n))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40)
@given(st.data())
def test_embedding_commutes_with_arithmetic(data):
    m, n = data.draw(st.sampled_from([(1, 4), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12), (3, 12)]))
    a = data.draw(cyclotomics(m))
    b = data.draw(cyclotomics(m))
    assert (a + b).promoted(n) == a.promoted(n) + b.promoted(n)
    assert (a * b).promoted(n) == a.promoted(n) * b.promoted(n)
    assert hash(a.promoted(n)) == hash(a)
    if not a.is_zero():
        assert a.inverse().promoted(n) == a.promoted(n).inverse()


def _assert_canonical(x):
    # phi(N) integer numerators over a positive denominator, in lowest
    # terms, with zero stored over 1
    assert type(x) is Cyclotomic
    assert len(x.num) == phi_degree(x.conductor)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


@settings(max_examples=60)
@given(st.data())
def test_every_result_is_in_canonical_form(data):
    m, n = data.draw(st.sampled_from([(1, 4), (3, 12), (4, 12), (5, 20), (7, 84), (12, 84)]))
    a = data.draw(cyclotomics(m))
    b = data.draw(cyclotomics(m))
    q = data.draw(small_fractions)
    j = data.draw(st.sampled_from([j for j in range(1, m + 1) if gcd(j, m) == 1]))
    results = [a + b, a - b, -a, a * b, a + q, q - a, a * q, a.galois(j), a.promoted(n),
               Cyclotomic.from_rational(m, q), a - a, a * 0]
    if not a.is_zero():
        results += [a.inverse(), b / a]
    for x in results:
        _assert_canonical(x)
    # the form is unique, so == compares the integers: a value reached two
    # ways has the same numerators and denominator
    for x, y in ((a + b - b, a), ((a + q) - q, a), (a * b + a, a * (b + 1)),
                 (Cyclotomic(m, a.coeffs), a), (a - a, Cyclotomic.from_rational(m, 0))):
        assert x == y and (x.num, x.den) == (y.num, y.den)
    assert (a == b) == ((a.num, a.den) == (b.num, b.den))
    if not a.is_zero():
        assert ((a * b) / a).num == b.num and ((a * b) / a).den == b.den
    # hash: the same in every field that holds the value, and a rational
    # value hashes like its Fraction
    assert hash(a.promoted(n)) == hash(a)
    r = (a + q) - a
    assert r.is_rational() and hash(r) == hash(q) == hash(r.promoted(n))
    assert hash(Cyclotomic.from_rational(n, q)) == hash(q)


def test_hash_agrees_with_equality():
    # i in Q(zeta_4) and zeta_8^2 in Q(zeta_8) are equal, so a set holds one
    assert zeta(4, 1) == zeta(8, 2)
    assert len({zeta(4, 1), zeta(8, 2)}) == 1
    assert len({zeta(3, 1), zeta(12, 4), zeta(6, 2)}) == 1
    # a rational value hashes like its Fraction, in any field
    for n in FIELDS:
        for value in (Fraction(0), Fraction(1), Fraction(-7, 3)):
            x = Cyclotomic.from_rational(n, value)
            assert hash(x) == hash(value)
            assert len({x, value}) == 1


def test_mixed_conductor_arithmetic():
    i = zeta(4, 1)
    w = zeta(3, 1)
    z12 = zeta(12, 7)  # zeta_4 * zeta_3 = zeta_12^(3+4)
    assert i * w == z12


def test_mobius_sums():
    # sum over k coprime to n of zeta_n^k equals mu(n)
    for n in range(1, 13):
        total = sum(
            (zeta(n, k) for k in range(1, n + 1) if gcd(k, n) == 1),
            Fraction(0),
        )
        assert total.rational_part() == mobius(n), n


# -- numeric shadow (independent cross-check) ---------------------------------

@settings(max_examples=25)
@given(st.data())
def test_numeric_embedding(data):
    n = data.draw(st.sampled_from(FIELDS))
    a = data.draw(cyclotomics(n))
    b = data.draw(cyclotomics(n))
    lhs = complex(a * b + a)
    rhs = complex(a) * complex(b) + complex(a)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_numeric_value_of_roots():
    for n in FIELDS:
        for k in range(n):
            approx = complex(zeta(n, k))
            exact = cmath.exp(2j * cmath.pi * k / n)
            assert abs(approx - exact) < 1e-12


# -- galois action ------------------------------------------------------------

def test_galois_permutes_roots():
    z = zeta(12, 1)
    assert z.galois(5) == zeta(12, 5)
    assert z.galois(7) == zeta(12, 7)
    with pytest.raises(ValueError):
        z.galois(2)


def test_galois_fixes_rationals():
    x = Cyclotomic.from_rational(12, Fraction(7, 5))
    assert x.galois(5) == Fraction(7, 5)


@settings(max_examples=40)
@given(st.data())
def test_galois_commutes_with_embedding(data):
    # sigma_j on Q(zeta_d) followed by the embedding is sigma_a on Q(zeta_N)
    # for every lift a = j (mod d) coprime to N: the identity that lets a
    # residue computed at zeta_d fill its whole orbit in Q(zeta_N)
    d, n = data.draw(st.sampled_from([(3, 12), (4, 12), (5, 20), (7, 84), (12, 84), (7, 140)]))
    x = data.draw(cyclotomics(d))
    j = data.draw(st.sampled_from([j for j in range(1, d) if gcd(j, d) == 1]))
    lifts = [a for a in range(1, n) if a % d == j and gcd(a, n) == 1]
    assert lifts
    for a in lifts:
        assert x.galois(j).promoted(n) == x.promoted(n).galois(a), (d, n, j, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_is_the_sum_of_the_galois_conjugates(data):
    d = data.draw(st.integers(min_value=1, max_value=30))
    x = data.draw(cyclotomics(d))
    conjugates = [x.galois(a) for a in range(1, d + 1) if gcd(a, d) == 1]
    trace = x.trace()
    assert type(trace) is Fraction
    assert sum(conjugates[1:], conjugates[0]) == trace, (d, x)


def test_round_trip_to_rational():
    # an element with only a constant term round-trips to Fraction
    x = Cyclotomic(6, [Fraction(3, 2)])
    assert x.is_rational() and x.rational_part() == Fraction(3, 2)


def test_immutability():
    z = zeta(4, 1)
    with pytest.raises(AttributeError):
        z.conductor = 8


# -- independent cross-check against sympy (optional dependency) --------------
# sympy is not a dependency of quantred; these cases skip when it is missing.
# Each conductor N <= 60 gets seeded random elements, and every result is
# recomputed with sympy's cyclotomic_poly and polynomial rem/invert over QQ.
# N = 105 is added as the first conductor whose Phi_N (and power table) has
# a coefficient other than 0 and +-1.

SYMPY_CONDUCTORS = [*range(1, 61), 105]


def _random_element(rng, n, terms=None):
    # dense by default, or with a few small terms
    coeffs = [Fraction(0)] * phi_degree(n)
    for k in rng.sample(range(len(coeffs)), min(terms or len(coeffs), len(coeffs))):
        coeffs[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Cyclotomic(n, coeffs)


def _sympy_field(n):
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    return sp, z, sp.Poly(sp.cyclotomic_poly(n, z), z, domain=sp.QQ)


def _to_sympy(sp, z, terms):
    # the polynomial sum of c * z**k over the (k, c) pairs, unreduced
    poly = {}
    for k, c in terms:
        poly[(k,)] = poly.get((k,), 0) + sp.Rational(c.numerator, c.denominator)
    return sp.Poly.from_dict(poly, z, domain=sp.QQ)


def _from_sympy(poly, n):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    coeffs += [Fraction(0)] * (phi_degree(n) - len(coeffs))
    return tuple(coeffs[:phi_degree(n)])


def test_cyclotomic_polynomial_matches_sympy():
    for n in SYMPY_CONDUCTORS:
        sp, z, phi = _sympy_field(n)
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(phi.all_coeffs())), n


def test_power_table_rows_match_sympy():
    # row k of the table is z**k mod Phi_N as sparse integer pairs
    for n in SYMPY_CONDUCTORS:
        sp, z, phi = _sympy_field(n)
        rows = _power_table(n)
        assert len(rows) == n
        for k, row in enumerate(rows):
            expected = sp.Poly(z**k, z, domain=sp.QQ).rem(phi)
            assert dict(row) == {i: int(c) for (i,), c in expected.terms() if c}, (n, k)
            assert all(c for _, c in row) and all(type(c) is int for _, c in row)


def test_product_and_inverse_match_sympy():
    rng = random.Random(1)
    for n in SYMPY_CONDUCTORS:
        sp, z, phi = _sympy_field(n)
        a, b = _random_element(rng, n), _random_element(rng, n)
        pa, pb = _to_sympy(sp, z, enumerate(a.coeffs)), _to_sympy(sp, z, enumerate(b.coeffs))
        assert (a * b).coeffs == _from_sympy((pa * pb).rem(phi), n), n
        c = _random_element(rng, n, terms=3)
        if not c.is_zero():
            pc = _to_sympy(sp, z, enumerate(c.coeffs))
            assert c.inverse().coeffs == _from_sympy(pc.invert(phi), n), n
        # a dense inverse, checked by sympy's product: sympy's own inverse
        # of a dense element takes seconds at the larger N
        if not a.is_zero():
            inverse = _to_sympy(sp, z, enumerate(a.inverse().coeffs))
            assert (pa * inverse).rem(phi) == sp.Poly(1, z, domain=sp.QQ), n


def test_galois_matches_sympy():
    rng = random.Random(2)
    for n in SYMPY_CONDUCTORS:
        sp, z, phi = _sympy_field(n)
        a = _random_element(rng, n)
        units = [j for j in range(1, n + 1) if gcd(j, n) == 1]
        for j in rng.sample(units, min(3, len(units))):
            # z -> z**j, with exponents taken modulo N since zeta_N**N = 1
            image = _to_sympy(sp, z, ((k * j % n, c) for k, c in enumerate(a.coeffs)))
            assert a.galois(j).coeffs == _from_sympy(image.rem(phi), n), (n, j)


def test_promoted_matches_sympy():
    rng = random.Random(3)
    for m in SYMPY_CONDUCTORS:
        sp, z, phi_m = _sympy_field(m)
        for n in (n for n in range(1, m + 1) if m % n == 0):
            a = _random_element(rng, n)
            image = _to_sympy(sp, z, ((k * (m // n), c) for k, c in enumerate(a.coeffs)))
            assert a.promoted(m).coeffs == _from_sympy(image.rem(phi_m), m), (n, m)


# -- construction reduces any coefficient list ---------------------------------

@settings(max_examples=40)
@given(st.data())
def test_long_coefficient_lists_reduce_like_sums_of_roots(data):
    # Cyclotomic(N, cs) is sum_k cs[k] zeta_N^k for lists longer than
    # phi(N), than N and than 2N, where exponents wrap around modulo N
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 21]))
    length = data.draw(st.sampled_from(
        [phi_degree(n) + 1, phi_degree(n) + 3, n + 1, n + 2, 2 * n + 1, 3 * n - 1]))
    coeffs = data.draw(st.lists(small_fractions, min_size=length, max_size=length))
    expected = sum((zeta(n, k) * c for k, c in enumerate(coeffs)),
                   Cyclotomic.from_rational(n, 0))
    assert Cyclotomic(n, coeffs) == expected
    # every reduced coefficient is a Fraction, also for integer input
    for x in (Cyclotomic(n, coeffs), Cyclotomic(n, [1] * length), expected):
        assert all(type(c) is Fraction for c in x.coeffs)
