import cmath
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import (
    Chart,
    ChartMismatch,
    Cyclotomic,
    FixedComponent,
    GroupKind,
    ProblemInstance,
    RingPresentation,
    RingSeries,
    TruncationError,
    component_form,
    phi_degree,
    residue_row,
    root_of_unity,
    root_order,
    todd_coefficients,
    verify_quantization,
)
from quantred import laurent
from quantred.laurent import Recurrence, _constant_term, _denominator_terms, _plan, _site

from conftest import (expansion, reference_site, residue_at, ring_classes, small_fractions,
                      wall_roots, window_expansion)

POINT = RingPresentation.point()
P1 = RingPresentation.projective_line()
# c^2, c^3 != 0: walled factors with pole depth up to 4, so the Taylor terms
# in c with k >= 2 are exercised
DEEP_RINGS = [
    RingPresentation(("x",), (4,), 6, {(3,): 1}),
    RingPresentation(("x", "y"), (2, 3), 6, {(1, 2): 1}),
]

ROOT_CHARTS = [
    Chart.at_one(),
    Chart.at_root(4, 1),
    Chart.at_root(4, 2),
    Chart.at_root(12, 4),
    Chart.at_root(12, 3),
]
CHARTS = [Chart.at_zero(), Chart.at_infinity(), *ROOT_CHARTS]
# the charts whose scalars are rational: 0, infinity, t = 1 and t = -1
RATIONAL_CHARTS = [Chart.at_zero(), Chart.at_infinity(), Chart.at_one(), Chart.at_root(4, 2)]
WEIGHTS = [-3, -2, -1, 1, 2, 3]


def is_wall(chart, beta):
    """Whether zeta**beta == 1 at a root chart: the factor of weight beta
    has a pole at its base point."""
    return chart.kind == "root" and chart.exponent * beta % chart.conductor == 0


def denominator_series(beta, c, chart, order):
    """1 - t**(-beta) e^{-c} written in the chart as a class-valued series:
    the divisors of the long-division tests."""
    pres = c.presentation
    exp_neg_c = (-c).exp()
    if chart.kind in ("zero", "inf"):
        m = (-1 if chart.kind == "zero" else 1) * beta
        low = min(0, m)
        coeffs = [pres.zero() for _ in range(max(0, m) - low + 1)]
        coeffs[0 - low] = coeffs[0 - low] + pres.one()
        coeffs[m - low] = coeffs[m - low] - exp_neg_c
        return RingSeries(chart, pres, low, coeffs + [pres.zero()] * order)
    # classes take rational scalars only: zeta**(-beta) must be +-1
    k = chart.exponent * -beta % chart.conductor
    if k and 2 * k != chart.conductor:
        raise ValueError(f"zeta^{-beta} is not rational at {chart}")
    z = -1 if k else 1
    coeffs = []
    for n in range(order + 1):
        cls = exp_neg_c * (z * Fraction((-beta) ** n, factorial(n)))
        coeffs.append((pres.one() - cls) if n == 0 else -cls)
    return RingSeries(chart, pres, 0, coeffs)


def scalar_denominator(beta, chart, length):
    """Taylor coefficients of (1 - zeta**(-beta) e^{-beta u}) / u**w at
    t = zeta*e^u, w = 1 at a wall and 0 elsewhere: written out from the
    exponential series, independently of the site records."""
    k = chart.exponent * -beta % chart.conductor
    z = root_of_unity(chart.conductor, k) if k else Fraction(1)
    d = [1 - z] + [-z * Fraction((-beta) ** i, factorial(i)) for i in range(1, length + 1)]
    return d[1:] if is_wall(chart, beta) else d[:length]


def truncated(a, b, length):
    """The first ``length`` Taylor coefficients of the product of two series."""
    return [_reference_dot(a, b, i) for i in range(length)]


def _reference_dot(a, b, i):
    # sum_j a[j] b[i-j], without a rational 0 + Cyclotomic promotion
    acc = None
    for j in range(i + 1):
        x, y = a[j], b[i - j]
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return Fraction(0) if acc is None else acc


def pole_order(denominator, chart):
    return sum(m for beta, m in denominator.items() if is_wall(chart, beta))


def denominator_product(denominator, chart, length):
    """Q(zeta*e^u) / u**P to u**(length-1), the product of every factor's
    ``scalar_denominator``."""
    q = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for beta, m in denominator.items():
        for _ in range(m):
            q = truncated(q, scalar_denominator(beta, chart, length), length)
    return q


def site_of(d, denominator):
    """The site record of zeta_d for a denominator {beta: M}, as _plan
    builds it."""
    shape = tuple(sorted(denominator.items()))
    return _site(d, shape, _denominator_terms(shape))


def site_series(chart, denominator):
    """u**P / Q(zeta*e^u) to u**(P-1), read back off the site record of
    zeta_d, d the order of the chart's root zeta_d**j: the u**n coefficient
    at zeta_d is (P-1-n)! W_(P-1-n) / common, in Q(zeta_d), and its image
    under galois(j) is the one at zeta_d**j."""
    d = root_order(chart.conductor, chart.exponent)
    j = chart.exponent * d // chart.conductor
    site = site_of(d, denominator)
    out = [Fraction(w[0] * factorial(i), site.common) if len(w) == 1
           else (Cyclotomic.from_integers(d, w, site.common) * factorial(i)).galois(j)
           for i, w in enumerate(site.weights)]
    return out[::-1]


def point_with_weight(beta, c, moment=0):
    pres = c.presentation
    return FixedComponent("f", pres, moment, [beta], [c], pres.zero(), pres.one())


def scalar_series(chart, low, values, order=None):
    coeffs = [POINT.constant(v) for v in values]
    if order is not None:
        coeffs += [POINT.zero()] * (order - (low + len(coeffs) - 1))
    return RingSeries(chart, POINT, low, coeffs)


# -- expansion examples -------------------------------------------------------

def test_geometric_series_at_infinity():
    s = expansion(({0: 1}, 1), {1: 1}, -1, 0, 5)
    assert s == [1] * 6  # 1 + w + w^2 + ...
    assert all(type(v) is Fraction for v in s)
    # both outer charts, both signs, with a normal Chern class: with
    # var^e = t^(-beta) (e = beta at infinity, -beta at zero) the factor is
    # sum_n e^{-nc} var^(n e) for e > 0 and -sum_{n >= 1} e^{nc} var^(n m)
    # for e = -m < 0; the closed form of the component's rational function
    # must integrate to the same coefficients
    deep = DEEP_RINGS[1]
    classes = [POINT.zero(), P1.gen("x"), -3 * P1.gen("x"), deep.gen("x") + 2 * deep.gen("y")]
    order = 13
    for c in classes:
        for sigma in (-1, 1):
            for beta in (-3, -1, 1, 2):
                e = -sigma * beta
                if e > 0:
                    expected = {n * e: (-n * c).exp() for n in range(order // e + 1)}
                else:
                    expected = {-n * e: -(n * c).exp() for n in range(1, order // -e + 1)}
                form = component_form(point_with_weight(beta, c))
                s = expansion(*form, sigma, -2, order)
                for n in range(-2, order + 1):
                    want = expected[n].integrate() if n in expected else 0
                    assert s[n + 2] == want, (sigma, beta, c, n)


def test_todd_type_pole_at_one():
    # 1/(1 - e^{-u}) = u^{-1} (1 + u/2 + u^2/12 - u^4/720 + ...); a pole of
    # order 5 at t = 1 holds five terms of the fifth power of that series
    todd = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720)]
    power = todd
    for _ in range(4):
        power = truncated(power, todd, 5)
    s = site_series(Chart.at_one(), {1: 5})
    assert s == power
    assert all(type(v) is Fraction for v in s)
    assert site_series(Chart.at_one(), {1: 1}) == [1]
    # its residue, and the u^0 coefficient as the residue of t/(1 - 1/t)
    assert residue_row(({0: 1}, 1), {1: 1})[1] == {(1, 0): 1}
    assert residue_row(({1: 1}, 1), {1: 2})[1] == {(1, 0): 2}  # e^u (1 + u/2)^2 / u^2


def test_double_weight_pole_at_minus_one():
    # t = -e^u, beta = 2: 1/(1 - e^{-2u}) = (2u)^{-1} (1 + u + u^2/3 + ...),
    # and its cube (1/8) (1 + 3u + 4u^2 + ...)
    s = site_series(Chart.at_root(4, 2), {2: 3})
    assert s == [Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)]
    assert site_series(Chart.at_root(2, 1), {2: 3}) == s  # the same root
    # the cell at -1 is rational
    r = residue_row(({0: 1}, 1), {2: 1})[1][2, 1]
    assert r == Fraction(1, 2) and type(r) is Fraction


def test_regular_factor_leading_coefficient():
    # at a non-wall root the factor is regular with value (1 - zeta^{-beta})^{-1};
    # beside a wall of weight 4 at t = i the lead is 1/4 times its M-th power
    chart = Chart.at_root(4, 1)
    i = root_of_unity(4, 1)
    regular = (1 - i.inverse()).inverse()
    assert site_series(chart, {4: 1, 1: 1})[0] == regular * Fraction(1, 4)
    assert site_series(chart, {4: 1, 1: 2})[0] == regular * regular * Fraction(1, 4)
    # no pole there: the row has no cell at t = i, only the one at t = 1
    assert residue_row(({0: 1}, 1), {1: 3})[1].keys() == {(1, 0)}


def long_division_reciprocal(d, length):
    """1 / (d_0 + d_1 u + ...), the first ``length`` Taylor coefficients,
    by long division: inv_i = -(sum_{j=1..i} d_j inv_{i-j}) / d_0."""
    inv = [1 / d[0]]
    for i in range(1, length):
        inv.append(-sum((d[j] * inv[i - j] for j in range(1, i + 1)), Fraction(0)) * inv[0])
    return inv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_regular_factor_series_matches_long_division(data):
    # at zeta = zeta_n**j a factor of weight beta is regular with
    # z = zeta**(-beta) = zeta_n**k != 1; beside a wall of weight n and
    # multiplicity `wall`, the site record must hold the reciprocal of the
    # product of scalar_denominator by long division
    n = data.draw(st.integers(2, 30))
    k = data.draw(st.integers(1, n - 1))
    beta = data.draw(st.sampled_from([b for b in range(-7, 8) if b]))
    # the roots zeta = zeta_n**j with zeta**(-beta) = z
    exponents = [j for j in range(n) if -j * beta % n == k]
    if not exponents:
        beta, exponents = -1, [k]
    chart = Chart.at_root(n, data.draw(st.sampled_from(exponents)))
    m = data.draw(st.integers(1, 6))
    wall = data.draw(st.integers(1, 8))
    denominator = {beta: m, n: wall}
    order = pole_order(denominator, chart)
    assert order == wall
    reciprocal = long_division_reciprocal(denominator_product(denominator, chart, order), order)
    assert site_series(chart, denominator) == reciprocal, (n, k, beta, m, wall)


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        component_form(point_with_weight(0, POINT.zero()))


# -- windows -------------------------------------------------------------------

def test_coefficient_beyond_the_window_raises():
    s = scalar_series(Chart.at_one(), -3, [1])  # only u^-3 known
    assert s.coefficient(-4).is_zero()
    with pytest.raises(TruncationError):
        s.coefficient(-2)


# -- products -------------------------------------------------------------------

def test_product_cancels_poles():
    u_inv = scalar_series(Chart.at_one(), -1, [1], order=2)
    u = scalar_series(Chart.at_one(), 1, [1], order=4)
    prod = u_inv * u
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0


def test_product_of_polynomials():
    chart = Chart.at_infinity()
    a = scalar_series(chart, 0, [1, 1], order=3)   # 1 + w
    b = scalar_series(chart, 0, [1, -1], order=3)  # 1 - w
    prod = a * b
    assert [prod.coefficient(n) for n in range(3)] == [1, 0, -1]


def test_square_of_half_pole():
    chart = Chart.at_one()
    s = scalar_series(chart, -1, [1, Fraction(1, 2)], order=3)
    sq = s * s
    assert sq.low == -2
    assert sq.coefficient(-2) == 1
    assert sq.coefficient(-1) == 1
    assert sq.coefficient(0) == Fraction(1, 4)


def test_chart_mismatch():
    a = scalar_series(Chart.at_zero(), 0, [1])
    b = scalar_series(Chart.at_infinity(), 0, [1])
    with pytest.raises(ChartMismatch):
        a * b


# -- factor * denominator == 1 (every chart, with multiplicities) -------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factor_inverts_denominator(data):
    chart = data.draw(st.sampled_from(CHARTS))
    beta = data.draw(st.sampled_from(WEIGHTS))
    m = data.draw(st.integers(1, 3))
    length = 6
    if chart.kind == "root":
        # a wall of weight conductor * 12 and multiplicity `length` beside it,
        # so that the site record is `length` long
        denominator = {beta: m, 12 * chart.conductor: length}
        back = truncated(site_series(chart, denominator),
                         denominator_product(denominator, chart, length), length)
        assert back == [1] + [0] * (length - 1), (chart, beta, m)
        return
    # outer charts: (expansion of N / (1 - t^{-beta})^m) * (1 - t^{-beta})^m = N
    numerator = {r: data.draw(st.integers(-3, 3)) for r in range(-2, 3)}
    numerator = {r: a for r, a in numerator.items() if a}
    sign = 1 if chart.kind == "zero" else -1
    low, high = -40, 12
    series = dict(enumerate(expansion((numerator, 1), {beta: m}, sign, low, high), low))
    e = -sign * beta  # t^{-beta} = var^e
    for _ in range(m):  # times 1 - var^e
        series = {n: v - series[n - e] for n, v in series.items() if n - e in series}
    for n, v in series.items():
        assert v == numerator.get(sign * n, 0), (chart, beta, m, n)


# -- long division ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_division_inverts_multiplication(data):
    chart = data.draw(st.sampled_from(RATIONAL_CHARTS))
    pres = data.draw(st.sampled_from([P1, *DEEP_RINGS]))
    a = RingSeries(
        chart, pres, data.draw(st.integers(-3, 3)),
        data.draw(st.lists(ring_classes(pres), min_size=1, max_size=5)),
    )
    c = data.draw(ring_classes(pres, nilpotent=True))
    unit = pres.constant(data.draw(small_fractions.filter(bool))) + c
    divisors = [RingSeries(
        chart, pres, data.draw(st.integers(-3, 3)),
        [unit] + data.draw(st.lists(ring_classes(pres), max_size=4)),
    )]
    # denominators off a wall: lead 1, -e^{-c} (0-chart, beta > 0) or, at
    # t = -1 with beta odd, 1 + e^{-c}
    divisors += [
        denominator_series(beta, c, chart, data.draw(st.integers(0, 5)))
        for beta in (-3, -2, -1, 1, 2, 3) if not is_wall(chart, beta)
    ]
    for d in divisors:
        q = a / d
        assert q.low == a.low - d.low
        assert q.order == q.low + min(len(a.coeffs), len(d.coeffs)) - 1
        back = q * d
        assert (back.low, back.order) == (a.low, a.low + len(q.coeffs) - 1)
        for n in range(back.low, back.order + 1):
            assert back.coefficient(n) == a.coefficient(n), (chart, d, n)
    with pytest.raises(ZeroDivisionError):
        a / RingSeries(chart, pres, 0, [c, pres.one()])


# -- truncation monotonicity ------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_truncation_monotone(data):
    beta = data.draw(st.sampled_from(WEIGHTS))
    m = data.draw(st.integers(1, 3))
    hi = data.draw(st.integers(min_value=5, max_value=9))
    sigma = data.draw(st.sampled_from([1, -1]))  # at zero or at infinity
    numerator = ({data.draw(st.integers(-4, 4)): 1}, 1)
    wide = expansion(numerator, {beta: m}, sigma, -6, hi)
    assert expansion(numerator, {beta: m}, sigma, -2, 4) == wide[4:11]


# -- the one-coefficient kernel at zero and at infinity --------------------------

numerators = st.tuples(
    st.dictionaries(st.integers(-15, 15), st.integers(-9, 9).filter(bool), max_size=6),
    st.integers(1, 6),
)


@settings(max_examples=300, deadline=None)
@given(numerator=numerators, sign=st.sampled_from([1, -1]), negate=st.booleans(),
       shift=st.integers(-20, 20), steps=st.lists(st.integers(1, 7), max_size=4))
def test_constant_term_is_the_window_at_zero(numerator, sign, negate, shift, steps):
    # the kernel's var**0 coefficient against index 0 of the whole window
    # run by every adding recurrence, on drawn signs, shifts and steps (a
    # denominator shape gives a shift of at least 0 and its steps |beta|)
    recurrence = Recurrence(sign, negate, shift, tuple(steps))
    assert (_constant_term(numerator, recurrence)
            == window_expansion(numerator, recurrence, 0, 0)[0]), recurrence


@pytest.mark.parametrize("numerator, recurrence, value", [
    # an empty numerator
    (({}, 1), Recurrence(1, False, 0, (1, 2)), 0),
    # top < lo: every term of N lies above var**0
    (({5: 1, 7: 2}, 1), Recurrence(1, False, 0, (1,)), 0),
    (({-3: 1}, 1), Recurrence(-1, True, 4, (2, 2)), 0),
    # no step: the value is N's own var**0 coefficient, over D
    (({0: 3, 2: 1}, 2), Recurrence(1, False, 0, ()), Fraction(3, 2)),
    (({0: 3, -2: 1}, 2), Recurrence(-1, True, 0, ()), Fraction(-3, 2)),
    # a single step: 1 / (1 - t**3) carries t**-9 onto t**0 and t**-8 past it
    (({-9: 1, -8: 5}, 1), Recurrence(1, False, 0, (3,)), 1),
    # a repeated last step: t**-4 / (1 - t**2)**2 at t**0 is 3
    (({-4: 1}, 1), Recurrence(1, False, 0, (2, 2)), 3),
    # mixed steps: partitions of 6 into parts 1, 2 and 3 number 7
    (({-6: 1}, 3), Recurrence(1, False, 0, (1, 3, 2)), Fraction(7, 3)),
])
def test_constant_term_edge_cases(numerator, recurrence, value):
    assert _constant_term(numerator, recurrence) == value
    assert window_expansion(numerator, recurrence, 0, 0)[0] == value


def test_a_component_with_no_weights_reads_its_numerator():
    # no factor at all: both cells read N's t**0 coefficient (negated at
    # infinity, dt/t = -dw/w), and the one weightless point verifies
    zero, cells, infinity, total = residue_row(({0: 3, 1: 1}, 2), {})
    assert (zero, cells, infinity, total) == (Fraction(3, 2), {(1, 0): 0}, Fraction(-3, 2), 0)
    p = ProblemInstance(GroupKind.U1, [FixedComponent(
        "p", POINT, 1, [], [], POINT.zero(), POINT.one())])
    assert verify_quantization(p).verdict == "PASS"


# a few distinct weights up to 60 in size, each drawn again and again
repeated_weights = st.lists(st.integers(-60, 60).filter(bool), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=200, deadline=None)
@given(weights=repeated_weights, moment=st.integers(-3, 3))
def test_row_cells_are_the_wall_roots(weights, moment):
    # the engine lists the wall roots by order d and then by conjugate; the
    # reference reads them off each weight's own roots: the same pairs in
    # the same order, t = 1 first
    f = FixedComponent("f", POINT, moment, weights, [POINT.zero()] * len(weights),
                       POINT.zero(), POINT.one())
    assert tuple(residue_row(*component_form(f))[1]) == wall_roots(weights), weights


def assert_plan_sites_match_reference(shape):
    # every site of the plan, one per wall order d in increasing order,
    # equals the record the reference builds for it on its own
    orders = sorted({d for d, _ in wall_roots([beta for beta, _ in shape])})
    sites = [site for site, _, _ in _plan.__wrapped__(shape).orbits]
    assert sites == [reference_site(d, shape) for d in orders], shape


# distinct weights in +-40, multiplicities 1..3, at most 14 factors in all
shapes = st.dictionaries(st.integers(-40, 40).filter(bool), st.integers(1, 3), max_size=7).filter(
    lambda m: sum(m.values()) <= 14).map(lambda m: tuple(sorted(m.items())))


@settings(max_examples=150, deadline=None)
@given(shape=shapes)
def test_plan_sites_match_the_reference(shape):
    assert_plan_sites_match_reference(shape)


@pytest.mark.parametrize("n", range(1, 22, 2))
def test_plan_sites_match_the_reference_on_binary_forms(n):
    # the points of the binary n-ic under SU(2): n factors of weights
    # 2(j - i), many off each wall, and walls of every order up to 2n
    for i in range(n + 1):
        assert_plan_sites_match_reference(
            tuple(sorted((2 * (j - i), 1) for j in range(n + 1) if j != i)))


@pytest.mark.parametrize("shape,expanded", [
    ((), 0), (((3, 1),), 0), (((-30, 1),), 0),
    (((1, 2),), 1), (((-5, 1), (2, 1)), 1), (((-4, 1), (6, 3), (9, 1)), 1),
])
def test_a_plan_expands_q_once(monkeypatch, shape, expanded):
    # Q is expanded once for all the sites of a shape that read it, those of
    # pole order 2 or more, and not at all when every site has a simple pole
    calls = []
    real = laurent._denominator_terms
    monkeypatch.setattr(laurent, "_denominator_terms", lambda s: calls.append(s) or real(s))
    plan = _plan.__wrapped__(shape)
    assert (max(site.pole for site, _, _ in plan.orbits) > 1) == (expanded == 1)
    assert calls == [shape] * expanded


# -- numeric cross-check of scalar expansions -----------------------------------

@settings(max_examples=30, deadline=None)
@given(
    beta=st.sampled_from(WEIGHTS),
    m=st.integers(1, 3),
    which=st.sampled_from([(1, 0), (4, 1), (4, 2), (12, 4), (3, 1)]),
)
def test_root_chart_matches_complex_evaluation(beta, m, which):
    # u**P / Q(zeta e^u) to u**(P-1), beside a wall of weight 12 and
    # multiplicity 8, against the product of u / (1 - t**(-beta)) per wall
    # and 1 / (1 - t**(-beta)) per regular factor, at a small u
    conductor, exponent = which
    chart = Chart.at_root(conductor, exponent)
    denominator = {beta: m, 12: 8}
    s = site_series(chart, denominator)
    u = 0.002 + 0.0006j
    zeta = cmath.exp(2j * cmath.pi * exponent / conductor)
    t = zeta * cmath.exp(u)
    exact = 1.0
    for b, k in denominator.items():
        exact *= ((u if is_wall(chart, b) else 1.0) / (1.0 - t ** (-b))) ** k
    approx = sum(complex(c) * u ** n for n, c in enumerate(s))
    assert cmath.isclose(exact, approx, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(beta=st.sampled_from(WEIGHTS), m=st.integers(1, 2))
def test_outer_charts_match_complex_evaluation(beta, m):
    order = 40
    for sigma in (-1, 1):  # var = 1/t at infinity, t at zero
        s = expansion(({0: 1}, 1), {beta: m}, sigma, -order, order)
        var = 0.1 + 0.02j  # inside the disk of convergence
        t = var ** sigma
        exact = 1.0 / (1.0 - t ** (-beta)) ** m
        approx = sum(complex(c) * var**n for n, c in enumerate(s, -order))
        assert cmath.isclose(exact, approx, rel_tol=1e-8, abs_tol=1e-10)


def _contour_residue(numerator, denominator, center, radius, points=512):
    # (1 / 2 pi i) of the integral of f(t) dt/t on a circle, by the
    # trapezoid rule (spectrally accurate for a periodic integrand)
    total = 0j
    for j in range(points):
        t = center + radius * cmath.exp(2j * cmath.pi * j / points)
        f = sum(float(a) * t**r for r, a in numerator.items())
        for beta, m in denominator.items():
            f /= (1 - t ** (-beta)) ** m
        total += f * (t - center) / t
    return total / points


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_residues_match_contour_integrals(data):
    # every site, poles of order up to 6, against a numerical contour
    # integral: independent of the expansions above
    betas = data.draw(st.lists(st.sampled_from([-4, -2, -1, 1, 2, 3, 4]),
                               min_size=1, max_size=3, unique=True))
    denominator = {b: data.draw(st.integers(1, 2)) for b in betas}
    terms = {r: data.draw(st.integers(-3, 3)) for r in range(-3, 4)}
    terms = {r: a for r, a in terms.items() if a}
    scale = data.draw(st.integers(1, 3))
    sites = [(Chart.at_zero(), 0, 0.5), (Chart.at_infinity(), 0, 2.0)]
    sites += [(Chart.at_root(12, k), cmath.exp(2j * cmath.pi * k / 12), 0.1)
              for k in (0, 3, 4, 6)]
    for chart, center, radius in sites:
        exact = residue_at((terms, scale), denominator, chart)
        numeric = _contour_residue({r: Fraction(a, scale) for r, a in terms.items()},
                                   denominator, center, radius)
        if chart.kind == "inf":
            numeric = -numeric  # the circle |t| = 2 runs clockwise around infinity
        assert cmath.isclose(complex(exact), numeric, abs_tol=1e-7), (chart, exact, numeric)
        # zeta_12^k for k = 0, 3, 4, 6 has order 1, 4, 3, 2
        d = root_order(chart.conductor, chart.exponent) if chart.kind == "root" else 1
        if d <= 2:
            assert type(exact) is Fraction, chart
        else:
            assert type(exact) is Cyclotomic and exact.conductor == d, chart


# -- chart consistency on whole characters ---------------------------------------

def test_character_polynomial_residues_balance():
    # for a finite Laurent polynomial f, the form f dt/t has finite poles
    # only at 0, so res_inf must equal minus the residue there; checked on
    # the characters of catalog instances expanded in both charts
    from quantred import catalog, character_polynomial

    for name in ("cp1-k", "cp1-double", "cp2-k", "cp2-line"):
        c = character_polynomial(catalog(name))
        at_zero, cells, at_infinity, total = residue_row((dict(c.coefficients), 1), {})
        assert at_infinity == -at_zero and total == 0, name
        assert at_zero == c.coefficients.get(0, 0)
        assert cells.get((1, 0), 0) == 0  # no pole at t = 1


# -- reciprocal ---------------------------------------------------------------

def test_reciprocal_of_shifted_unit():
    chart = Chart.at_one()
    s = scalar_series(chart, 1, [2, 1, 1])  # 2u + u^2 + u^3
    r = s.reciprocal()
    assert r.low == -1
    prod = s * r
    for n in range(prod.low, prod.order + 1):
        assert prod.coefficient(n) == (1 if n == 0 else 0)


def test_reciprocal_needs_invertible_leading_term():
    x = P1.gen("x")
    s = RingSeries(Chart.at_one(), P1, 0, [x, P1.one()])
    with pytest.raises(ZeroDivisionError):
        s.reciprocal()


# -- division off a wall at a root of unity ----------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.data())
def test_dense_root_chart_division(data):
    # off a wall at a root of unity every term of 1 - zeta^{-beta} e^{-beta u - c}
    # is nonzero, and the lead is not 1: at t = -1 with beta odd, every term
    # of 1 + e^{-beta u - c}
    chart = Chart.at_root(2, 1)
    pres = data.draw(st.sampled_from([P1, *DEEP_RINGS]))
    beta = data.draw(st.sampled_from([-3, -1, 1, 3]))
    assert not is_wall(chart, beta)
    c = data.draw(ring_classes(pres, nilpotent=True))
    d = denominator_series(beta, c, chart, 6)
    assert all(not coeff.is_zero() for coeff in d.coeffs)
    assert d.coeffs[0] != pres.one()
    a = RingSeries(
        chart, pres, data.draw(st.integers(-2, 2)),
        data.draw(st.lists(ring_classes(pres), min_size=1, max_size=7)),
    )
    q = a / d
    assert q.low == a.low - d.low
    back = q * d
    assert (back.low, back.order) == (a.low, a.low + len(q.coeffs) - 1)
    for n in range(back.low, back.order + 1):
        assert back.coefficient(n) == a.coefficient(n), (d, n)


# -- the root residue against the two-stage reference ---------------------------
#
# residue_row reads the residue at a root off integer weight vectors W_i
# over one denominator.  The reference below is an exact test oracle built
# from this file's own series: the Taylor window of N(zeta*e^u) as one field
# element per coefficient, the reciprocal of the product of every
# scalar_denominator by long division, and one dot product of the two.

def _reference_taylor_at_root(terms, scale, chart, length):
    # the u**i coefficient of N(zeta*e^u) is sum_r a_r zeta**r r**i / (i! scale)
    n, k = chart.conductor, chart.exponent
    sums = {}
    for r, a in terms.items():
        row = sums.setdefault(k * r % n, [0] * length)
        for i in range(length):
            row[i] += a
            a *= r
    out = []
    for i in range(length):
        den = factorial(i) * scale
        if k == 0:
            out.append(Fraction(sums[0][i], den) if sums else Fraction(0))
            continue
        vector = [0] * n
        for c, row in sums.items():
            vector[c] = row[i]
        out.append(Cyclotomic.from_integers(n, vector, den))
    return out


def reference_root_residue(numerator, denominator, chart):
    """The residue of N(t) / prod (1 - t**(-beta))**M * dt/t at a root chart:
    the u**(P-1) coefficient of N(zeta*e^u) times u**P / Q(zeta*e^u)."""
    order = pole_order(denominator, chart)
    terms, scale = numerator
    if not order or not terms:
        return Fraction(0)
    reciprocal = long_division_reciprocal(denominator_product(denominator, chart, order), order)
    return _reference_dot(_reference_taylor_at_root(terms, scale, chart, order),
                          reciprocal, order - 1)


def _assert_matches_reference(numerator, denominator, chart):
    value = residue_at(numerator, denominator, chart)
    reference = reference_root_residue(numerator, denominator, chart)
    assert value == reference, (numerator, denominator, chart)
    # the cell in its own field Q(zeta_d), d the order of the chart's root,
    # zero and off-wall values included: a Fraction for d <= 2, else a
    # Cyclotomic of conductor d
    d = root_order(chart.conductor, chart.exponent)
    if d <= 2:
        assert type(value) is Fraction, (value, chart)
    else:
        assert type(value) is Cyclotomic and value.conductor == d, (value, chart)
    # the site record of zeta_d: the pole order, and integer weight vectors
    # over one positive integer, one per power r^i, i < P
    order = pole_order(denominator, chart)
    site = site_of(d, denominator)
    assert (site.order, site.pole) == (d, order)
    assert type(site.common) is int and site.common > 0
    assert len(site.weights) == order
    for w in site.weights:
        assert len(w) in (1, phi_degree(d))
        assert all(type(x) is int for x in w)


ALL_ROOT_CHARTS = [Chart.at_root(n, k) for n in range(1, 13) for k in range(n)]
WALL_WEIGHTS = [s * b for b in (1, 2, 3, 4, 6, 12) for s in (1, -1)]


def numerators(data):
    """A Laurent polynomial N as residue_row takes it: integer terms over a
    positive D."""
    exponents = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
    terms = {r: data.draw(st.integers(-9, 9).filter(bool)) for r in exponents}
    return terms, data.draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_root_residue_matches_the_two_stage_reference(data):
    chart = data.draw(st.sampled_from(ALL_ROOT_CHARTS))
    betas = data.draw(st.lists(st.sampled_from(WALL_WEIGHTS), min_size=1, max_size=3,
                               unique=True))
    denominator = {b: data.draw(st.integers(1, 4)) for b in betas}
    _assert_matches_reference(numerators(data), denominator, chart)


@pytest.mark.parametrize("n,k,denominator", [
    (4, 2, {2: 2, 4: 1}),            # t = -1 as zeta_4**2, every factor a wall
    (12, 4, {3: 2, -6: 1, 12: 1}),   # zeta_3 as zeta_12**4, every factor a wall
    (12, 4, {3: 3, 1: 2, -2: 1}),    # walls and regular factors in one product
    (4, 1, {4: 2, -1: 3, 2: 1}),     # walls and regular factors at t = i
    (12, 1, {12: 4, 1: 1, -4: 2}),   # a pole of order 4 in Q(zeta_12)
    (1, 0, {1: 4, -2: 3, 3: 2}),     # t = 1, pole order 9
])
def test_root_residue_reference_on_fixed_shapes(n, k, denominator):
    chart = Chart.at_root(n, k)
    # 3/2 t^-5 - 1/6 t + 2 t^4 is the second numerator
    for numerator in (({0: 1}, 1), ({-5: 9, 1: -1, 4: 12}, 6),
                      ({-3: 7, 0: -2, 2: 5}, 6), ({1: 1}, 1)):
        _assert_matches_reference(numerator, denominator, chart)


@pytest.mark.parametrize("beta", [1, -1, 2, -2, 3, -7, 45])
def test_wall_series_power_recurrence_matches_repeated_products(beta):
    # (u / (1 - e^{-beta u}))**m, the site of a single wall factor, at t = 1
    # and at a primitive |beta|-th root, against m - 1 truncated products of
    # the Todd series at weight beta
    base = [c * Fraction(beta) ** (i - 1) for i, c in enumerate(todd_coefficients(11))]
    power = base
    for m in range(1, 13):
        for chart in (Chart.at_one(), Chart.at_root(abs(beta), 1)):
            got = site_series(chart, {beta: m})
            assert got == power[:m], (beta, m, chart)
            assert all(type(c) is Fraction for c in got)
        power = truncated(power, base, 12)
