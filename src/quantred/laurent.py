"""Expansions on the Riemann sphere in three charts:

* ``t -> 0``    series in t itself, on the punctured disk inside the circle;
* ``t -> inf``  series in w = 1/t, outside the circle;
* ``t = zeta*e^u``  series in u around a root of unity zeta (zeta = 1 allowed).

The chart at a root of unity uses t = zeta*e^u so that dt/t = du: the
residue of f(t) dt/t at t = zeta is literally the u^{-1} coefficient, with
no stray factors of i.  At infinity, t = 1/w gives dt/t = -dw/w, so that
residue is minus the w^0 coefficient.  At zero it is the t^0 coefficient.

The residue engine expands one scalar rational function per fixed
component, N(t) / Q(t) with Q = prod_beta (1 - t**(-beta))**M and N a
Laurent polynomial over Q (built in :mod:`quantred.lefschetz`), kept as
integer coefficients over one common denominator.  At zero and at infinity
the expansion is a sign, a shift and one adding recurrence per factor, on
integers, with one division at the end.  At a root of unity one site record
per root and denominator shape (``_site``) holds the root as zeta_d**j with
d its order, the pole order P and integer weights W_i, i < P; the residue
sums a_r r**i W_i over the terms a_r t**r of N into one integer list at the
offset zeta**r shifts each to, divides once, and is the cell in its own
field Q(zeta_d).  The weights come from Q itself, expanded once per shape as
integer terms q_c t**c by the polynomial product that builds N: the Taylor
rows T_n of Q(zeta*e^u) / u**P are integer sums of q_c zeta**c c**(P+n), the
lead 1/T_0 has a closed form, and u**P / Q(zeta*e^u) is one reciprocal.

:class:`RingSeries`, a window of a Laurent expansion with cohomology-class
coefficients, is on no verify path; its product and division are the
textbook ones (division is plain long division by the inverted lead).
Class scalars are rational, so it serves the charts whose scalars are:
0, infinity, t = 1 and t = -1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .cohomology import CohomologyClass, RingPresentation
from .exactnum import Cyclotomic, fraction_sum

_ZERO = Fraction(0)


class TruncationError(ArithmeticError):
    """A coefficient beyond the series' truncation order was requested."""


class ChartMismatch(ValueError):
    """Series from different charts (or presentations) were combined."""


class Chart(namedtuple("Chart", "kind conductor exponent", defaults=(1, 0))):
    """A pole site, and the local coordinate a series is expanded in there.

    ``kind`` is one of ``"zero"``, ``"inf"``, ``"root"``.  For ``"root"``,
    the expansion point is zeta_conductor**exponent (exponent 0 means t = 1,
    where all scalars stay rational).  ``conductor`` defaults to 1 and
    ``exponent`` to 0.
    """

    __slots__ = ()

    @classmethod
    def at_zero(cls) -> "Chart":
        return cls("zero")

    @classmethod
    def at_infinity(cls) -> "Chart":
        return cls("inf")

    @classmethod
    def at_root(cls, conductor: int, exponent: int) -> "Chart":
        if conductor < 1:
            raise ValueError("conductor must be positive")
        return cls("root", conductor, exponent % conductor)

    @classmethod
    def at_one(cls) -> "Chart":
        return cls("root", 1, 0)

    def is_wall_for(self, beta: int) -> bool:
        """Whether zeta**beta == 1, i.e. the factor with weight beta has a
        pole at this chart's base point."""
        if self.kind != "root":
            return False
        return (self.exponent * beta) % self.conductor == 0

    @property
    def variable(self) -> str:
        return {"zero": "t", "inf": "w", "root": "u"}[self.kind]


class RingSeries:
    """Finite window of a Laurent expansion: coefficients for exponents
    ``low .. order`` inclusive; anything above ``order`` is unknown, anything
    below ``low`` is exactly zero."""

    __slots__ = ("chart", "presentation", "low", "coeffs")

    def __init__(self, chart: Chart, presentation: RingPresentation, low: int, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series window must be nonempty")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "low", int(low))
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("series are immutable")

    @property
    def order(self) -> int:
        """Highest exponent whose coefficient is defined."""
        return self.low + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> CohomologyClass:
        if exponent > self.order:
            raise TruncationError(
                f"coefficient of {self.chart.variable}^{exponent} lies beyond "
                f"the truncation order {self.order}"
            )
        if exponent < self.low:
            return self.presentation.zero()
        return self.coeffs[exponent - self.low]

    def _check(self, other: "RingSeries"):
        if self.chart != other.chart:
            raise ChartMismatch("series expanded in different charts")
        if self.presentation != other.presentation:
            raise ChartMismatch("series over different ring presentations")

    def __add__(self, other: "RingSeries") -> "RingSeries":
        self._check(other)
        low = min(self.low, other.low)
        order = min(self.order, other.order)
        if order < low:
            raise TruncationError("sum has an empty window of validity")
        return RingSeries(
            self.chart,
            self.presentation,
            low,
            [self.coefficient(n) + other.coefficient(n) for n in range(low, order + 1)],
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic, CohomologyClass)):
            return RingSeries(
                self.chart, self.presentation, self.low,
                [c * other if c.num else c for c in self.coeffs],
            )
        self._check(other)
        low = self.low + other.low
        order = min(self.order + other.low, other.order + self.low)
        if order < low:
            raise TruncationError("product has an empty window of validity")
        out = [self.presentation.zero() for _ in range(order - low + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            e1 = self.low + i
            for j, b in enumerate(other.coeffs):
                e = e1 + other.low + j
                if e > order:
                    break
                if b.is_zero():
                    continue
                out[e - low] = out[e - low] + a * b
        return RingSeries(self.chart, self.presentation, low, out)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "RingSeries":
        if order < self.low:
            raise TruncationError("cannot truncate below the lowest exponent")
        if order >= self.order:
            return self
        return RingSeries(
            self.chart, self.presentation, self.low,
            self.coeffs[: order - self.low + 1],
        )

    def __truediv__(self, other: "RingSeries") -> "RingSeries":
        """Quotient series by long division, defined when the divisor's
        leading (lowest) coefficient has an invertible constant term.  The
        window starts at ``self.low - other.low`` and is as long as the
        shorter of the two windows.

        At infinity, 1/(1 - w) = 1 + w + w^2 + ...:

        >>> pt = RingPresentation.point()
        >>> def series(*values):
        ...     return RingSeries(Chart.at_infinity(), pt, 0, [pt.constant(v) for v in values])
        >>> q = series(1, 0, 0, 0) / series(1, -1, 0, 0)
        >>> q.low, [q.coefficient(n) for n in range(4)]
        (0, [1, 1, 1, 1])
        """
        self._check(other)
        d = other.coeffs
        lead_inv = d[0].inverse()  # raises if the scalar part vanishes
        # q[n] = lead^{-1} (a[n] - sum_{k=1..n} d_k q[n-k])
        q = []
        for n in range(min(len(self.coeffs), len(d))):
            acc = self.coeffs[n]
            for k in range(1, n + 1):
                acc = acc - d[k] * q[n - k]
            q.append(lead_inv * acc)
        return RingSeries(self.chart, self.presentation, self.low - other.low, q)

    def reciprocal(self) -> "RingSeries":
        """Inverse series, defined when the leading (lowest) coefficient has
        an invertible constant term.  The window length is preserved."""
        pres = self.presentation
        one = [pres.one()] + [pres.zero()] * (len(self.coeffs) - 1)
        return RingSeries(self.chart, pres, 0, one) / self

    def __repr__(self):
        var = self.chart.variable
        parts = [
            f"({c!r})*{var}^{self.low + i}"
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        body = " + ".join(parts) if parts else "0"
        return f"<series {body} + O({var}^{self.order + 1})>"


# ---------------------------------------------------------------------------
# scalar expansions of N(t) / prod_beta (1 - t**(-beta))**M
# ---------------------------------------------------------------------------
#
# ``numerator`` is the pair ({exponent: int}, D) that ``component_form``
# returns: N as integers over a positive D.  ``denominator`` is a map
# {beta: M} of nonzero weights to positive multiplicities.


def outer_expansion(numerator, denominator, chart: Chart, low: int, high: int) -> list:
    """Coefficients of var**e, low <= e <= high, of N(t) / prod (1 - t**(-beta))**M
    expanded at zero (var = t) or at infinity (var = 1/t).

    With t**(-beta) = var**(-b), a factor with b > 0 is
    -var**(-b) (1 - var**b): it gives a sign and a shift, and every factor
    is then one over 1 - var**a with a > 0.  Dividing by that is the
    recurrence q[n] += q[n - a], which only adds integers; the common
    denominator of N divides once at the end.

    At infinity, 1/(1 - 1/t) is the geometric series in w = 1/t:

    >>> outer_expansion(({0: 1}, 1), {1: 1}, Chart.at_infinity(), 0, 3)
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
    """
    if chart.kind not in ("zero", "inf"):
        raise ValueError("outer expansions are taken at zero or at infinity")
    sigma = 1 if chart.kind == "zero" else -1
    negate, shift, steps = False, 0, []
    for beta, m in denominator.items():
        b = sigma * beta
        if b > 0:
            negate ^= m % 2 == 1
            shift += b * m
        steps += [abs(b)] * m
    terms, scale = numerator
    terms = {sigma * r: a for r, a in terms.items()}
    out = [_ZERO] * (high - low + 1)
    if not terms:
        return out
    # the var-exponents lo .. top of N(var) / prod (1 - var**a) that land
    # in the window after the shift
    lo, top = min(terms), high - shift
    if top < lo:
        return out
    q = [0] * (top - lo + 1)
    for e, a in terms.items():
        if e <= top:
            q[e - lo] = a
    for a in steps:
        for i in range(a, len(q)):
            q[i] += q[i - a]
    if negate:
        scale = -scale
    for e in range(max(low, lo + shift), high + 1):
        v = q[e - shift - lo]
        if v:
            out[e - low] = Fraction(v, scale)
    return out


@lru_cache(maxsize=None)
def _binomial_terms(beta: int, k: int, top: int) -> tuple:
    # s**k (1 - s)**(top - k) with s = t**(-beta), as (t-exponent, integer) pairs
    return tuple((-beta * (k + i), (-1) ** i * comb(top - k, i)) for i in range(top - k + 1))


def _times(poly: dict, terms) -> dict:
    # the Laurent polynomial {t-exponent: integer} times the (exponent, integer) terms
    out: dict = {}
    for r, a in poly.items():
        for e, c in terms:
            out[r + e] = out.get(r + e, 0) + a * c
    return out


@lru_cache(maxsize=None)
def _denominator_terms(shape: tuple) -> tuple:
    # Q = prod (1 - t**(-beta))**M as (t-exponent, nonzero integer) pairs,
    # one expansion per shape for every root chart
    poly = {0: 1}
    for beta, m in shape:
        poly = _times(poly, _binomial_terms(beta, 0, m))
    return tuple([(c, q) for c, q in poly.items() if q])


# what a root chart decides for a denominator shape (sorted (beta, M) pairs):
# zeta_n**k as zeta_d**j, the pole order P (M summed over the walls) and
# weights[i], the u**(P-1-i) coefficient of u**P / Q(zeta e^u) over i!, as 1
# or phi(d) integers over ``common``
Site = namedtuple("Site", "order exponent pole weights common")


@lru_cache(maxsize=None)
def _site(chart: Chart, shape: tuple) -> Site:
    g = gcd(chart.conductor, chart.exponent)
    d, j = chart.conductor // g, chart.exponent // g
    walls = [(beta, m) for beta, m in shape if chart.is_wall_for(beta)]
    pole = sum(m for _, m in walls)
    if not pole:
        return Site(d, j, 0, (), 1)
    # every value is kept as integers at the powers zeta**0 .. zeta**(d-1); it
    # is rational when d <= 2 or every factor is a wall (zeta**c = 1 at every
    # exponent c of Q), and then it is the integers at zeta**0 minus those at
    # zeta**1, the one other root
    rational = d <= 2 or len(walls) == len(shape)
    # T_n, the u**(P+n) coefficient of Q(zeta e^u) = sum_c q_c zeta**c e^(cu),
    # is sum_c q_c zeta**c c**(P+n) / (P+n)!, for 0 < n < P
    rows = [[0] * max(d, 2) for _ in range(1, pole)]
    if rows:
        for c, q in _denominator_terms(shape):
            q *= c ** (pole + 1)
            k = j * c % d
            for row in rows:
                row[k] += q
                q *= c
    taylor = [None] + [Fraction(row[0] - row[1], factorial(pole + n)) if rational
                       else Cyclotomic.from_integers(d, row, factorial(pole + n))
                       for n, row in enumerate(rows, 1)]
    # 1/T_0 is beta**(-M) per wall and (1 - z)**(-M) per factor off the walls,
    # z = zeta**(-beta) of order e, with 1/(1 - z) = -(1/e) sum_{i<e} i z**i
    num, den = 1, prod(beta ** m for beta, m in walls)
    for beta, m in shape:
        if k := -j * beta % d:
            e = d // gcd(d, k)
            w = [0] * max(d, 2)
            for i in range(1, e):
                w[i * k % d] -= i
            w = w[0] - w[1] if rational else Cyclotomic.from_integers(d, w)
            for _ in range(m):
                num, den = num * w, den * e
    lead = Fraction(num, den) if rational else num * Fraction(1, den)
    # u**P / Q(zeta e^u) = sum_n r_n u**n, the reciprocal of sum_n T_n u**n:
    # r_0 = 1/T_0 and r_n = -r_0 sum_{k=1..n} T_k r_{n-k}, a rational sum
    # added on integers over the lcm of its denominators
    total = fraction_sum if rational else sum
    series, minus = [lead], -lead
    for n in range(1, pole):
        terms = [taylor[k] * series[n - k] for k in range(1, n + 1)]
        series.append(minus * (total(terms) if n > 1 else terms[0]))
    parts = [(c.num, c.den * factorial(i)) if isinstance(c, Cyclotomic)
             else ((c.numerator,), c.denominator * factorial(i))
             for i, c in enumerate(reversed(series))]
    common = lcm(*(den for _, den in parts))
    weights = tuple(tuple(x * (common // den) for x in num) for num, den in parts)
    return Site(d, j, pole, weights, common)


def form_residue(numerator, denominator, chart: Chart):
    """Residue of N(t) / prod (1 - t**(-beta))**M * dt/t at the chart's point.

    * zero: the t**0 coefficient of the expansion;
    * infinity: dt/t = -dw/w, so minus the w**0 coefficient;
    * t = zeta*e^u: dt/t = du, and the residue is the u**(P-1) coefficient
      of N(zeta*e^u) times u**P / Q(zeta*e^u).  With
      N = sum_r a_r t**r / D and zeta = zeta_d**j that is
      sum_r sum_{i<P} a_r r**i zeta_d**(jr) W_i / D (P and W_i from
      ``_site``), summed on integers and divided once.

    A ``Fraction`` at zero and infinity; at a root of order d the cell in
    Q(zeta_d), a ``Fraction`` for d <= 2, else a ``Cyclotomic`` of conductor
    d, zero included.  At t = i, 1/(1 - t**(-4)) has residue 1/4, times i
    from t**1; t = -1 taken as zeta_4**2 is rational:

    >>> form_residue(({1: 1}, 1), {1: 1}, Chart.at_one())
    Fraction(1, 1)
    >>> str(form_residue(({1: 1}, 1), {4: 1}, Chart.at_root(4, 1)))
    '1/4*z'
    >>> form_residue(({0: 1}, 1), {2: 1}, Chart.at_root(4, 2))
    Fraction(1, 2)
    """
    if chart.kind == "zero":
        return outer_expansion(numerator, denominator, chart, 0, 0)[0]
    if chart.kind == "inf":
        return -outer_expansion(numerator, denominator, chart, 0, 0)[0]
    d, j, _, weights, common = _site(chart, tuple(sorted(denominator.items())))
    terms, scale = numerator
    acc = [0] * (2 * d)
    for r, a in terms.items():
        shift = j * r % d
        for w in weights:
            for i, x in enumerate(w, shift):
                acc[i] += a * x
            a *= r
    if d <= 2:  # one integer weight each: zeta_2 = -1, and acc[1] = 0 at d = 1
        return Fraction(acc[0] - acc[1], scale * common)
    return Cyclotomic.from_integers(d, acc, scale * common)
