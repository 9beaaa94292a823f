"""Expansions on the Riemann sphere in three charts:

* ``t -> 0``    series in t itself, on the punctured disk inside the circle;
* ``t -> inf``  series in w = 1/t, outside the circle;
* ``t = zeta*e^u``  series in u around a root of unity zeta (zeta = 1 allowed).

The chart at a root of unity uses t = zeta*e^u so that dt/t = du: the
residue of f(t) dt/t at t = zeta is literally the u^{-1} coefficient, with
no stray factors of i.  At infinity, t = 1/w gives dt/t = -dw/w, so that
residue is minus the w^0 coefficient.  At zero it is the t^0 coefficient.

The residue engine expands one scalar rational function per fixed
component, N(t) / prod_beta (1 - t**(-beta))**M with N a Laurent polynomial
over Q (built in :mod:`quantred.lefschetz`), kept as integer coefficients
over one common denominator.  At zero and at infinity the expansion is a
sign, a shift and one adding recurrence per factor, on integers, with one
division at the end.  At a root of unity one site record per denominator
shape (``_site``) holds the root as zeta_d**j with d its order, the pole
order P and integer weights W_i, i < P; the residue sums a_r r**i W_i over
the terms a_r t**r of N into one integer list at the offset zeta**r shifts
each to, divides once, and is the cell in its own field Q(zeta_d).
Every pole factor's series comes from one kernel, the Todd power at a wall
(``_wall_series`` over :func:`quantred.cohomology.todd_power`); off a wall
it is that power at weight e*beta, e the order of zeta**(-beta), times an
integer root-of-unity sum.

:class:`RingSeries`, a window of a Laurent expansion with cohomology-class
coefficients, keeps its arithmetic but is no longer on the engine's path.
Class scalars are rational, so it serves the charts whose scalars are:
0, infinity, t = 1 and t = -1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm

from .cohomology import CohomologyClass, RingPresentation, todd_power
from .exactnum import Cyclotomic

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
        lead = other.coeffs[0]
        # a term equal to 1 is never multiplied by, and a lead equal to 1 is
        # not inverted: in the 0 and infinity charts every divisor is
        # 1 - w^m e^{-c}, with the 1 first or last
        lead_inv = None if lead.is_one() else lead.inverse()  # raises if the scalar part vanishes
        # q[n] = lead^{-1} (a[n] - sum_{k=1..n} d_k q[n-k]), over the nonzero
        # d_k and the nonzero q[n-k]: a two-term divisor leaves all but every
        # m-th quotient term zero, so most products would be by zero
        tail = [(k, None if d.is_one() else d)
                for k, d in enumerate(other.coeffs) if k and not d.is_zero()]
        q = []
        for n in range(min(len(self.coeffs), len(other.coeffs))):
            acc = self.coeffs[n]
            for k, d in tail:
                if k > n:
                    break
                prev = q[n - k]
                if prev.num:
                    acc = acc - (prev if d is None else d * prev)
            q.append(acc if lead_inv is None or not acc.num else lead_inv * acc)
        return RingSeries(self.chart, self.presentation, self.low - other.low, q)

    def reciprocal(self) -> "RingSeries":
        """Inverse series, defined when the leading (lowest) coefficient has
        an invertible constant term.  The window length is preserved."""
        one = series_constant(self.chart, self.presentation, self.presentation.one(),
                              len(self.coeffs) - 1)
        return one / self

    def __repr__(self):
        var = self.chart.variable
        parts = [
            f"({c!r})*{var}^{self.low + i}"
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        body = " + ".join(parts) if parts else "0"
        return f"<series {body} + O({var}^{self.order + 1})>"


def series_constant(chart, presentation, value: CohomologyClass, order: int) -> RingSeries:
    coeffs = [value] + [presentation.zero()] * order
    return RingSeries(chart, presentation, 0, coeffs)


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
def _wall_series(beta: int, m: int, length: int) -> tuple:
    # (u / (1 - e^{-beta u}))**m, cached per shape for every site record
    return todd_power(beta, m, length)


@lru_cache(maxsize=None)
def _regular_series(conductor: int, k: int, beta: int, m: int, length: int) -> tuple:
    # (1 - z e^{-beta u})**(-m), z = zeta_conductor**k != 1 of order e.  With
    # y = z e^{-beta u}, y**e = e^{-e beta u} and 1/(1 - y) = E / (1 - y**e),
    # E = 1 + y + .. + y**(e-1), so the series is _wall_series(e beta, m)
    # times E**m / u**m (E is 0 at u = 0).  E**m = sum_c n_c y**c, n_c the
    # coefficients of (1 + x + .. + x**(e-1))**m, has the u**(i+m)
    # coefficient T_i = sum_c n_c z**c (-c beta)**(i+m) / (i+m)!, kept as
    # integers at k c mod conductor; the u**j coefficient
    # sum_{i<=j} T_i W_{j-i} is summed over D (j+m)!, D the W's denominator
    e = conductor // gcd(conductor, k)
    n = [1]
    for _ in range(m):  # times 1 + x + .. + x**(e-1), by one running sum
        run = list(accumulate(n + [0] * (e - 1)))
        n = [s - run[i - e] if i >= e else s for i, s in enumerate(run)]
    tails = [[0] * conductor for _ in range(length)]
    for c, x in enumerate(n):
        x *= (-c * beta) ** m
        for row in tails:
            row[k * c % conductor] += x
            x *= -c * beta
    wall = _wall_series(e * beta, m, length)
    den = lcm(*(w.denominator for w in wall))
    wall = [w.numerator * (den // w.denominator) for w in wall]
    out = []
    for j in range(length):
        f = factorial(j + m)
        acc = [0] * conductor
        for i, row in enumerate(tails[:j + 1]):
            w = wall[j - i] * (f // factorial(i + m))
            acc = [a + w * v for a, v in zip(acc, row)]
        out.append(Cyclotomic.from_integers(conductor, acc, den * f))
    return tuple(out)


def factor_series(beta: int, m: int, chart: Chart, length: int) -> tuple:
    """Taylor coefficients u**0 .. u**(length-1) of one denominator factor
    at t = zeta*e^u: (1 - zeta**(-beta) e^{-beta u})**(-m), times u**m when
    zeta**beta = 1 (a wall: the factor has a pole of order m there).

    The series depends on the shape (conductor, zeta**(-beta), beta, m,
    length) alone, so one process-wide cache serves every component.  At a
    wall it is rational.  At t = 1, u / (1 - e^{-u}) is the Todd series:

    >>> [str(c) for c in factor_series(1, 1, Chart.at_one(), 5)]
    ['1', '1/2', '1/12', '0', '-1/720']
    """
    if beta == 0:
        raise ValueError("zero weight")
    if chart.kind != "root":
        raise ValueError("factor series are taken at a root of unity")
    k = -chart.exponent * beta % chart.conductor
    if k == 0:
        return _wall_series(beta, m, length)
    return _regular_series(chart.conductor, k, beta, m, length)


def truncated_product(a, b, length: int) -> list:
    """The first ``length`` Taylor coefficients of the product of two series."""
    out = []
    for i in range(length):
        # sum_j a[j] b[i-j], without a rational 0 + Cyclotomic promotion
        acc = None
        for j in range(i + 1):
            x, y = a[j], b[i - j]
            if x and y:
                acc = x * y if acc is None else acc + x * y
        out.append(_ZERO if acc is None else acc)
    return out


# what a root chart decides for a denominator shape (sorted (beta, M) pairs):
# zeta_n**k as zeta_d**j, the pole order P (M summed over the walls) and
# weights[i], the u**(P-1-i) coefficient of the factor_series' product over
# i!, as 1 or phi(d) integers over ``common``
Site = namedtuple("Site", "order exponent pole weights common")


@lru_cache(maxsize=None)
def _site(chart: Chart, shape: tuple) -> Site:
    g = gcd(chart.conductor, chart.exponent)
    local = Chart("root", chart.conductor // g, chart.exponent // g)
    walls = [(beta, m) for beta, m in shape if local.is_wall_for(beta)]
    pole = sum(m for _, m in walls)
    if not pole:
        return Site(local.conductor, local.exponent, 0, (), 1)
    # the rational wall factors first, so that fewer products are cyclotomic
    product = None
    for beta, m in walls + [bm for bm in shape if bm not in walls]:
        series = factor_series(beta, m, local, pole)
        product = series if product is None else truncated_product(product, series, pole)
    parts = [(c.num, c.den * factorial(i)) if isinstance(c, Cyclotomic)
             else ((c.numerator,), c.denominator * factorial(i))
             for i, c in enumerate(reversed(product))]
    common = lcm(*(den for _, den in parts))
    weights = tuple(tuple(x * (common // den) for x in num) for num, den in parts)
    return Site(local.conductor, local.exponent, pole, weights, common)


def form_residue(numerator, denominator, chart: Chart):
    """Residue of N(t) / prod (1 - t**(-beta))**M * dt/t at the chart's point.

    * zero: the t**0 coefficient of the expansion;
    * infinity: dt/t = -dw/w, so minus the w**0 coefficient;
    * t = zeta*e^u: dt/t = du, and the residue is the u**(P-1) coefficient
      of N(zeta*e^u) times every ``factor_series``.  With
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
