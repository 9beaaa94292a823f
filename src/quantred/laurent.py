"""One-variable formal Laurent series with cohomology-class coefficients,
in one of three expansion charts on the Riemann sphere:

* ``t -> 0``    series in t itself, on the punctured disk inside the circle;
* ``t -> inf``  series in w = 1/t, outside the circle;
* ``t = zeta*e^u``  series in u around a root of unity zeta (zeta = 1 allowed).

The chart at a root of unity uses t = zeta*e^u so that dt/t = du: the
residue of f(t) dt/t at t = zeta is literally the u^{-1} coefficient, with
no stray factors of i.  At infinity, t = 1/w gives dt/t = -dw/w, so that
residue is minus the w^0 coefficient.  At zero it is the t^0 coefficient.

Coefficients are :class:`~quantred.cohomology.CohomologyClass` values whose
scalars are rational in the 0/inf charts and cyclotomic at nontrivial roots
of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cohomology import CohomologyClass, RingPresentation, todd_coefficients
from .exactnum import Cyclotomic, root_of_unity


class TruncationError(ArithmeticError):
    """A coefficient beyond the series' truncation order was requested."""


class ChartMismatch(ValueError):
    """Series from different charts (or presentations) were combined."""


@dataclass(frozen=True)
class Chart:
    """Where, and in which local coordinate, a series is expanded.

    ``kind`` is one of ``"zero"``, ``"inf"``, ``"root"``.  For ``"root"``,
    the expansion point is zeta_conductor**exponent (exponent 0 means t = 1,
    where all scalars stay rational).
    """

    kind: str
    conductor: int = 1
    exponent: int = 0

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

    def zeta_power(self, r: int):
        """zeta**r as an exact scalar (Fraction fast path at zeta = 1)."""
        if self.kind != "root":
            raise ValueError("zeta_power only makes sense at a root chart")
        k = (self.exponent * r) % self.conductor
        if k == 0:
            return Fraction(1)
        return root_of_unity(self.conductor, k)

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
                [c * other if c.coeffs else c for c in self.coeffs],
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
                if prev.coeffs:
                    acc = acc - (prev if d is None else d * prev)
            q.append(acc if lead_inv is None or not acc.coeffs else lead_inv * acc)
        return RingSeries(self.chart, self.presentation, self.low - other.low, q)

    def reciprocal(self) -> "RingSeries":
        """Inverse series, defined when the leading (lowest) coefficient has
        an invertible constant term.  The window length is preserved."""
        one = series_constant(self.chart, self.presentation, self.presentation.one(),
                              len(self.coeffs) - 1)
        return one / self

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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
# constructors
# ---------------------------------------------------------------------------

def series_constant(chart, presentation, value: CohomologyClass, order: int) -> RingSeries:
    coeffs = [value] + [presentation.zero()] * order
    return RingSeries(chart, presentation, 0, coeffs)


def laurent_polynomial_series(poly, chart, presentation, order: int) -> RingSeries:
    """A finite Laurent polynomial sum a_r t**r rewritten in the chart.

    * at 0:        t**r is the monomial t**r;
    * at infinity: t**r is w**(-r);
    * at a root:   t**r = zeta**r * exp(r*u), a power series in u.
    """
    poly = {int(r): v for r, v in dict(poly).items() if v}
    if not poly:
        return series_constant(chart, presentation, presentation.zero(), order)
    if chart.kind in ("zero", "inf"):
        sign = 1 if chart.kind == "zero" else -1
        exps = [sign * r for r in poly]
        low = min(exps)
        # a finite polynomial is exactly zero above its top exponent, so the
        # window can extend to any requested order
        top = max(max(exps), order)
        coeffs = [presentation.zero() for _ in range(top - low + 1)]
        for r, v in poly.items():
            coeffs[sign * r - low] = presentation.constant(v)
        return RingSeries(chart, presentation, low, coeffs)
    # the coefficient of u**n is sum_r a_r zeta**r r**n / n!
    scaled = [(r, chart.zeta_power(r) * v) for r, v in poly.items()]
    coeffs = []
    for n in range(order + 1):
        acc = presentation.zero()
        for r, a in scaled:
            acc = acc + presentation.constant(a * Fraction(r**n, factorial(n)))
        coeffs.append(acc)
    return RingSeries(chart, presentation, 0, coeffs)


# ---------------------------------------------------------------------------
# the Lefschetz denominator factor 1 / (1 - t**(-beta) * exp(-c))
# ---------------------------------------------------------------------------

def _wall_factor(beta, c, chart, order):
    # zeta**beta = 1: the factor is f(beta*u + c) with f(y) = 1/(1 - e^{-y})
    # = sum_j td_j y^(j-1).  By nilpotency Taylor's formula in c is the finite
    # sum sum_k f^(k)(beta*u) c^k / k!, whose u^e coefficient is
    # beta^e sum_k C(e+k, k) td_{e+k+1} c^k, k below the pole depth.
    pres = c.presentation
    c_powers = []
    power = pres.one()
    while not power.is_zero():
        c_powers.append(power)
        power = power * c
    depth = len(c_powers)
    td = todd_coefficients(order + depth)
    coeffs = []
    for e in range(-depth, order + 1):
        acc = pres.zero()
        binom = Fraction(1)  # C(e+k, k) = (e+k)(e+k-1)...(e+1) / k!
        for k, c_power in enumerate(c_powers):
            if k:
                binom = binom * (e + k) / k
            j = e + k + 1
            if j >= 0 and binom and td[j]:
                acc = acc + c_power * (binom * td[j])
        coeffs.append(acc * Fraction(beta) ** e)
    return RingSeries(chart, pres, -depth, coeffs)


def expand_lefschetz_factor(beta: int, c: CohomologyClass, chart: Chart, order: int) -> RingSeries:
    """Series of 1/(1 - t**(-beta) * exp(-c)) in the given chart.

    ``c`` is the first Chern class of one normal line direction (nilpotent);
    ``beta`` the integer weight of the circle action on it.  At a root chart
    where zeta**beta = 1 the result has a pole: the scalar part is a simple
    pole in u and nilpotent corrections deepen it by at most the ring's
    nilpotency bound.  Off a wall, in every chart, the factor is the
    reciprocal of :func:`lefschetz_denominator`, cut back to ``order``
    (chart expansions divide by that denominator and call this at walls only).

    At t = 1 with beta = 1 on a point this is 1/(1 - e^{-u}):

    >>> from quantred.cohomology import RingPresentation
    >>> point = RingPresentation.point()
    >>> s = expand_lefschetz_factor(1, point.zero(), Chart.at_one(), 3)
    >>> [s.coefficient(n) for n in range(-1, 4)]
    [1, 1/2, 1/12, 0, -1/720]
    """
    if beta == 0:
        raise ValueError("zero weight")
    if not c.is_nilpotent():
        raise ValueError("Chern class must have zero constant term")
    if chart.is_wall_for(beta):
        return _wall_factor(beta, c, chart, order)
    return lefschetz_denominator(beta, c, chart, order).reciprocal().truncated(order)


def lefschetz_denominator(beta: int, c: CohomologyClass, chart: Chart, order: int) -> RingSeries:
    """The finite expression 1 - t**(-beta) exp(-c) itself, written in the
    chart.  Off a wall the factor is one over it, and chart expansions
    divide by it; at a wall it checks factor * denominator == 1."""
    if beta == 0:
        raise ValueError("zero weight")
    pres = c.presentation
    exp_neg_c = (-c).exp()
    if chart.kind in ("zero", "inf"):
        s = 1 if chart.kind == "zero" else -1
        m = -s * beta
        low = min(0, m)
        coeffs = [pres.zero() for _ in range(max(0, m) - low + 1)]
        coeffs[0 - low] = coeffs[0 - low] + pres.one()
        coeffs[m - low] = coeffs[m - low] - exp_neg_c
        coeffs += [pres.zero()] * order
        return RingSeries(chart, pres, low, coeffs)
    z = chart.zeta_power(-beta)
    coeffs = []
    rate = Fraction(1)
    for n in range(order + 1):
        cls = exp_neg_c * (z * rate)
        coeffs.append((pres.one() - cls) if n == 0 else -cls)
        rate = rate * (-beta) / (n + 1)
    return RingSeries(chart, pres, 0, coeffs)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue(series: RingSeries) -> CohomologyClass:
    """Residue of (series) * dt/t at the chart's base point.

    * root chart:  dt/t = du, so this is the u^{-1} coefficient;
    * zero chart:  the t^0 coefficient;
    * infinity:    dt/t = -dw/w, so minus the w^0 coefficient.
    """
    kind = series.chart.kind
    if kind == "root":
        return series.coefficient(-1)
    if kind == "zero":
        return series.coefficient(0)
    return -series.coefficient(0)

