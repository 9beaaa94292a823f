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
integer coefficients over one common denominator.  ``residue_row``, the
module's one public function, takes all its residues at once.
Everything but N is fixed by the denominator shape (the sorted (beta, M)
pairs), and one plan per shape (``_plan``, read by ``residue_row`` only)
holds it.  At zero and at infinity the plan holds a sign, a shift and one
adding recurrence per factor, run on integers with one division at the
end; the residue is the var**0 coefficient alone, so the last recurrence
is one strided sum at that coefficient (``_constant_term``).  Per order d
of the shape's wall roots it holds the site record (``_site``) of the
primitive root zeta_d only: the pole order P and integer weights W_i,
i < P; the residue sums a_r r**i W_i over the terms a_r t**r of N into one
integer list at the offset zeta_d**r shifts each to, divides once, and is
the cell in Q(zeta_d), whose Galois images fill the rest of its orbit.
The plan lists the wall orders d from the divisors of the weights and
builds every site in one pass.  The weights come from Q itself, expanded
once per shape as integer terms q_c t**c by the polynomial product that
builds N, and handed to each site of pole order 2 or more: the Taylor rows
T_n of Q(zeta*e^u) / u**P are integer sums of q_c zeta**c c**(P+n).  The
lead 1/T_0 has a closed form, an integer vector in Z[x]/(x**d - 1) that each
factor off the walls multiplies by a ramp sum_{i<e} i x**(i k), a cyclic
convolution that a running sum does on each coset of <k>; it is reduced mod
Phi_d once.  At a simple pole the one weight is the lead; otherwise
u**P / Q(zeta*e^u) is one reciprocal, run on integers.

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
from math import comb, factorial, gcd, isqrt, lcm
from operator import add, mul

from .cohomology import CohomologyClass, RingPresentation
from .exactnum import Cyclotomic, fraction_sum


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


# N / Q at zero (sign 1, var = t) or at infinity (sign -1, var = 1/t) is
# (-1)**negate var**(-shift) N / prod (1 - var**a) over the steps a: a factor
# 1 - var**(-b), b > 0, is -var**(-b) (1 - var**b), and dividing by 1 - var**a
# is the adding recurrence q[n] += q[n - a]
Recurrence = namedtuple("Recurrence", "sign negate shift steps")


def _recurrence(pairs, sigma: int) -> Recurrence:
    negate, shift, steps = False, 0, []
    for beta, m in pairs:
        b = sigma * beta
        if b > 0:
            negate ^= m % 2 == 1
            shift += b * m
        steps += [abs(b)] * m
    return Recurrence(sigma, negate, shift, tuple(steps))


def _constant_term(numerator, recurrence: Recurrence) -> Fraction:
    # the kernel at zero and at infinity: the var**0 coefficient of N / Q
    sigma, negate, shift, steps = recurrence
    terms, scale = numerator
    if not terms:
        return Fraction(0)
    # the var-exponents lo .. top of N(var) / prod (1 - var**a), top the one
    # that lands on var**0 after the shift
    lo, top = min(terms) if sigma > 0 else -max(terms), -shift
    if top < lo:
        return Fraction(0)
    q = [0] * (top - lo + 1)
    for r, a in terms.items():
        if (e := sigma * r) <= top:
            q[e - lo] = a
    for a in steps[:-1]:
        for i in range(a, len(q)):
            q[i] += q[i - a]
    # the last step only at the top: q[top] plus q[top - a], q[top - 2a], ...
    v = sum(q[::-steps[-1]]) if steps else q[-1]
    return Fraction(-v if negate else v, scale)


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


def _denominator_terms(shape: tuple) -> tuple:
    # Q = prod (1 - t**(-beta))**M as (t-exponent, nonzero integer) pairs,
    # expanded once per shape by _plan, which hands it to each of its sites
    poly = {0: 1}
    for beta, m in shape:
        poly = _times(poly, _binomial_terms(beta, 0, m))
    return tuple([(c, q) for c, q in poly.items() if q])


# what the primitive root zeta_d decides for a denominator shape (sorted
# (beta, M) pairs): the pole order P (M summed over the walls) and
# weights[i], the u**(P-1-i) coefficient of u**P / Q(zeta_d e^u) over i!, as
# 1 or phi(d) integers over ``common``
Site = namedtuple("Site", "order pole weights common")


def _ramp_product(v: list, k: int, e: int) -> list:
    # v times sum_{i<e} i x**(i k) in Z[x]/(x**d - 1), d = len(v) and e the
    # order of k mod d: on each coset c + <k>, with u_j = v[c + j k], it is
    # the cyclic convolution y_j = sum_{i<e} i u_(j-i), which a running sum
    # does, y_j = y_(j-1) + sum(u) - e u_j from y_(-1) = y_(e-1)
    d = len(v)
    steps = [j * k % d for j in range(e)]
    out = [0] * d
    for c in range(d // e):
        u = [v[c + s] for s in steps]
        if any(u):
            total, y = sum(u), sum(map(mul, range(e - 1, -1, -1), u))
            for s, x in zip(steps, u):
                y += total - e * x
                out[c + s] = y
    return out


def _site(d: int, shape: tuple, q_terms: tuple) -> Site:
    # q_terms is Q as _denominator_terms gives it, read only when P >= 2;
    # the lead 1/T_0 is beta**(-M) per wall and (1 - z)**(-M) per factor off
    # the walls, z = zeta**(-beta) of order e, with 1/(1 - z) =
    # sum_{i<e} i z**i / (-e): over den, one integer vector in Z[x]/(x**d - 1)
    # (None for 1), times the ramp of each factor, reduced mod Phi_d once
    pole, lead, den = 0, None, 1
    for beta, m in shape:
        if not (k := -beta % d):  # a wall
            pole += m
            den *= beta ** m
            continue
        e = d // gcd(d, k)
        den *= (-e) ** m
        for _ in range(m):
            if lead is None:  # the ramp itself
                lead = [0] * d
                for i in range(e):
                    lead[i * k % d] = i
            else:
                lead = _ramp_product(lead, k, e)
    if not pole:  # zeta_d on no wall
        return Site(d, 0, (), 1)
    # every value is kept as integers at the powers zeta**0 .. zeta**(d-1); it
    # is rational when d <= 2 or every factor is a wall (zeta**c = 1 at every
    # exponent c of Q), and then it is the integers at zeta**0 minus those at
    # zeta**1, the one other root
    rational = d <= 2 or lead is None
    if rational:
        num, coords = 1 if lead is None else lead[0] - lead[1], lambda x: (x,)
    else:
        num, coords = Cyclotomic.from_integers(d, lead), lambda x: x.num
    if pole == 1:  # W_0 is the lead, in lowest terms over a positive common
        c = coords(num)
        g = gcd(den, *c) if den > 0 else -gcd(den, *c)
        return Site(d, 1, (tuple([x // g for x in c]),), den // g)
    # T_n, the u**(P+n) coefficient of Q(zeta e^u) = sum_c q_c zeta**c e^(cu),
    # is sum_c q_c zeta**c c**(P+n) / (P+n)!, for 0 < n < P
    rows = [[0] * max(d, 2) for _ in range(1, pole)]
    for c, q in q_terms:
        q *= c ** (pole + 1)
        k = c % d
        for row in rows:
            row[k] += q
            q *= c
    # t_n = (P+n)! T_n, integers
    taylor = [None] + [row[0] - row[1] if rational else Cyclotomic.from_integers(d, row)
                       for row in rows]
    # u**P / Q(zeta e^u) = sum_n r_n u**n, the reciprocal of sum_n T_n u**n:
    # r_0 = 1/T_0 and r_n = -r_0 sum_{k=1..n} T_k r_{n-k}, run on integers (in
    # Z[zeta]) over one running denominator, a multiple of each r_n's own
    minus, series, common = -num, [num], den  # r_n = series[n] / common
    for n in range(1, pole):
        # s = sum_k t_k r_(n-k) (P+n)! / (P+k)! times common, by Horner in
        # the factors P+k, and r_n = s / (den (P+n)! common)
        s = taylor[1] * series[n - 1]
        for k in range(2, n + 1):
            s = s * (pole + k) + taylor[k] * series[n - k]
        s = minus * s
        full = den * factorial(pole + n) * common
        own = full // gcd(full, *coords(s))  # the denominator of r_n
        if (grow := own // gcd(own, common)) != 1:
            series = [x * grow for x in series]
            common *= grow
        series.append(s * common // full if rational else s * Fraction(common, full))
    # W_i is r_(P-1-i) / i! over the lcm of their denominators in lowest terms
    parts, out = [], 1
    for i, r in enumerate(reversed(series)):
        c = coords(r)
        g = gcd(common, *c)
        part = common // g * factorial(i)  # the denominator of W_i, up to sign
        parts.append((c, g, part))
        out = lcm(out, part)
    weights = tuple([tuple([x // g * (out // part) for x in c]) for c, g, part in parts])
    return Site(d, pole, weights, out)


# all a residue row needs of a denominator shape but N: the recurrences at
# zero and infinity and, per Galois orbit of wall roots, the site of zeta_d
# (t = 1 for d = 1), its exponent and those of its conjugates
Plan = namedtuple("Plan", "zero inf orbits")


@lru_cache(maxsize=None)
def _plan(shape: tuple) -> Plan:
    # the wall roots zeta_d**j, zeta**beta = 1 for a weight beta: in
    # increasing order every divisor d of a weight, and d = 1 (t = 1) always,
    # each with its conjugates j, gcd(j, d) = 1, the representative first
    orders, total = {1}, 0
    for beta, m in shape:
        b, total = abs(beta), total + m
        for a in range(1, isqrt(b) + 1):
            if b % a == 0:
                orders |= {a, b // a}
    # Q is read by the sites of pole order 2 or more, and t = 1, on every
    # wall, has the largest pole, the total multiplicity
    q_terms = _denominator_terms(shape) if total > 1 else ()
    orbits = []
    for d in sorted(orders):
        first, *rest = [j for j in range(d) if gcd(j, d) == 1]
        orbits.append((_site(d, shape, q_terms), first, tuple(rest)))
    return Plan(_recurrence(shape, 1), _recurrence(shape, -1), tuple(orbits))


def residue_row(numerator, denominator):
    """Every residue of N(t) / prod (1 - t**(-beta))**M * dt/t: (at zero,
    {(d, j): cell at zeta_d**j} over the denominator's wall roots (t = 1
    and every zeta_d**j, gcd(j, d) = 1, with d dividing a weight beta, by
    increasing d), at infinity, their sum).  The residue at zeta_d is
    computed once per order d, in Q(zeta_d) (a ``Fraction`` for d <= 2); N
    and Q are rational, so the cell at zeta_d**j is its image under
    ``galois(j)`` and the orbit adds up to its trace.  The sum is 0 by the residue theorem:

    >>> zero, cells, infinity, total = residue_row(({1: 1}, 1), {4: 1})
    >>> [str(cell) for cell in cells.values()], total
    (['1/4', '-1/4', '1/4*z', '-1/4*z'], Fraction(0, 1))
    """
    plan = _plan(tuple(sorted(denominator.items())))
    at_zero = _constant_term(numerator, plan.zero)
    at_infinity = -_constant_term(numerator, plan.inf)  # dt/t = -dw/w
    summands = [at_zero, at_infinity]  # rational cells, and each orbit by its trace
    cells = {}
    for site, first, conjugates in plan.orbits:
        r = _root_residue(numerator, site)
        d = site.order
        summands.append(r.trace() if d > 2 else r)
        cells[d, first] = r
        for j in conjugates:
            cells[d, j] = r.galois(j)
    return at_zero, cells, at_infinity, fraction_sum(summands)


def _root_residue(numerator, site: Site):
    # the root kernel: sum_r sum_{i<P} a_r r**i zeta_d**r W_i / (D E)
    d, _, weights, common = site
    terms, scale = numerator
    acc = [0] * (2 * d)
    for r, a in terms.items():
        shift = r % d
        for w in weights:
            for i, x in enumerate(w, shift):
                acc[i] += a * x
            a *= r
    if d <= 2:  # one integer weight each: zeta_2 = -1, and acc[1] = 0 at d = 1
        return Fraction(acc[0] - acc[1], scale * common)
    # zeta_d**(i + d) = zeta_d**i: only the d offsets below d are reduced mod Phi_d
    return Cyclotomic.from_integers(d, list(map(add, acc[:d], acc[d:])), scale * common)
