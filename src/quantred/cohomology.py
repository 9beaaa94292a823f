"""Truncated nilpotent rings standing in for the even cohomology of a
fixed component, with an integration functional.

A :class:`RingPresentation` is Q[x_1..x_r]/(x_g^{m_g}) together with the
real dimension of the component (``top_degree``) and a table assigning a
rational number to each top-degree monomial: the pushforward to a point.
Every generator sits in degree 2, so a monomial with exponent vector ``e``
has degree ``2*sum(e)``.

A point is the empty presentation: no generators, top degree 0, and the
empty monomial integrating to 1.

Every scalar here is rational and kept on integers, in the layout of the
cyclotomic numbers of :mod:`quantred.exactnum`.  A :class:`CohomologyClass`
stores integer numerators per monomial (``num``, a dict {exponent tuple:
nonzero int}) over one positive denominator (``den``), in lowest terms:
gcd(den, *num) = 1, so zero is ``{}`` over 1.  A presentation stores its
integral table as integer weights (``integral_num``) over one positive
denominator (``integral_den``).  The ring operations work on the integers
and pay one gcd per result, and ``integrate`` divides once.  ``Fraction``s
appear only at the input (the constructors take ``int`` and ``Fraction``
coefficients), in the read-only ``coeffs`` and ``integrals`` views, and in
the output of :func:`todd_coefficients`, computed on integers.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, ge

# The largest number of monomials prod m_g a ring may have.  Ring work grows
# with a power of it: measured on one core, verify on two points over
# Q[x]/x^m with one normal direction takes 0.2 s at m = 256 when the classes
# are trivial, but with omega = c = x and Todd class 1 + x (dense powers of
# e^{-x} - 1) it takes 0.6-1.3 s at m = 64, 8.5 s at m = 128 and 100 s at
# m = 256; over (P^1)^k with dense classes it takes 0.17 s at k = 6 (64
# monomials) and 1.5 s at k = 8.  No ring of the catalog, the golden
# instances, the benchmark or the tests has more than 18.
MAX_RING_MONOMIALS = 64


class PresentationMismatch(ValueError):
    """Two classes from different presentations were combined."""


def _rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


def _integers(values: dict) -> tuple[dict, int]:
    # {key: int or Fraction} as ({key: int}, D), D the lcm of the
    # denominators: in lowest terms whenever the values are
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _product(orders, a: dict, b: dict) -> dict:
    # the product of two numerator maps, truncated by nilpotency, without the
    # sums that cancel
    right = b.items()
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in right:
            e = tuple(map(add, e1, e2))
            if any(map(ge, e, orders)):
                continue  # nilpotent truncation
            total = out.get(e)
            out[e] = v1 * v2 if total is None else total + v1 * v2
    return {e: v for e, v in out.items() if v}


def _powers(pres, a: dict) -> list:
    # A^0, A^1, .., A^K for a nilpotent numerator map A: every power that
    # is not zero
    powers = [{pres._unit: 1}]
    power = a
    while power:
        powers.append(power)
        power = _product(pres.orders, power, a)
    return powers


def _combined(terms) -> dict:
    # sum of c * power over the pairs (c, power)
    out = {}
    for c, power in terms:
        for e, v in power.items():
            out[e] = out.get(e, 0) + c * v
    return out


class RingPresentation(namedtuple(
        "RingPresentation", "generators orders top_degree integral_num integral_den")):
    """Shared, immutable description of one component's cohomology ring, a
    record compared and hashed by value.

    ``integral_num`` holds the integral table as sorted (exponent tuple,
    int) pairs over the positive denominator ``integral_den``, in lowest
    terms; ``integrals`` gives it as {exponent tuple: Fraction}."""

    __slots__ = ()

    def __new__(cls, generators, orders, top_degree, integrals):
        generators = tuple(generators)
        orders = tuple(int(m) for m in orders)
        cls.check_shape(generators, orders, top_degree)
        table = {}
        for expo, value in dict(integrals).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(generators):
                raise ValueError(f"exponent vector {expo} has wrong length")
            if any(e < 0 or e >= m for e, m in zip(expo, orders)):
                raise ValueError(f"exponent vector {expo} exceeds nilpotency")
            if 2 * sum(expo) != top_degree:
                raise ValueError(
                    f"integral entry {expo} is not of top degree {top_degree}"
                )
            table[expo] = _rational(value)
        num, den = _integers(table)
        return super().__new__(cls, generators, orders, int(top_degree),
                               tuple(sorted(num.items())), den)

    @staticmethod
    def check_shape(generators: tuple, orders: tuple, top_degree) -> None:
        """Raise ValueError unless the generators, their nilpotency orders
        and the top degree describe a ring: the checks the constructor makes
        before it reads the integral table."""
        if len(generators) != len(orders):
            raise ValueError("one nilpotency order per generator")
        if len(set(generators)) != len(generators):
            raise ValueError(f"generator names {list(generators)} are not distinct")
        if any(m < 1 for m in orders):
            raise ValueError("nilpotency orders must be >= 1")
        size = prod(orders)
        if size > MAX_RING_MONOMIALS:
            raise ValueError(
                f"the ring has {size} monomials, above the limit of {MAX_RING_MONOMIALS}"
            )
        if top_degree < 0 or top_degree % 2:
            raise ValueError("top_degree must be a nonnegative even integer")

    @classmethod
    def point(cls) -> "RingPresentation":
        return cls((), (), 0, {(): 1})

    @classmethod
    def projective_line(cls, name: str = "x") -> "RingPresentation":
        """Q[x]/x^2 with integral of x equal to 1: the ring of P^1."""
        return cls((name,), (2,), 2, {(1,): 1})

    @property
    def integrals(self):
        den = self.integral_den
        return {e: Fraction(w, den) for e, w in self.integral_num}

    @property
    def _unit(self) -> tuple:
        # the exponent of the monomial 1
        return (0,) * len(self.generators)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def nilpotency_bound(self) -> int:
        """Largest total exponent of a possibly-nonzero monomial."""
        return sum(m - 1 for m in self.orders)

    def zero(self) -> "CohomologyClass":
        return _class(self, {}, 1)

    def one(self) -> "CohomologyClass":
        return _class(self, {self._unit: 1}, 1)

    def constant(self, scalar) -> "CohomologyClass":
        scalar = _rational(scalar)
        return _class(self, {self._unit: scalar.numerator} if scalar else {},
                      scalar.denominator)

    def gen(self, name: str) -> "CohomologyClass":
        i = self.generators.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.rank))
        return CohomologyClass(self, {expo: 1})

    def __repr__(self):
        if not self.generators:
            return "RingPresentation(point)"
        gens = ", ".join(
            f"{g}^{m}" for g, m in zip(self.generators, self.orders)
        )
        return f"RingPresentation(Q[{', '.join(self.generators)}]/({gens}), top={self.top_degree})"


class CohomologyClass:
    """An element of a presentation's ring: sum_e num[e] x^e / den.

    ``num`` maps exponent tuples below the nilpotency orders to nonzero
    integers, and ``den`` is a positive integer with gcd(den, *num) = 1
    (zero is ``{}`` over 1).  The form is unique, so equal classes have
    equal integers.  ``coeffs`` gives the coefficients as ``Fraction``s.
    The constructor takes ``int`` and ``Fraction`` coefficients and drops
    the monomials that are zero in the ring; :meth:`from_integers` takes
    integer numerators over a denominator.  Instances are immutable."""

    __slots__ = ("presentation", "num", "den")

    def __init__(self, presentation, coeffs):
        orders = presentation.orders
        values = {}
        for expo, value in coeffs.items():
            expo = tuple(expo)
            _rational(value)  # anything but an int or a Fraction raises
            if value and not any(e >= m for e, m in zip(expo, orders)):
                values[expo] = value
        num, den = _integers(values)
        _set_presentation(self, presentation)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def from_integers(cls, presentation, numerators: dict, denominator: int = 1):
        """sum_e numerators[e] x^e / denominator, put in lowest terms: the
        monomials at or above a nilpotency order and the zero numerators are
        dropped."""
        if not denominator:
            raise ZeroDivisionError("a class over the denominator 0")
        orders = presentation.orders
        return _canonical(presentation, {
            e: v for e, v in numerators.items() if not any(map(ge, e, orders))
        }, denominator)

    def __setattr__(self, *args):
        raise AttributeError("cohomology classes are immutable")

    @property
    def coeffs(self) -> dict:
        """The coefficients num[e] / den, as {exponent tuple: Fraction}."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.num.items()}

    def _check(self, other):
        if (self.presentation is not other.presentation
                and self.presentation != other.presentation):
            raise PresentationMismatch(
                "classes live in different ring presentations"
            )

    def _operand(self, other):
        # a class of the same presentation, a rational as a constant class,
        # or None for anything else
        if isinstance(other, CohomologyClass):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.presentation.constant(other)
        return None

    def _sum(self, other, sign):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            out, den = dict(self.num), da
        else:
            out, den = {e: v * db for e, v in self.num.items()}, da * db
            sign *= da
        for e, v in other.num.items():
            out[e] = out.get(e, 0) + sign * v
        return _canonical(self.presentation, out, den)

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _class(self.presentation, {e: -v for e, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    # -- multiplicative structure ----------------------------------------------

    def __mul__(self, other):
        pres = self.presentation
        if isinstance(other, CohomologyClass):
            self._check(other)
            return _canonical(pres, _product(pres.orders, self.num, other.num),
                              self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _canonical(pres, {e: v * n for e, v in self.num.items()},
                              self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of a class by zero")
        d = scalar.denominator
        return _canonical(self.presentation, {e: v * d for e, v in self.num.items()},
                          self.den * scalar.numerator)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        pres = self.presentation
        num = {pres._unit: 1}
        for _ in range(n):
            num = _product(pres.orders, num, self.num)
        return _canonical(pres, num, self.den ** n)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_nilpotent(self) -> bool:
        return self.presentation._unit not in self.num

    def exp(self) -> "CohomologyClass":
        """exp(a) = sum a^n / n!, finite by nilpotency; needs a nilpotent.

        With a = A / d and A^K the last nonzero power, this is
        sum_k (K!/k!) d^(K-k) A^k over K! d^K."""
        if not self.is_nilpotent():
            raise ValueError("exp needs a class with zero constant term")
        powers = _powers(self.presentation, self.num)
        top, d = len(powers) - 1, self.den
        return _canonical(self.presentation, _combined(
            (factorial(top) // factorial(k) * d ** (top - k), power)
            for k, power in enumerate(powers)
        ), factorial(top) * d ** top)

    def todd_factor(self) -> "CohomologyClass":
        """a / (1 - exp(-a)) = 1 + a/2 + a^2/12 - a^4/720 + ..., truncated
        by nilpotency: sum_k t_k A^k / d^k over one common denominator."""
        if not self.is_nilpotent():
            raise ValueError("Todd factor needs a class with zero constant term")
        powers = _powers(self.presentation, self.num)
        top, d = len(powers) - 1, self.den
        coeffs = todd_coefficients(top)
        q = lcm(*(t.denominator for t in coeffs))
        return _canonical(self.presentation, _combined(
            (t.numerator * (q // t.denominator) * d ** (top - k), power)
            for k, (t, power) in enumerate(zip(coeffs, powers)) if t
        ), q * d ** top)

    def inverse(self) -> "CohomologyClass":
        """Inverse of a class with invertible (nonzero) constant term: for
        (s + N) / d with s the constant numerator, d sum_k (-N)^k / s^(k+1),
        a finite sum."""
        unit = self.presentation._unit
        s = self.num.get(unit)
        if not s:
            raise ZeroDivisionError("class has nilpotent constant term")
        powers = _powers(self.presentation,
                         {e: -v for e, v in self.num.items() if e != unit})
        top, d = len(powers) - 1, self.den
        return _canonical(self.presentation, _combined(
            (d * s ** (top - k), power) for k, power in enumerate(powers)
        ), s ** (top + 1))

    def integral_parts(self) -> tuple[int, int]:
        """(n, D) with the integral of this class equal to n / D, not
        reduced: the numerators paired with the presentation's integer
        weights, over D = den * integral_den."""
        num = self.num
        total = 0
        for expo, weight in self.presentation.integral_num:
            v = num.get(expo)
            if v:
                total += v * weight
        return total, self.den * self.presentation.integral_den

    def integrate(self) -> Fraction:
        """Pair against the fundamental class: top-degree coefficients hit the
        integration table, everything else integrates to zero."""
        return Fraction(*self.integral_parts())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.presentation.constant(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        # the form is unique, so equal classes have equal integers
        return (
            self.presentation == other.presentation
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        # == equates a class with its rational value (zero included), so it
        # hashes as that number
        unit = self.presentation._unit
        if self.num.keys() <= {unit}:
            return hash(Fraction(self.num.get(unit, 0), self.den))
        return hash((self.presentation, self.den, tuple(sorted(self.num.items()))))

    def __repr__(self):
        if not self.num:
            return "0"
        names = self.presentation.generators
        parts = []
        for expo, value in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mono = "*".join(
                (g if e == 1 else f"{g}^{e}") for g, e in zip(names, expo) if e
            )
            if not mono:
                parts.append(str(value))
            elif value == 1:
                parts.append(mono)
            else:
                parts.append(f"{value}*{mono}")
        return " + ".join(parts)


# the slots' own setters: they skip the immutability guard, and calling them
# directly is about twice as fast as object.__setattr__
_set_presentation = CohomologyClass.presentation.__set__
_set_num = CohomologyClass.num.__set__
_set_den = CohomologyClass.den.__set__


def _class(presentation, num: dict, den: int) -> CohomologyClass:
    # wrap numerators the ring operations built, already in lowest terms
    out = object.__new__(CohomologyClass)
    _set_presentation(out, presentation)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _canonical(presentation, num: dict, den: int) -> CohomologyClass:
    # num / den in lowest terms: the zero numerators dropped, gcd(den, *num)
    # = 1 and den > 0, so zero is {} over 1
    num = {e: v for e, v in num.items() if v}
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {e: v // g for e, v in num.items()}
        den //= g
    return _class(presentation, num, den)


def todd_coefficients(order: int) -> list[Fraction]:
    """Rational coefficients of x/(1 - exp(-x)) up to x**order: t_n = b_n / n!,
    the reciprocal of g = (1 - exp(-x))/x, g_k = (-1)**k/(k+1)!, by
    t_n = -sum_{k=1..n} g_k t_{n-k}.  Times n! it is
    (n+1) b_n = -sum_k (-1)**k C(n+1, k+1) b_{n-k}, run on the integers
    b_n (order+1)! (b_n, a Bernoulli number, has a denominator dividing
    (n+1)!):

    >>> [str(c) for c in todd_coefficients(4)]
    ['1', '1/2', '1/12', '0', '-1/720']
    """
    q = factorial(order + 1)
    b = [q]
    for n in range(1, order + 1):
        b.append(-sum([(-1) ** k * comb(n + 1, k + 1) * b[n - k]
                       for k in range(1, n + 1) if b[n - k]]) // (n + 1))
    return [Fraction(x, q * factorial(n)) for n, x in enumerate(b)]
