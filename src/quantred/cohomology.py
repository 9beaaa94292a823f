"""Truncated nilpotent rings standing in for the even cohomology of a
fixed component, with an integration functional.

A :class:`RingPresentation` is Q[x_1..x_r]/(x_g^{m_g}) together with the
real dimension of the component (``top_degree``) and a table assigning a
rational number to each top-degree monomial: the pushforward to a point.
Every generator sits in degree 2, so a monomial with exponent vector ``e``
has degree ``2*sum(e)``.

A point is the empty presentation: no generators, top degree 0, and the
empty monomial integrating to 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import factorial, prod
from operator import add, ge

from .exactnum import Cyclotomic

_SCALARS = (int, Fraction, Cyclotomic)

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


def _as_scalar(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, Cyclotomic)):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def _class(presentation, coeffs: dict) -> "CohomologyClass":
    # wrap a dict the ring operations built, {exponent tuple: nonzero
    # scalar}, without converting or cleaning it again
    out = object.__new__(CohomologyClass)
    object.__setattr__(out, "presentation", presentation)
    object.__setattr__(out, "coeffs", coeffs)
    return out


class RingPresentation:
    """Shared, immutable description of one component's cohomology ring."""

    __slots__ = ("generators", "orders", "top_degree", "_integrals", "_unit")

    def __init__(self, generators, orders, top_degree, integrals):
        generators = tuple(generators)
        orders = tuple(int(m) for m in orders)
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
            table[expo] = Fraction(value)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "top_degree", int(top_degree))
        object.__setattr__(
            self, "_integrals", tuple(sorted(table.items()))
        )
        # the exponent of the monomial 1; not part of equality or hashing
        object.__setattr__(self, "_unit", (0,) * len(generators))

    def __setattr__(self, *args):
        raise AttributeError("presentations are immutable")

    @classmethod
    def point(cls) -> "RingPresentation":
        return cls((), (), 0, {(): 1})

    @classmethod
    def projective_line(cls, name: str = "x") -> "RingPresentation":
        """Q[x]/x^2 with integral of x equal to 1: the ring of P^1."""
        return cls((name,), (2,), 2, {(1,): 1})

    @property
    def integrals(self):
        return dict(self._integrals)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def nilpotency_bound(self) -> int:
        """Largest total exponent of a possibly-nonzero monomial."""
        return sum(m - 1 for m in self.orders)

    def monomials(self):
        return _cartesian(*(range(m) for m in self.orders))

    def zero(self) -> "CohomologyClass":
        return _class(self, {})

    def one(self) -> "CohomologyClass":
        return _class(self, {self._unit: Fraction(1)})

    def constant(self, scalar) -> "CohomologyClass":
        scalar = _as_scalar(scalar)
        return _class(self, {self._unit: scalar} if scalar else {})

    def gen(self, name: str) -> "CohomologyClass":
        i = self.generators.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.rank))
        return CohomologyClass(self, {expo: 1})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingPresentation)
            and self.generators == other.generators
            and self.orders == other.orders
            and self.top_degree == other.top_degree
            and self._integrals == other._integrals
        )

    def __hash__(self):
        return hash((self.generators, self.orders, self.top_degree, self._integrals))

    def __repr__(self):
        if not self.generators:
            return "RingPresentation(point)"
        gens = ", ".join(
            f"{g}^{m}" for g, m in zip(self.generators, self.orders)
        )
        return f"RingPresentation(Q[{', '.join(self.generators)}]/({gens}), top={self.top_degree})"


class CohomologyClass:
    """An element of a presentation's ring: sparse map monomial -> scalar.

    ``coeffs`` holds nonzero scalars only, under exponent tuples below the
    nilpotency orders.  The constructor cleans outside input, dropping the
    monomials that are zero in the ring; the ring operations drop zero sums
    as they appear and wrap their results without a second pass."""

    __slots__ = ("presentation", "coeffs")

    def __init__(self, presentation, coeffs):
        orders = presentation.orders
        clean = {}
        for expo, value in coeffs.items():
            expo = tuple(expo)
            if any(e >= m for e, m in zip(expo, orders)):
                continue  # nilpotent: the monomial is zero in the ring
            value = _as_scalar(value)
            if value:
                clean[expo] = value
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *args):
        raise AttributeError("cohomology classes are immutable")

    def _check(self, other):
        if (self.presentation is not other.presentation
                and self.presentation != other.presentation):
            raise PresentationMismatch(
                "classes live in different ring presentations"
            )

    def _operand(self, other):
        # a class of the same presentation, a scalar as a constant class, or
        # None for anything else
        if isinstance(other, CohomologyClass):
            self._check(other)
            return other
        if isinstance(other, _SCALARS):
            return self.presentation.constant(other)
        return None

    def _sum(self, other, subtract):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for expo, value in other.coeffs.items():
            total = out.get(expo)
            if total is None:
                out[expo] = -value if subtract else value
                continue
            total = total - value if subtract else total + value
            if total:
                out[expo] = total
            else:
                del out[expo]
        return _class(self.presentation, out)

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _class(self.presentation, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    # -- multiplicative structure ----------------------------------------------

    def __mul__(self, other):
        pres = self.presentation
        if not isinstance(other, CohomologyClass):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            if not other:
                return _class(pres, {})
            return _class(pres, {e: v * other for e, v in self.coeffs.items()})
        self._check(other)
        orders = pres.orders
        right = other.coeffs.items()
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in right:
                e = tuple(map(add, e1, e2))
                if any(map(ge, e, orders)):
                    continue  # nilpotent truncation
                total = out.get(e)
                out[e] = v1 * v2 if total is None else total + v1 * v2
        return _class(pres, {e: v for e, v in out.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return self * (1 / scalar)
        if isinstance(scalar, Cyclotomic):
            return self * scalar.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        out = self.presentation.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        """Whether this is the class 1 with the rational scalar 1."""
        coeffs = self.coeffs
        if len(coeffs) != 1:
            return False
        value = coeffs.get(self.presentation._unit)
        return type(value) is Fraction and value == 1

    def constant_term(self):
        value = self.coeffs.get(self.presentation._unit)
        return Fraction(0) if value is None else value

    def is_nilpotent(self) -> bool:
        return not self.constant_term()

    def nilpotent_part(self) -> "CohomologyClass":
        unit = self.presentation._unit
        return _class(
            self.presentation,
            {e: v for e, v in self.coeffs.items() if e != unit},
        )

    def exp(self) -> "CohomologyClass":
        """exp(a) = sum a^n / n!, finite by nilpotency; needs a nilpotent."""
        if not self.is_nilpotent():
            raise ValueError("exp needs a class with zero constant term")
        out = self.presentation.one()
        term, n = self, 1
        while term.coeffs:  # a^n vanishes beyond the nilpotency bound
            out = out + term
            n += 1
            term = term * self / n
        return out

    def todd_factor(self) -> "CohomologyClass":
        """a / (1 - exp(-a)) = 1 + a/2 + a^2/12 - a^4/720 + ..., truncated
        by nilpotency."""
        if not self.is_nilpotent():
            raise ValueError("Todd factor needs a class with zero constant term")
        bound = self.presentation.nilpotency_bound
        coeffs = todd_coefficients(bound)
        out = self.presentation.zero()
        term = self.presentation.one()
        for n in range(bound + 1):
            if coeffs[n]:
                out = out + term * coeffs[n]
            term = term * self
            if term.is_zero():
                break
        return out

    def inverse(self) -> "CohomologyClass":
        """Inverse of a class with invertible (nonzero) constant term:
        (s + n)^(-1) = s^(-1) * sum (-n/s)^k, a finite sum."""
        s = self.constant_term()
        if not s:
            raise ZeroDivisionError("class has nilpotent constant term")
        s_inv = s.inverse() if isinstance(s, Cyclotomic) else 1 / s
        step = self.nilpotent_part() * -s_inv
        out = self.presentation.one()
        term = step
        while term.coeffs:  # step^k vanishes beyond the nilpotency bound
            out = out + term
            term = term * step
        return out * s_inv

    def integrate(self):
        """Pair against the fundamental class: top-degree coefficients hit the
        integration table, everything else integrates to zero."""
        total = Fraction(0)
        for expo, weight in self.presentation._integrals:
            v = self.coeffs.get(expo)
            if v:
                total = total + v * weight
        return total

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = self.presentation.constant(other)
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        # both maps hold nonzero scalars only, so equal classes have equal maps
        return (
            self.presentation == other.presentation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.presentation, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.coeffs:
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
                parts.append(f"{value}*{mono}" if not isinstance(value, Cyclotomic) else f"({value})*{mono}")
        return " + ".join(parts)


_TODD: list[Fraction] = [Fraction(1)]


def todd_coefficients(order: int) -> list[Fraction]:
    """Rational coefficients of x/(1 - exp(-x)) up to x**order.

    Computed once by exact long division of power series: the reciprocal of
    (1 - exp(-x))/x = sum (-1)^n x^n/(n+1)!.  Results are cached and extended
    on demand.
    """
    while len(_TODD) <= order:
        n = len(_TODD)
        # g[k] = (-1)^k / (k+1)!; recurrence t[n] = -sum_{k>=1} g[k] t[n-k]
        acc = Fraction(0)
        for k in range(1, n + 1):
            g_k = Fraction((-1) ** k, factorial(k + 1))
            acc += g_k * _TODD[n - k]
        _TODD.append(-acc)
    return _TODD[: order + 1]

