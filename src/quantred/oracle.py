"""Independent verification path: assemble the full character as a finite
Laurent polynomial by expanding every fixed component's contribution at
t -> infinity (in w = 1/t), then read off invariant multiplicities by
elementary character theory.

Each normal factor 1/(1 - w^b e^{-c}) is applied to the running series s by
the recurrence it defines, s[e] = num[e] + X s[e - m], one exponent at a
time up to a checked tail window; a negative weight is first rewritten as
-w^m e^{c} / (1 - w^m e^{c}) with m = -b.  The summed expansion must vanish
in that tail, which certifies the data.

The arithmetic is in integers.  A class is a flat list of ints indexed by
monomial, a series in w is a list of classes indexed by exponent offset, and
each component carries one positive denominator D for its whole series.
Before a normal factor is applied, L = K! den(c)^K (K the largest power of
c that is nonzero) makes L e^{+-c} integral; the numerators are scaled by
L, D becomes D L, and the recurrence reads S[e] = L num[e] + (L X) S[e - m] / L,
where the division is exact (a remainder raises ``ArithmeticError``).
Fractions appear only for the input data and when the components' integrals
are summed over one common denominator.

This module deliberately re-implements this small ring arithmetic instead of
reusing the series/ring machinery: the point is to certify the residue
engine against a path that shares nothing with it beyond the input data
model.  It imports only :mod:`quantred.fixedpoint` and the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import factorial, gcd, lcm

from .fixedpoint import (
    MAX_EXPANSION_WINDOW,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    expansion_window,
)


class StabilizationError(ArithmeticError):
    """The summed expansion did not stabilize: the fixed-point data is not
    consistent with any compact manifold."""


class SymmetryError(ValueError):
    """A character fed to a nonabelian multiplicity count was not symmetric
    under negation of weights."""


# -- integer classes ----------------------------------------------------------
# A class is a flat list of ints indexed by monomial, in mixed radix over the
# ring's truncation orders (the last generator fastest); a rational class is
# carried as such a list together with one positive denominator.

@lru_cache(maxsize=None)
def _monomials(orders: tuple) -> tuple:
    """(index of each exponent vector, product table).  Row i of the table
    lists the pairs (j, k) with monomial i times monomial j equal to monomial
    k; products that the truncation kills are left out."""
    monos = list(_cartesian(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for e1 in monos:
        row = []
        for j, e2 in enumerate(monos):
            k = index.get(tuple(x + y for x, y in zip(e1, e2)))
            if k is not None:
                row.append((j, k))
        rows.append(tuple(row))
    return index, tuple(rows)


def _mul(a, b, rows):
    out = [0] * len(a)
    for x, row in zip(a, rows):
        if x:
            for j, k in row:
                out[k] += x * b[j]
    return out


def _integer_class(coeffs, index):
    """(d, A) with A / d the class with these {exponent: rational}
    coefficients, A a flat integer class and d the lcm of the
    denominators."""
    values = {index[e]: Fraction(v) for e, v in coeffs.items()}
    d = lcm(*(v.denominator for v in values.values()))
    out = [0] * len(index)
    for i, v in values.items():
        out[i] = v.numerator * (d // v.denominator)
    return d, out


def _scaled_exp(cls, index, rows, sign=1):
    """(L, E) with E = L * exp(sign * cls) a flat integer class.

    With cls = A / d nilpotent and K the largest k with A^k != 0,
    L = K! d^K and E = sum_k (K!/k!) d^(K-k) (sign A)^k.  Every
    L exp(j * cls), j an integer, is integral for this L, which is what
    makes the division in the recurrence exact."""
    d, a = _integer_class(cls.coeffs, index)
    if sign < 0:
        a = [-x for x in a]
    powers = [[1] + [0] * (len(a) - 1)]
    while True:
        nxt = _mul(powers[-1], a, rows)
        if not any(nxt):
            break
        powers.append(nxt)
    top = len(powers) - 1
    scale = factorial(top) * d**top
    out = [0] * len(a)
    for k, power in enumerate(powers):
        c = factorial(top) // factorial(k) * d ** (top - k)
        for i, x in enumerate(power):
            out[i] += c * x
    return scale, out


def _divided(a, n):
    # exact division of an integer class by n
    if n == 1:
        return a
    out = []
    for x in a:
        q, r = divmod(x, n)
        if r:
            raise ArithmeticError(f"inexact division by {n} in the oracle recurrence")
        out.append(q)
    return out


# -- character assembly -----------------------------------------------------

def automatic_degree_bound(p: ProblemInstance) -> int:
    """Support bound for the character, from the data alone: beyond
    :func:`~quantred.fixedpoint.expansion_window` every coefficient of the
    summed expansion must vanish."""
    return expansion_window(p)


class CharacterPolynomial:
    """Finite Laurent polynomial with integer coefficients: weight -> count."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        clean = {int(m): int(c) for m, c in dict(coefficients).items() if c}
        object.__setattr__(self, "coefficients", clean)

    def __setattr__(self, *args):
        raise AttributeError("characters are immutable")

    def __getitem__(self, m: int) -> int:
        return self.coefficients.get(m, 0)

    def support(self):
        return sorted(self.coefficients)

    def total_dimension(self) -> int:
        return sum(self.coefficients.values())

    def is_weyl_symmetric(self) -> bool:
        return all(self[m] == self[-m] for m in self.coefficients)

    def __eq__(self, other):
        if isinstance(other, dict):
            other = CharacterPolynomial(other)
        if not isinstance(other, CharacterPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(tuple(sorted(self.coefficients.items())))

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for m in self.support():
            c = self[m]
            if m == 0:
                body = str(abs(c))
            else:
                power = "t" if m == 1 else f"t^{m}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"CharacterPolynomial({self.coefficients!r})"


def character_polynomial(
    p: ProblemInstance, degree_bound: int | None = None
) -> CharacterPolynomial:
    """Sum the per-component expansions at t -> infinity and certify that the
    tail vanishes.

    ``degree_bound`` (default: the automatic bound) is where the support is
    allowed to end; the expansion itself is carried a full extra bound
    further, and any nonzero coefficient in that checked window raises
    :class:`StabilizationError`.

    The sphere with the degree-2 bundle carries the weights -1, 0, 1:

    >>> from quantred.catalog import catalog
    >>> print(character_polynomial(catalog("cp1-k", 2)))
    t^-1 + 1 + t
    """
    auto = automatic_degree_bound(p)
    bound = auto if degree_bound is None else max(int(degree_bound), auto)
    if bound > MAX_EXPANSION_WINDOW:
        raise InvalidInstanceError(
            f"the character expansion bound {bound} is above the limit of "
            f"{MAX_EXPANSION_WINDOW}"
        )
    top = bound + auto + 4  # checked tail window: (bound, top]
    parts = []  # (denominator, {w exponent: integer numerator}) per component
    for f in p.components:
        index, rows = _monomials(f.ring.orders)
        # the series in w is s[e] = S[e - low] / den: a list of integer
        # classes (None for zero) over one positive denominator
        scale, expo = _scaled_exp(f.omega, index, rows)
        todd_den, todd = _integer_class(f.todd.coeffs, index)
        base = _mul(expo, todd, rows)
        den = scale * todd_den
        g = gcd(den, *base)
        series = [[x // g for x in base]]
        den //= g
        low = -f.moment
        for b, chern in zip(f.weights, f.normal_chern):
            if b == 0:
                raise InvalidInstanceError(f"component {f.name!r} has a zero weight")
            # the factor 1/(1 - w^b e^{-c}), applied by its recurrence
            # s[e] = num[e] + X s[e - m]: for b > 0, num is the series,
            # X = e^{-c} and m = b; for b < 0 the factor is
            # -w^m e^{c} / (1 - w^m e^{c}) with m = -b, so num is
            # -w^m e^{c} times the series and X = e^{c}.  With L X
            # integral, the new denominator is den * L and the recurrence
            # reads S[e] = L num[e] + (L X) S[e - m] / L.
            m = abs(b)
            scale, step = _scaled_exp(chern, index, rows, -1 if b > 0 else 1)
            if b > 0:
                num = [cls and [scale * x for x in cls] for cls in series]
            else:
                num = [cls and [-x for x in _mul(step, cls, rows)] for cls in series]
                low += m
            den *= scale
            new = []
            for i in range(top - low + 1):
                cls = num[i] if i < len(num) else None
                prev = new[i - m] if i >= m else None
                if prev:
                    if chern.coeffs:  # else X = 1
                        prev = _divided(_mul(step, prev, rows), scale)
                    cls = prev if cls is None else [x + y for x, y in zip(cls, prev)]
                new.append(cls if cls and any(cls) else None)
            series = new
        # integrate with the weights of the ring over their common
        # denominator; the component's values are then over den * wden
        wden, weights = _integer_class(f.ring.integrals, index)
        weights = [(j, w) for j, w in enumerate(weights) if w]
        values = {}
        for i, cls in enumerate(series):
            if cls:
                value = sum(cls[j] * w for j, w in weights)
                if value:
                    values[low + i] = value
        parts.append((den * wden, values))
    # sum the components over one common denominator
    common = lcm(*(d for d, _ in parts))
    total: dict[int, int] = {}
    for d, values in parts:
        s = common // d
        for w_exp, value in values.items():
            total[w_exp] = total.get(w_exp, 0) + value * s
    total = {e: v for e, v in total.items() if v}
    bad = [e for e in total if e > bound]
    if bad:
        raise StabilizationError(
            f"expansion does not stabilize: nonzero coefficients at "
            f"t^{[-e for e in sorted(bad)]} beyond the bound {bound}; the "
            "data does not come from a compact manifold"
        )
    coeffs = {}
    for w_exp, v in total.items():
        count, rest = divmod(v, common)
        if rest:
            raise StabilizationError(
                f"character coefficient at t^{-w_exp} is {Fraction(v, common)}, "
                "not an integer; inconsistent fixed-point data"
            )
        coeffs[-w_exp] = count
    return CharacterPolynomial(coeffs)


def invariant_multiplicity(c: CharacterPolynomial, group: GroupKind) -> int:
    """Multiplicity of the trivial representation, read from the character.

    For the circle this is the weight-zero coefficient.  For SO(3) and SU(2)
    the irreducible characters restrict to the maximal torus with weight
    multiplicities forming a unitriangular system, whose inversion gives
    c_0 - c_1 (SO(3), weights in whole-root units) and c_0 - c_2 (SU(2),
    weights in half-root units).
    """
    if group is GroupKind.U1:
        return c[0]
    if not c.is_weyl_symmetric():
        raise SymmetryError(
            "character is not symmetric under weight negation; it cannot be "
            f"the restriction of a {group.value} representation"
        )
    if group is GroupKind.SO3:
        return c[0] - c[1]
    return c[0] - c[2]
