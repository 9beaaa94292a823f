"""Independent verification path: assemble the full character as a finite
Laurent polynomial by expanding every fixed component's contribution at
t -> infinity (in w = 1/t), then read off invariant multiplicities by
elementary character theory.

Each normal factor 1/(1 - w^b e^{-c}) is applied to the running series s by
the recurrence it defines, s[e] = num[e] + X s[e - m], up to a checked tail
window; a negative weight is first rewritten as -w^m e^{c} / (1 - w^m e^{c})
with m = -b, and its sign is carried per component to where the components
are summed.  The summed expansion must vanish in that tail, which certifies
the data.

The arithmetic is in integers.  A class is a flat list of ints indexed by
monomial, a series in w is one integer column per monomial over the exponent
window, and each component carries one positive denominator D for its whole
series.  Before a normal factor is applied, L = K! den(c)^K (K the largest
power of c that is nonzero) makes L X integral, and D becomes D L.  As
N = L X - L only moves weight to higher monomials, the columns are finished
in index order: column k is L num_k plus the quotient by L of (N S)_k shifted
by m, which must be exact (a remainder raises ``ArithmeticError``), then the
running sum S_k[e] += S_k[e - m], one ``accumulate`` per residue class mod m
(over the whole column for m = 1).  Columns are combined by ``map`` over
:mod:`operator` functions (``_axpy``), and a scale or weight of 1 is never
applied.  Inputs are read off their integer layout (numerators over one
denominator, :mod:`quantred.cohomology`); a ``Fraction`` appears only in the
message for a non-integral coefficient.

This module deliberately re-implements this small ring arithmetic instead of
reusing the series/ring machinery: the point is to certify the residue
engine against a path that shares nothing with it beyond the input data
model.  It imports only :mod:`quantred.fixedpoint` and the standard library.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product as _cartesian, repeat
from math import factorial, gcd, lcm
from operator import add, floordiv, mod, mul, sub

from .fixedpoint import (
    MAX_EXPANSION_WINDOW,
    MAX_ORACLE_WORK,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    oracle_top,
    oracle_work,
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
    products = ([index.get(tuple(map(add, e1, e2))) for e2 in monos] for e1 in monos)
    return index, tuple(tuple((j, k) for j, k in enumerate(row) if k is not None)
                        for row in products)


def _mul(a, b, rows):
    out = [0] * len(a)
    for x, row in zip(a, rows):
        if x:
            for j, k in row:
                out[k] += x * b[j]
    return out


def _axpy(a, x, b):
    """a + x b entry by entry, as long as the shorter list; x = 1 or -1
    multiplies nothing."""
    if x == 1:
        return list(map(add, a, b))
    if x == -1:
        return list(map(sub, a, b))
    return list(map(add, a, map(mul, repeat(x), b)))


def _integer_class(terms, index):
    """A flat integer class from (exponent, int) pairs: a class's
    ``num.items()``, to be read over its ``den``, or a ring's
    ``integral_num``, over its ``integral_den``."""
    out = [0] * len(index)
    for e, v in terms:
        out[index[e]] = v
    return out


def _scaled_exp(cls, index, rows, sign=1):
    """(L, E) with E = L * exp(sign * cls) a flat integer class.

    With cls = A / d nilpotent and K the largest k with A^k != 0,
    L = K! d^K and E = sum_k (K!/k!) d^(K-k) (sign A)^k.  Every
    L exp(j * cls), j an integer, is integral for this L, which is what
    makes the division in the recurrence exact."""
    one = [1] + [0] * (len(index) - 1)
    if not cls.num:  # most normal directions of a point
        return 1, one
    d, a = cls.den, [sign * x for x in _integer_class(cls.num.items(), index)]
    powers = [one]
    while any(nxt := _mul(powers[-1], a, rows)):
        powers.append(nxt)
    top = len(powers) - 1
    out = [0] * len(a)
    for k, power in enumerate(powers):
        out = _axpy(out, factorial(top) // factorial(k) * d ** (top - k), power)
    return factorial(top) * d**top, out


# -- character assembly -----------------------------------------------------

def automatic_degree_bound(p: ProblemInstance) -> int:
    """Support bound for the character, from the data alone: beyond the
    instance's expansion window (``p.window``) every coefficient of the
    summed expansion must vanish."""
    return p.window


class CharacterPolynomial:
    """Finite Laurent polynomial with integer coefficients: weight -> count.
    A non-integral weight or count raises ``ValueError``."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        raw = {m: c for m, c in dict(coefficients).items() if c}
        clean = {int(m): int(c) for m, c in raw.items()}
        if clean != raw:  # int() truncated a weight or a count
            raise ValueError(f"character terms {raw!r} are not all integral")
        object.__setattr__(self, "coefficients", clean)

    def __setattr__(self, *args):
        raise AttributeError("characters are immutable")

    def __getitem__(self, m: int) -> int:
        return self.coefficients.get(m, 0)

    # a missing weight reads 0, so the legacy sequence protocol would never
    # stop: iteration and ``in`` raise TypeError instead
    __iter__ = None

    def support(self):
        return sorted(self.coefficients)

    def is_weyl_symmetric(self) -> bool:
        c = self.coefficients
        return c == {-m: v for m, v in c.items()}

    def __eq__(self, other):
        if isinstance(other, dict):
            try:
                other = CharacterPolynomial(other)
            except (TypeError, ValueError):  # not an integral character
                return False
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


def _character(coefficients: dict) -> CharacterPolynomial:
    # wrap {int: nonzero int} the oracle built, without cleaning it again
    out = object.__new__(CharacterPolynomial)
    object.__setattr__(out, "coefficients", coefficients)
    return out


def oracle_window(p: ProblemInstance, degree_bound: int | None = None) -> tuple[int, int]:
    """The oracle's support bound, ``degree_bound`` raised to the automatic
    bound, and the top exponent of its expansion.  A bound above
    ``MAX_EXPANSION_WINDOW``, or oracle work up to that top above
    ``MAX_ORACLE_WORK``, raises :class:`InvalidInstanceError`."""
    auto = automatic_degree_bound(p)
    bound = auto if degree_bound is None else max(int(degree_bound), auto)
    if bound > MAX_EXPANSION_WINDOW:
        raise InvalidInstanceError(
            f"the character expansion bound {bound} is above the limit of "
            f"{MAX_EXPANSION_WINDOW}"
        )
    top = oracle_top(p, bound)
    work = oracle_work(p, top)
    if work > MAX_ORACLE_WORK:
        raise InvalidInstanceError(
            f"the character oracle needs {work} column steps, above the limit "
            f"of {MAX_ORACLE_WORK}"
        )
    return bound, top


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
    bound, top = oracle_window(p, degree_bound)  # checked tail window: (bound, top]
    parts = []  # (denominator, sign, low, integer values at w^low, w^(low+1), ...)
    for f in p.components:
        index, rows = _monomials(f.ring.orders)
        # s[e] = sum_k series[k][e - low] x^k / den
        scale, expo = _scaled_exp(f.omega, index, rows)
        base = _mul(expo, _integer_class(f.todd.num.items(), index), rows)
        den = scale * f.todd.den
        g = gcd(den, *base)
        series = [[x // g] for x in base]
        den //= g
        low, sign = -f.moment, 1
        for b, chern in zip(f.weights, f.normal_chern):
            if b == 0:
                raise InvalidInstanceError(f"component {f.name!r} has a zero weight")
            # for b > 0, num is the series, X = e^{-c} and m = b; for b < 0,
            # num is -w^m e^{c} times the series, X = e^{c} and m = -b, and
            # the sign goes to the component's sign
            m = abs(b)
            scale, step = _scaled_exp(chern, index, rows, -1 if b > 0 else 1)
            nil = [[] for _ in series]  # nil[k]: (j, N_i) with x^i x^j = x^k
            for i, x in enumerate(step[1:], 1):
                for j, k in rows[i] if x else ():
                    nil[k].append((j, x))
            num = [c if scale == 1 else list(map(mul, repeat(scale), c)) for c in series]
            if b < 0:  # L e^{c} S = L S + N S
                for k, terms in enumerate(nil):
                    for j, x in terms:
                        num[k] = _axpy(num[k], x, series[j])
                low, sign = low + m, -sign
            den *= scale
            size = top - low + 1
            series = []
            for col, terms in zip(num, nil):
                col = col[:size] + [0] * (size - len(col))
                if terms:  # add (N S)_k / L over the first size - m exponents, shifted by m
                    acc = col[m:] if scale == 1 else [0] * (size - m)
                    for j, x in terms:
                        acc = _axpy(acc, x, series[j])
                    if scale != 1:
                        if any(map(mod, acc, repeat(scale))):
                            raise ArithmeticError(
                                f"inexact division by {scale} in the oracle recurrence")
                        acc = map(add, col[m:], map(floordiv, acc, repeat(scale)))
                    col[m:] = acc
                # S_k[e] += S_k[e - m], one residue class mod m at a time
                if m == 1:
                    col = list(accumulate(col))
                else:
                    for r in range(m):
                        col[r::m] = accumulate(col[r::m])
                series.append(col)
        # integrate with the ring's integer weights, over integral_den
        values = []
        for col, w in zip(series, _integer_class(f.ring.integral_num, index)):
            if w:
                col = col if w == 1 else map(mul, repeat(w), col)
                values = list(map(add, values, col) if values else col)
        parts.append((den * f.ring.integral_den, sign, low, values))
    # sum the components over one common denominator; windows end by top
    common = lcm(*(d for d, _, _, _ in parts))
    lo = min(low for _, _, low, _ in parts)
    total = [0] * (top - lo + 1)
    for d, sign, low, values in parts:
        i = low - lo
        total[i:i + len(values)] = _axpy(total[i:], sign * (common // d), values)
    bad = list(compress(range(bound + 1, top + 1), total[bound + 1 - lo:]))
    if bad:
        raise StabilizationError(
            f"expansion does not stabilize: nonzero coefficients at "
            f"t^{[-e for e in bad]} beyond the bound {bound}; the "
            "data does not come from a compact manifold"
        )
    # the tail (bound, top] is zero, and the character is read off lo .. bound
    if common != 1 and any(map(mod, total, repeat(common))):
        odd = {lo + i for i, v in enumerate(total) if v % common}
        # name the first one met component by component, lowest exponent first
        w_exp = next(low + i for _, _, low, values in parts
                     for i, v in enumerate(values) if v and low + i in odd)
        raise StabilizationError(
            f"character coefficient at t^{-w_exp} is "
            f"{Fraction(total[w_exp - lo], common)}, "
            "not an integer; inconsistent fixed-point data"
        )
    counts = total if common == 1 else map(floordiv, total, repeat(common))
    return _character(dict(compress(zip(range(-lo, -bound - 1, -1), counts), total)))


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
