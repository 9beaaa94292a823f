"""Independent verification path: assemble the full character as a finite
Laurent polynomial by expanding every fixed component's contribution at
t -> infinity (in w = 1/t), then read off invariant multiplicities by
elementary character theory.

Each normal factor 1/(1 - w^b e^{-c}) is applied to the running series s by
the recurrence it defines, s[e] = num[e] + X s[e - m], one exponent at a
time up to a checked tail window; a negative weight is first rewritten as
-w^m e^{c} / (1 - w^m e^{c}) with m = -b.  The summed expansion must vanish
in that tail, which certifies the data.

This module deliberately re-implements its own tiny monomial arithmetic on
plain dictionaries instead of reusing the series/ring machinery: the point
is to certify the residue engine against a path that shares nothing with it
beyond exact scalar arithmetic and the input data model.
"""

from __future__ import annotations

from fractions import Fraction

from .fixedpoint import GroupKind, InvalidInstanceError, ProblemInstance


class StabilizationError(ArithmeticError):
    """The summed expansion did not stabilize: the fixed-point data is not
    consistent with any compact manifold."""


class SymmetryError(ValueError):
    """A character fed to a nonabelian multiplicity count was not symmetric
    under negation of weights."""


# -- minimal monomial-dict ring -------------------------------------------
# a class is {exponent tuple: Fraction}; truncation orders come from the
# component's ring presentation

def _mono_mul(a, b, orders):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x >= m for x, m in zip(e, orders)):
                continue
            out[e] = out.get(e, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _mono_scale(a, s):
    return {e: v * s for e, v in a.items() if v * s}


def _mono_add(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, Fraction(0)) + v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def _mono_exp(a, orders):
    rank = len(orders)
    out = {(0,) * rank: Fraction(1)}
    term = {(0,) * rank: Fraction(1)}
    n = 0
    while True:
        n += 1
        term = _mono_scale(_mono_mul(term, a, orders), Fraction(1, n))
        if not term:
            break
        out = _mono_add(out, term)
    return out


def _as_dict(cls):
    return {e: Fraction(v) for e, v in cls.coeffs.items()}


# -- character assembly -----------------------------------------------------

def automatic_degree_bound(p: ProblemInstance) -> int:
    """Support bound for the character, from the data alone: beyond
    max(|moment| + sum |weights| * (1 + top_degree/2)) + 1 every coefficient
    of the summed expansion must vanish."""
    bound = 0
    for f in p.components:
        slack = 1 + f.ring.top_degree // 2
        bound = max(bound, abs(f.moment) + slack * sum(abs(b) for b in f.weights))
    return bound + 1


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
    top = bound + auto + 4  # checked tail window: (bound, top]
    total: dict[int, Fraction] = {}
    for f in p.components:
        orders = f.ring.orders
        base = _mono_mul(_mono_exp(_as_dict(f.omega), orders), _as_dict(f.todd), orders)
        series: dict[int, dict] = {-f.moment: base}
        for b, chern in zip(f.weights, f.normal_chern):
            if b == 0:
                raise InvalidInstanceError(f"component {f.name!r} has a zero weight")
            # the factor 1/(1 - w^b e^{-c}), applied by its recurrence
            # s[e] = num[e] + X s[e - m]: for b > 0, num is the series,
            # X = e^{-c} and m = b; for b < 0 the factor is
            # -w^m e^{c} / (1 - w^m e^{c}) with m = -b, so num is
            # -w^m e^{c} times the series and X = e^{c}
            m = abs(b)
            step = _mono_exp(_mono_scale(_as_dict(chern), Fraction(-1 if b > 0 else 1)), orders)
            num = series
            if b < 0:
                lift = _mono_scale(step, Fraction(-1))
                num = {e + m: _mono_mul(cls, lift, orders) for e, cls in series.items()}
            new: dict[int, dict] = {}
            for e in range(min(num), top + 1):
                cls = num.get(e, {})
                if e - m in new:
                    cls = _mono_add(cls, _mono_mul(new[e - m], step, orders))
                if cls:
                    new[e] = cls
            series = new
        table = f.ring.integrals
        for w_exp, cls in series.items():
            value = Fraction(0)
            for expo, weight in table.items():
                value += cls.get(expo, Fraction(0)) * weight
            if value:
                total[w_exp] = total.get(w_exp, Fraction(0)) + value
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
        if v.denominator != 1:
            raise StabilizationError(
                f"character coefficient at t^{-w_exp} is {v}, not an integer; "
                "inconsistent fixed-point data"
            )
        coeffs[-w_exp] = int(v)
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
