"""The invariant count: per-component character contributions, their
residues in every chart, and the equivariant index as minus the sum of
residues at infinity, weighted by the group's Weyl factor.

The contribution of a fixed component F is the meromorphic function

    chi_F(t) = t**mu_F * integral_F( e^omega Td(F) /
                                     prod_j (1 - t**(-beta_j) e^{-c_j}) )

and h_F = chi_F(t) dt/t as a 1-form on the Riemann sphere.  With
x_j = e^{-c_j} - 1 and s_j = t**(-beta_j), nilpotency makes each factor a
finite sum, 1/(1 - s_j e^{-c_j}) = sum_k s_j**k x_j**k / (1 - s_j)**(k+1).
So the integral is one table I_k = integral_F e^omega Td(F) prod_j x_j**k_j,
and chi_F (times a Laurent multiplier such as the Weyl factor) is one exact
rational function

    N_F(t) / prod_beta (1 - t**(-beta))**M_beta,
    N_F = t**mu * multiplier * sum_k I_k prod_j s_j**k_j (1 - s_j)**(K_j - k_j),

with K_j the largest k_j of a nonzero I_k and M_beta the sum of K_j + 1 over
the directions of weight beta.  N_F is kept as integer coefficients over
one common denominator D, so that building it and expanding it add
integers.  All ring work is the table; every residue is scalar work in
:mod:`quantred.laurent`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .exactnum import fraction_sum, rational_part
from .fixedpoint import FixedComponent, GroupKind, ProblemInstance, require_valid
from .laurent import Chart, form_residue, outer_expansion


class NonIntegerResultError(ArithmeticError):
    """An invariant count came out non-integral: inconsistent input data."""


class WeylFactor(namedtuple("WeylFactor", "group")):
    """The density from the Weyl integration formula, as a Laurent
    polynomial in t: trivial for the circle, (2 - t - 1/t)/2 for SO(3),
    (2 - t^2 - 1/t^2)/2 for SU(2) (whose positive root is twice the weight
    lattice generator).  ``group`` is the GroupKind."""

    __slots__ = ()

    @property
    def poly(self) -> dict[int, Fraction]:
        return dict(_WEYL_POLYS[self.group])


_WEYL_POLYS = {
    GroupKind.U1: {0: Fraction(1)},
    GroupKind.SO3: {0: Fraction(1), 1: Fraction(-1, 2), -1: Fraction(-1, 2)},
    GroupKind.SU2: {0: Fraction(1), 2: Fraction(-1, 2), -2: Fraction(-1, 2)},
}


# ---------------------------------------------------------------------------
# one rational function per component
# ---------------------------------------------------------------------------

def _integral_table(f: FixedComponent) -> dict:
    """{k: (n, D)} over the multi-indices k with I_k = n / D != 0, where
    I_k = integral_F e^omega Td(F) prod_j x_j**k_j and x_j = e^{-c_j} - 1;
    the pairs are integers, not reduced."""
    base = f.omega.exp() * f.todd if f.omega.num else f.todd
    # (c, x) per distinct nonzero Chern class, matched by identity, then by
    # value: a class's hash would sort its terms and hash its presentation
    seen = []
    classes = {(): base}
    for c in f.normal_chern:
        if not c.num:  # x = 0: only the multi-index grows
            classes = {k + (0,): cls for k, cls in classes.items()}
            continue
        x = next((x0 for c0, x0 in seen if c0 is c or c0 == c), None)
        if x is None:
            x = (-c).exp() - 1
            seen.append((c, x))
        grown = {}
        for k, cls in classes.items():
            grown[k + (0,)] = cls
            term, power = cls * x, 1
            while term.num:  # x is nilpotent
                grown[k + (power,)] = term
                term, power = term * x, power + 1
        classes = grown
    table = {}
    for k, cls in classes.items():
        n, d = cls.integral_parts()
        if n:
            table[k] = (n, d)
    return table


@lru_cache(maxsize=None)
def _binomial_terms(beta: int, k: int, top: int) -> tuple:
    # s**k (1 - s)**(top - k) with s = t**(-beta), as (t-exponent, integer) pairs
    return tuple((-beta * (k + i), (-1) ** i * comb(top - k, i)) for i in range(top - k + 1))


def component_form(f: FixedComponent, multiplier: dict | None = None) -> tuple[tuple, dict]:
    """chi_F(t) * multiplier(t) as one rational function N(t) /
    prod (1 - t**(-beta))**M (see the module docstring): the pair
    (numerator, denominator).  The numerator is N as integers over one
    positive denominator D, the pair ({t-exponent: nonzero int}, D) in
    lowest terms; the denominator is {beta: M}.  The integral table is
    the only ring work."""
    if 0 in f.weights:
        raise ValueError(f"component {f.name!r} has a zero weight")
    table = _integral_table(f)
    if not table:
        return ({}, 1), {}
    multiplier = multiplier or {0: Fraction(1)}
    # one denominator for the table and one for the multiplier: their
    # product clears every denominator of N
    table_den = lcm(*(d for _, d in table.values()))
    mult_den = lcm(*(a.denominator for a in multiplier.values()))
    tops = [max(k[j] for k in table) if c.num else 0 for j, c in enumerate(f.normal_chern)]
    body: dict[int, int] = {}
    for k, (n, d) in table.items():
        poly = {0: n * (table_den // d)}
        for beta, kj, top in zip(f.weights, k, tops):
            if top:
                poly = _times(poly, _binomial_terms(beta, kj, top))
        for r, a in poly.items():
            body[r] = body.get(r, 0) + a
    numerator: dict[int, int] = {}
    for r, a in multiplier.items():
        a = a.numerator * (mult_den // a.denominator)
        for e, v in body.items():
            e += f.moment + r
            numerator[e] = numerator.get(e, 0) + a * v
    numerator = {e: v for e, v in numerator.items() if v}
    scale = table_den * mult_den
    g = gcd(scale, *numerator.values())
    if g != 1:
        numerator = {e: v // g for e, v in numerator.items()}
        scale //= g
    denominator: dict[int, int] = {}
    for beta, top in zip(f.weights, tops):
        denominator[beta] = denominator.get(beta, 0) + top + 1
    return (numerator, scale), denominator


def _times(poly: dict, terms) -> dict:
    out: dict = {}
    for r, a in poly.items():
        for e, c in terms:
            out[r + e] = out.get(r + e, 0) + a * c
    return out


def residue_of_h(f: FixedComponent, at: Chart, weyl: WeylFactor | None = None,
                 twist: int = 0):
    """Exact residue of (weyl factor) * t**twist * h_F at the pole site
    ``at``.  The returned scalar is rational at 0, 1 and infinity, and
    cyclotomic at other roots of unity.
    """
    poly = weyl.poly if weyl is not None else {0: Fraction(1)}
    if twist:
        poly = {r + twist: a for r, a in poly.items()}
    return form_residue(*component_form(f, poly), at)


def rr_invariant(p: ProblemInstance) -> Fraction:
    """The virtual dimension of the invariant part: minus the sum over
    components of the residue at infinity of (Weyl factor) * h_F.

    Always an integer for consistent data; a non-integer result raises.
    """
    require_valid(p)
    weyl = WeylFactor(p.group)
    return invariant_from_residues(
        [residue_of_h(f, Chart.at_infinity(), weyl) for f in p.components]
    )


def invariant_from_residues(infinity_residues) -> Fraction:
    """Minus the sum of the given residues at infinity (one per component):
    the invariant count.  Raises NonIntegerResultError unless integral."""
    total = -fraction_sum([rational_part(value) for value in infinity_residues])
    if total.denominator != 1:
        raise NonIntegerResultError(
            f"invariant count {total} is not an integer; the fixed-point "
            "data is inconsistent"
        )
    return total


def character_from_chart(p: ProblemInstance, chart: Chart, top: int) -> dict[int, Fraction]:
    """Coefficients of sum_F chi_F read from the expansion of every
    component's rational function at zero or at infinity, by the recurrence
    the residues use; used to check that the 0-chart and the infinity-chart
    assemble the same finite Laurent polynomial.  Returns {t-exponent:
    coefficient} for |m| <= top."""
    out: dict[int, Fraction] = {}
    sign = 1 if chart.kind == "zero" else -1
    for f in p.components:
        coeffs = outer_expansion(*component_form(f), chart, -top, top)
        for e, v in enumerate(coeffs, -top):
            if v:
                out[sign * e] = out.get(sign * e, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}
