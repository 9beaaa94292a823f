"""The invariant count: per-component character contributions, their
residues in every chart, and the equivariant index as minus the sum of
residues at infinity, weighted by the group's Weyl factor.

The contribution of a fixed component F is the meromorphic function

    chi_F(t) = t**mu_F * integral_F( e^omega Td(F) /
                                     prod_j (1 - t**(-beta_j) e^{-c_j}) )

and h_F = chi_F(t) dt/t as a 1-form on the Riemann sphere.  The r_beta
directions of one weight beta share s = t**(-beta), and with
x_j = e^{-c_j} - 1 nilpotency makes their factors one finite sum,
prod_{beta_j = beta} 1/(1 - s e^{-c_j}) = sum_n h_n s**n / (1 - s)**(r_beta + n),
h_n the complete homogeneous polynomial of degree n in their x_j.  So the
integral is one table I_k = integral_F e^omega Td(F) prod_beta h_{k_beta},
one index per distinct weight, and chi_F (times a Laurent multiplier such as
the Weyl factor) is one exact rational function

    N_F(t) / prod_beta (1 - t**(-beta))**M_beta,
    N_F = t**mu * multiplier * sum_k I_k prod_beta s**k_beta (1 - s)**(K_beta - k_beta),

with K_beta the largest k_beta of a nonzero I_k and M_beta = r_beta + K_beta.
N_F is kept as integers over one common denominator D.  All ring work is the
table; every residue is scalar work in :mod:`quantred.laurent`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import sub

from .exactnum import fraction_sum
from .fixedpoint import FixedComponent, GroupKind, ProblemInstance, require_valid
from .laurent import Chart, _binomial_terms, _times, form_residue, outer_expansion


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
    """{k: (n, D)} with I_k = n / D != 0 (integers, not reduced), one index
    per distinct weight in the order of f.weights.  h_n is in the n-th power
    of the nilpotent ideal: rows and products stop at the nilpotency bound."""
    bound, one, zero = f.ring.nilpotency_bound, f.ring.one(), f.ring.zero()
    rows = {beta: [one] + [zero] * bound for beta in f.weights}
    xs = {(1, ()): zero}  # x = e^{-c} - 1 per distinct class, keyed by its integers
    for beta, c in zip(f.weights, f.normal_chern):
        if (x := xs.get(key := (c.den, tuple(c.num.items())))) is None:
            x = xs[key] = (-c).exp() - 1
        row = rows[beta]  # H_j[n] = H_{j-1}[n] + x_j H_j[n-1]
        for n in range(1, bound + 1):
            row[n] = row[n] + x * row[n - 1]
    *heads, last = rows.values() or [[one] + [zero] * bound]  # no weight: pair with 1
    classes = {(): f.omega.exp() * f.todd if f.omega.num else f.todd}
    for row in heads:
        grown = {}
        for k, cls in classes.items():
            grown[k + (0,)] = cls
            for n in range(1, bound + 1 - sum(k)):
                if (term := cls * row[n]).num:
                    grown[k + (n,)] = term
        classes = grown
    table = {}  # the last index is paired, not multiplied: I_k is a dot product
    for k, cls in classes.items():
        table[k + (0,)] = cls.integral_parts()
        for n in range(1, bound + 1 - sum(k)):
            h = last[n].num
            v = sum(w * a * h.get(tuple(map(sub, top, e)), 0)
                    for top, w in f.ring.integral_num for e, a in cls.num.items())
            table[k + (n,)] = (v, cls.den * last[n].den * f.ring.integral_den)
    return {k: v for k, v in table.items() if v[0]}


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
    ranks = {beta: f.weights.count(beta) for beta in f.weights}  # r_beta, in table order
    tops = [max(column) for column in zip(*table)]  # K_beta
    body: dict[int, int] = {}
    for k, (n, d) in table.items():
        poly = {0: n * (table_den // d)}
        for beta, kb, top in zip(ranks, k, tops):
            if top:
                poly = _times(poly, _binomial_terms(beta, kb, top))
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
    return (numerator, scale), {beta: r + top for (beta, r), top in zip(ranks.items(), tops)}


def residue_of_h(f: FixedComponent, at: Chart, weyl: WeylFactor | None = None,
                 twist: int = 0):
    """Exact residue of (weyl factor) * t**twist * h_F at the pole site
    ``at``, in the field ``form_residue`` puts it in."""
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
    """Minus the sum of the given residues at infinity, a list of one
    ``Fraction`` per component: the invariant count, or NonIntegerResultError."""
    total = -fraction_sum(infinity_residues)
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
