"""The invariant count: one rational function per component, its character
contribution weighted by the group's Weyl density (``GroupKind.weyl_density``,
from the data model), and the equivariant index as minus the sum of their
residues at infinity.

The contribution of a fixed component F is the meromorphic function

    chi_F(t) = t**mu_F * integral_F( e^omega Td(F) /
                                     prod_j (1 - t**(-beta_j) e^{-c_j}) )

and h_F = chi_F(t) dt/t as a 1-form on the Riemann sphere.  The r_beta
directions of one weight beta share s = t**(-beta), and with
x_j = e^{-c_j} - 1 nilpotency makes their factors one finite sum,
prod_{beta_j = beta} 1/(1 - s e^{-c_j}) = sum_n h_n s**n / (1 - s)**(r_beta + n),
h_n the complete homogeneous polynomial of degree n in their x_j.  So the
integral is one table I_k = integral_F e^omega Td(F) prod_beta h_{k_beta},
one index per distinct weight on a nonzero class (on any other, x_j = 0 and
h_n = 0 for n >= 1), and chi_F (times a Laurent multiplier such as the Weyl
density) is one exact rational function

    N_F(t) / prod_beta (1 - t**(-beta))**M_beta,
    N_F = t**mu * multiplier * sum_k I_k prod_beta s**k_beta (1 - s)**(K_beta - k_beta),

with K_beta the largest k_beta of a nonzero I_k (0 for a weight without an
index) and M_beta = r_beta + K_beta.
N_F is kept as integers over one common denominator D, and so is the
multiplier, which is only shifted by mu.  All ring work is the
table, and the table runs only when some weight carries a nonzero class: with
none (at every isolated point) I = integral_F e^omega Td(F) is one number and
M_beta = r_beta.  Every residue is scalar work in :mod:`quantred.laurent`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import sub

from .exactnum import fraction_sum
from .fixedpoint import FixedComponent
from .laurent import _binomial_terms, _times


class NonIntegerResultError(ArithmeticError):
    """An invariant count came out non-integral: inconsistent input data."""


# ---------------------------------------------------------------------------
# one rational function per component
# ---------------------------------------------------------------------------

def _integral_table(f: FixedComponent) -> dict:
    """{k: (n, D)} with I_k = n / D != 0 (integers, not reduced), one index
    per distinct weight on a nonzero class in the order of f.weights.  h_n
    is in the n-th power of the nilpotent ideal: rows and products stop at
    the nilpotency bound."""
    bound, one, zero = f.ring.nilpotency_bound, f.ring.one(), f.ring.zero()
    rows = {}
    xs = {}  # x = e^{-c} - 1 per distinct class, keyed by its integers
    for beta, c in zip(f.weights, f.normal_chern):
        if not c.num:  # x = 0: h_n = 0 for n >= 1
            continue
        if (x := xs.get(key := (c.den, tuple(c.num.items())))) is None:
            x = xs[key] = (-c).exp() - 1
        if (row := rows.get(beta)) is None:
            row = rows[beta] = [one] + [zero] * bound
        for n in range(1, bound + 1):  # H_j[n] = H_{j-1}[n] + x_j H_j[n-1]
            row[n] = row[n] + x * row[n - 1]
    *heads, last = rows.values()
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


def component_form(f: FixedComponent, multiplier: tuple | None = None) -> tuple[tuple, dict]:
    """chi_F(t) * multiplier(t) as one rational function N(t) /
    prod (1 - t**(-beta))**M (see the module docstring): the pair
    (numerator, denominator).  The numerator is N as integers over one
    positive denominator D, the pair ({t-exponent: nonzero int}, D) in
    lowest terms; the denominator is {beta: M} over every weight of F, so
    its walls are F's even where N = 0.  The multiplier is a Laurent
    polynomial in the numerator's layout, ({t-exponent: int}, positive D),
    1 if None; it is only shifted by mu.  The integral table, built only
    for a component with a nonzero normal class, is the only ring work."""
    if 0 in f.weights:
        raise ValueError(f"component {f.name!r} has a zero weight")
    terms, mult_den = ({0: 1}, 1) if multiplier is None else multiplier
    poles = dict.fromkeys(f.weights, 0)  # M_beta = r_beta + K_beta, in the order of f.weights
    for beta in f.weights:
        poles[beta] += 1
    # the table's indices; any other weight has h_n = 0 for n >= 1, so
    # K_beta = 0 and it only adds r_beta to M_beta
    carried = dict.fromkeys(b for b, c in zip(f.weights, f.normal_chern) if c.num)
    if carried:
        table = _integral_table(f)
        # one denominator for the table: with the multiplier's, their
        # product clears every denominator of N
        table_den = lcm(*(d for _, d in table.values()))
        tops = dict(zip(carried, map(max, zip(*table))))  # K_beta
        body: dict[int, int] = {}
        for k, (n, d) in table.items():
            poly = {0: n * (table_den // d)}
            for (beta, top), kb in zip(tops.items(), k):
                if top:
                    poly = _times(poly, _binomial_terms(beta, kb, top))
            for r, a in poly.items():
                body[r] = body.get(r, 0) + a
        for beta, top in tops.items():
            poles[beta] += top
    else:  # every x_j = 0: N = t**mu * multiplier * I, one integral
        n, table_den = (f.omega.exp() * f.todd if f.omega.num else f.todd).integral_parts()
        body = {0: n}
    shifted = {f.moment + r: a for r, a in terms.items()}
    numerator = {e: v for e, v in _times(shifted, body.items()).items() if v}
    scale = table_den * mult_den
    g = gcd(scale, *numerator.values())
    if g != 1:
        numerator = {e: v // g for e, v in numerator.items()}
        scale //= g
    return (numerator, scale), poles


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
