"""Shared strategies and small independent oracles for the test suite."""

from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import strategies as st

from quantred import (
    Cyclotomic,
    RingPresentation,
    CohomologyClass,
    component_form,
    phi_degree,
    residue_row,
    root_order,
)
from quantred.laurent import Site, _recurrence


def mobius(n: int) -> int:
    """Moebius function by trial factorization (test oracle)."""
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def bernoulli_plus(n: int) -> Fraction:
    """Bernoulli numbers with the B_1 = +1/2 convention, by the classical
    recurrence sum_{k<=n} C(n+1, k) B_k = n+1 applied to B^+ directly.

    Independent of the package's power recurrence; used to verify
    the Todd coefficients: x/(1 - e^{-x}) = sum B^+_n x^n / n!.
    """
    b = []
    for m in range(n + 1):
        # B^+_m = 1 - sum_{k<m} C(m,k) B^+_k / (m - k + 1)
        acc = Fraction(1)
        for k in range(m):
            acc -= Fraction(comb(m, k), m - k + 1) * b[k]
        b.append(acc)
    return b[n]


small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def cyclotomics(conductor: int):
    return st.lists(
        small_fractions,
        min_size=phi_degree(conductor),
        max_size=phi_degree(conductor),
    ).map(lambda cs: Cyclotomic(conductor, cs))


def ring_classes(pres: RingPresentation, nilpotent=False, scalars=small_fractions):
    monos = [e for e in pres.monomials() if not (nilpotent and sum(e) == 0)]
    return st.lists(
        scalars, min_size=len(monos), max_size=len(monos)
    ).map(lambda vs: CohomologyClass(pres, dict(zip(monos, vs))))


def twisted(r=0, weyl=None):
    """t**r times a WeylFactor's density (1 if None), as the multiplier
    ``component_form`` takes: the pair ({t-exponent: int}, D)."""
    terms, den = weyl.poly if weyl is not None else ({0: 1}, 1)
    return {e + r: a for e, a in terms.items()}, den


def residue_at(numerator, denominator, chart):
    """The cell of ``residue_row(numerator, denominator)`` at a Chart: a
    Fraction at zero and at infinity; at zeta_n**k, of order d, the cell at
    (d, k d / n) in Q(zeta_d), a Fraction for d <= 2, and zero off the walls
    (where the row has no cell)."""
    at_zero, cells, at_infinity, _ = residue_row(numerator, denominator)
    if chart.kind != "root":
        return at_zero if chart.kind == "zero" else at_infinity
    d = root_order(chart.conductor, chart.exponent)
    zero = Fraction(0) if d <= 2 else Cyclotomic.from_rational(d, 0)
    return cells.get((d, chart.exponent * d // chart.conductor), zero)


def window_expansion(numerator, recurrence, low, high):
    """var**low .. var**high of N / Q for a ``laurent.Recurrence``: every
    adding recurrence q[n] += q[n - a] run over the whole window.  The
    reference for the engine's kernel, which reads off var**0 alone."""
    sigma, negate, shift, steps = recurrence
    terms, scale = numerator
    out = [Fraction(0)] * (high - low + 1)
    if not terms:
        return out
    # the var-exponents lo .. top of N(var) / prod (1 - var**a) that land
    # in the window after the shift
    lo, top = min(terms) if sigma > 0 else -max(terms), high - shift
    if top < lo:
        return out
    q = [0] * (top - lo + 1)
    for r, a in terms.items():
        if (e := sigma * r) <= top:
            q[e - lo] = a
    for a in steps:
        for i in range(a, len(q)):
            q[i] += q[i - a]
    if negate:
        scale = -scale
    for e in range(max(low, lo + shift), high + 1):
        v = q[e - shift - lo]
        if v:
            out[e - low] = Fraction(v, scale)
    return out


def expansion(numerator, denominator, sigma, low, high):
    """var**low .. var**high of N / prod (1 - t**(-beta))**M at zero
    (sigma = 1, var = t) or at infinity (sigma = -1, var = 1/t), by the
    window reference."""
    return window_expansion(numerator, _recurrence(denominator.items(), sigma), low, high)


def chart_character(p, sigma, top):
    """sum_F chi_F as {t-exponent: coefficient} for |m| <= top, read off
    every component's form expanded at zero (sigma = 1) or at infinity
    (sigma = -1): the two charts must assemble the same Laurent
    polynomial."""
    out = {}
    for f in p.components:
        for e, v in enumerate(expansion(*component_form(f), sigma, -top, top), -top):
            if v:
                out[sigma * e] = out.get(sigma * e, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}


def wall_roots(weights):
    """The wall roots of normal weights, as ``residue_row`` keys its cells:
    t = 1 and every root of unity exp(2 pi i k / |beta|) of a weight beta,
    each as the pair (d, j) of zeta_d**j in lowest terms k / |beta| = j / d,
    sorted.  The reference for ``laurent._plan``, which lists them by
    order instead of by weight."""
    roots = {Fraction(k, abs(b)) for b in weights for k in range(abs(b))}
    return tuple(sorted((r.denominator, r.numerator) for r in roots | {Fraction(0)}))


def reference_site(d, shape):
    """The site record of zeta_d for a denominator shape (sorted (beta, M)
    pairs), by the formulas ``laurent._plan`` replaced: Q expanded for this
    site alone, and the lead 1/T_0 as one ``Cyclotomic`` product per factor
    off the walls.  The reference the plan's sites must equal exactly."""
    walls = [(beta, m) for beta, m in shape if beta % d == 0]
    pole = sum(m for _, m in walls)
    if not pole:
        return Site(d, 0, (), 1)
    rational = d <= 2 or len(walls) == len(shape)
    # Q = prod (1 - t**(-beta))**M as {t-exponent: integer}
    q_poly = {0: 1}
    for beta, m in shape:
        out = {}
        for c, q in q_poly.items():
            for i in range(m + 1):
                out[c - beta * i] = out.get(c - beta * i, 0) + q * (-1) ** i * comb(m, i)
        q_poly = out
    # (P+n)! T_n = sum_c q_c zeta**c c**(P+n), 0 < n < P, at the offsets c mod d
    rows = [[0] * max(d, 2) for _ in range(1, pole)]
    for c, q in q_poly.items():
        for n, row in enumerate(rows, 1):
            row[c % d] += q * c ** (pole + n)
    taylor = [None] + [row[0] - row[1] if rational else Cyclotomic.from_integers(d, row)
                       for row in rows]
    # 1/T_0: beta**(-M) per wall, and per factor off the walls (1 - z)**(-M),
    # z = zeta**(-beta) of order e, 1/(1 - z) = -(1/e) sum_{i<e} i z**i
    num, den = 1, prod(beta ** m for beta, m in walls)
    for beta, m in shape:
        if k := -beta % d:
            e = d // gcd(d, k)
            w = [0] * max(d, 2)
            for i in range(1, e):
                w[i * k % d] -= i
            w = w[0] - w[1] if rational else Cyclotomic.from_integers(d, w)
            for _ in range(m):
                num, den = num * w, den * e
    # r_n = -r_0 sum_{k=1..n} T_k r_(n-k), in exact arithmetic
    r = [Fraction(num, den) if rational else num * Fraction(1, den)]
    for n in range(1, pole):
        s = sum((taylor[k] * Fraction(1, factorial(pole + k)) * r[n - k]
                 for k in range(2, n + 1)), taylor[1] * Fraction(1, factorial(pole + 1)) * r[n - 1])
        r.append(-r[0] * s)
    # W_i = r_(P-1-i) / i!, each in lowest terms (a zero W_i over i!), over
    # the lcm of their denominators
    parts = []
    for i, x in enumerate(reversed(r)):
        x = x * Fraction(1, factorial(i))
        num, den = ((x.numerator,), x.denominator) if rational else (x.num, x.den)
        parts.append((num, den if any(num) else factorial(i)))
    common = lcm(*(den for _, den in parts))
    return Site(d, pole, tuple(tuple(v * (common // den) for v in num) for num, den in parts),
                common)


@pytest.fixture
def p1_ring():
    return RingPresentation.projective_line()


@pytest.fixture
def p1xp1_ring():
    return RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): 1})
