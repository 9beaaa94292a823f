"""Shared strategies and small independent oracles for the test suite."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import strategies as st

from quantred import Cyclotomic, RingPresentation, CohomologyClass, phi_degree


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


@pytest.fixture
def p1_ring():
    return RingPresentation.projective_line()


@pytest.fixture
def p1xp1_ring():
    return RingPresentation(("x", "y"), (2, 2), 4, {(1, 1): 1})
