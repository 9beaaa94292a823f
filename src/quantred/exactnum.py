"""Exact scalar arithmetic: rationals and cyclotomic fields Q(zeta_N).

Every number that flows through the residue engine is either a
``fractions.Fraction`` or a :class:`Cyclotomic`.  A ``Cyclotomic`` with
conductor ``N`` is an element of Q[z]/Phi_N(z), where ``Phi_N`` is the N-th
cyclotomic polynomial, so ``z`` stands for a primitive N-th root of unity.
Working modulo ``Phi_N`` (rather than modulo ``z^N - 1``) keeps the ring a
field, which is what lets us divide by factors like ``1 - zeta**(-b)``.

A ``Cyclotomic`` stores phi(N) integer numerators over one positive
denominator, in lowest terms (the layout of FLINT's ``fmpq_poly``): an
operation works on integers and pays one gcd for the whole vector, where
``Fraction`` coefficients would pay one per coefficient.  Every reduction
modulo ``Phi_N`` (products, ``from_integers``, embeddings, Galois images)
runs through one kernel, ``_reduce``, which adds the cached integer rows of
``z**k mod Phi_N``.  An inverse is the product of the
other Galois conjugates over the norm; no verification inverts in Q(zeta_N).

Floating point never appears here; Python integers give us arbitrary
precision for free.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul, sub


class NotRationalError(ArithmeticError):
    """A cyclotomic value was expected to be rational and is not."""


# ---------------------------------------------------------------------------
# integer helpers (polynomials are little-endian lists of integers)
# ---------------------------------------------------------------------------

def _primes(n: int) -> list[int]:
    """The distinct primes of n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first.  Not cached: the
    library reads it only in ``_power_table``, cached per conductor.

    With r the product of the primes of n, Phi_n(z) = Phi_r(z^(n/r)), and
    Phi_r(z) is the Moebius product of the z^(r/d) - 1 over the divisors d
    of r: the factors with mu(d) = 1 multiply, then those with mu(d) = -1
    divide.  Multiplying or dividing by a binomial touches each coefficient
    once.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    primes = _primes(n)
    r = 1
    for p in primes:
        r *= p
    # the exponents r/d over the squarefree divisors d, by the sign of mu(d)
    up, down = [r], []
    for p in primes:
        up, down = up + [k // p for k in down], down + [k // p for k in up]
    poly = [1]
    for k in up:  # times z^k - 1
        out = [0] * (len(poly) + k)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + k] += c
        poly = out
    for k in down:  # divided by z^k - 1: p[i] = q[i - k] - q[i]
        q = []
        for i in range(len(poly) - k):
            q.append((q[i - k] if i >= k else 0) - poly[i])
        if any(poly[i] != (q[i - k] if i >= k else 0) for i in range(len(q), len(poly))):
            raise ArithmeticError("non-exact polynomial division")
        poly = q
    out = [0] * ((len(poly) - 1) * (n // r) + 1)
    out[:: n // r] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k holds z**k mod Phi_n, 0 <= k < n, as sparse (index, integer) pairs.

    Rows below phi(n) are unit vectors.  Each later row is the one before
    shifted up by one degree, with the z**phi(n) that overflows replaced by
    minus the lower terms of the monic Phi_n.
    """
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = [((k, 1),) for k in range(d)]
    row = [0] * d
    row[-1] = 1
    for _ in range(d, n):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(d):
                row[i] -= top * phi[i]
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
    return tuple(rows)


def _reduce(n: int, terms, out: list) -> list:
    """``out`` (phi(n) integers) plus the sum of c * z**k over the integer
    (k, c) pairs, modulo Phi_n: each pair adds c times row k mod n of the
    power table.  This is the one reduction of the field: products,
    ``from_integers``, embeddings and Galois images all run through it."""
    rows = _power_table(n)
    for k, c in terms:
        if c:
            for i, r in rows[k % n]:
                out[i] += c * r
    return out


@lru_cache(maxsize=None)
def phi_degree(n: int) -> int:
    """Euler's totient phi(n), the degree of Phi_n and of Q(zeta_n), by trial
    division: it never builds Phi_n.

    >>> phi_degree(1092)
    288
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    out = n
    for p in _primes(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def _trace_row(n: int) -> tuple[int, ...]:
    """Tr(z**k) for 0 <= k < phi(n), z a primitive n-th root of unity: the
    Ramanujan sum mu(m) phi(n)/phi(m) with m = n/gcd(n, k), an integer."""
    out = []
    for k in range(phi_degree(n)):
        m = n // gcd(n, k)
        primes = _primes(m)
        mu = (-1) ** len(primes) if prod(primes) == m else 0
        out.append(mu * (phi_degree(n) // phi_degree(m)))
    return tuple(out)


def _canonical(n: int, num: list, den: int) -> "Cyclotomic":
    # num / den in lowest terms: gcd(den, *num) = 1 and den > 0, so zero is
    # stored over 1
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _new(n, tuple(num), den)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_N): sum_k num[k] z**k / den.

    ``num`` holds phi(N) integers and ``den`` one positive integer, with
    gcd(den, *num) = 1 (zero is stored over 1).  This form is unique, so
    ``==`` in one field compares the integers.  ``coeffs`` gives the
    coefficients as ``Fraction``s.  Instances are immutable.  Arithmetic with
    ``int`` and ``Fraction`` coerces those into the field; arithmetic between
    different conductors promotes both operands into Q(zeta_lcm).
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs) -> None:
        # rationals over their common denominator, then reduced like
        # from_integers
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        x = Cyclotomic.from_integers(
            conductor, [c.numerator * (den // c.denominator) for c in coeffs], den)
        _set_conductor(self, conductor)
        _set_num(self, x.num)
        _set_den(self, x.den)

    def __setattr__(self, *args):
        raise AttributeError("Cyclotomic values are immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_integers(cls, conductor: int, numerators, denominator: int = 1) -> "Cyclotomic":
        """sum_k numerators[k] z**k / denominator, for any number of integer
        numerators: the part below phi(N) is kept as it is; only higher
        terms add rows of the power table."""
        d = phi_degree(conductor)
        low = list(numerators[:d])
        low += [0] * (d - len(low))
        return _canonical(
            conductor, _reduce(conductor, enumerate(numerators[d:], d), low), denominator)

    @classmethod
    def from_rational(cls, conductor: int, value) -> "Cyclotomic":
        value = Fraction(value)
        num = [0] * phi_degree(conductor)
        num[0] = value.numerator
        return _new(conductor, tuple(num), value.denominator)

    @property
    def coeffs(self) -> tuple:
        """The coefficients num[k] / den, as ``Fraction``s."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    def _embedded(self, m: int, k: int) -> "Cyclotomic":
        # z -> zeta_m**k, a primitive N-th root: an embedding keeps the
        # numerators' content, so the image is in lowest terms as it stands
        out = _reduce(m, ((j * k, c) for j, c in enumerate(self.num)), [0] * phi_degree(m))
        return _new(m, tuple(out), self.den)

    def promoted(self, conductor: int) -> "Cyclotomic":
        """The image of self under the canonical embedding z -> z**(M/N) into
        Q(zeta_M), M the given conductor, a multiple of N = self.conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                f"no embedding of Q(zeta_{self.conductor}) into "
                f"Q(zeta_{conductor})"
            )
        return self._embedded(conductor, conductor // self.conductor)

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            if other.conductor == self.conductor:
                return self, other
            n = lcm(self.conductor, other.conductor)
            return self.promoted(n), other.promoted(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(self.conductor, other)
        return None, None

    # -- ring operations -----------------------------------------------------

    def _sum(self, other, sign):
        # self + sign * other, sign 1 or -1
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.conductor, list(map(add if sign > 0 else sub, a.num, b.num)), da)
        sign *= da
        return _canonical(
            a.conductor, [x * db + y * sign for x, y in zip(a.num, b.num)], da * db)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.conductor, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational factor scales the numerators and the denominator
            return _canonical(self.conductor, [c * other.numerator for c in self.num],
                              self.den * other.denominator)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n, d = a.conductor, len(a.num)
        right = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in right:
                    out[i + j] += x * y
        return _canonical(n, _reduce(n, enumerate(out[d:], d), out[:d]), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, x**-1 = prod_{a != 1} sigma_a(x) / N(x), where
        N(x) = x * prod_{a != 1} sigma_a(x) is a nonzero rational.  Division
        by zero here signals a pole factor that the series machinery should
        have expanded instead.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n = self.conductor
        others = prod((self.galois(a) for a in range(2, n) if gcd(a, n) == 1),
                      start=Cyclotomic.from_rational(n, 1))
        return others * (1 / (self * others).rational_part())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclotomic.from_rational(self.conductor, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} does not lie in Q")
        return Fraction(self.num[0], self.den)

    def galois(self, a: int) -> "Cyclotomic":
        """Apply the Galois automorphism z -> z**a (a coprime to N).  A
        rational value is its own image."""
        n = self.conductor
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not coprime to the conductor {n}")
        if self.is_rational():
            return self
        return self._embedded(n, a)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.den == b.den and a.num == b.num
        return NotImplemented

    def trace(self) -> Fraction:
        """Tr(self) from Q(zeta_N) to Q: the sum of ``galois(a)`` over the a
        coprime to N, read off the cached traces of the powers of z."""
        return Fraction(sum(map(mul, self.num, _trace_row(self.conductor))), self.den)

    def __hash__(self):
        # equal values in different fields must hash alike, so hash the
        # normalized trace Tr(x)/phi(N).  It is the same in every Q(zeta_M)
        # that contains x, and it is x itself when x is rational.
        return hash(self.trace() / phi_degree(self.conductor))

    def __bool__(self):
        return any(self.num)

    def __complex__(self):
        # numeric shadow: ``cli.scalar_str`` prints it for ``--decimal``, and
        # tests use it as an independent cross-check
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        den = self.den
        return sum(complex(c / den) * z**k for k, c in enumerate(self.num))

    def coefficient_strings(self) -> list[str]:
        """Each coefficient num[k] / den as ``str(Fraction)`` prints it, read
        off the integers."""
        den, out = self.den, []
        if den == 1:
            return list(map(str, self.num))
        for c in self.num:
            if not c:
                out.append("0")
                continue
            g = gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out

    def __str__(self):
        return polynomial_text(self.coefficient_strings())

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {str(self)!r})"


# the slots' own setters: they skip the immutability guard, and calling them
# directly is about twice as fast as object.__setattr__
_set_conductor = Cyclotomic.conductor.__set__
_set_num = Cyclotomic.num.__set__
_set_den = Cyclotomic.den.__set__


def _new(n: int, num: tuple, den: int) -> Cyclotomic:
    # wrap phi(n) reduced integer numerators over den, already in lowest terms
    out = object.__new__(Cyclotomic)
    _set_conductor(out, n)
    _set_num(out, num)
    _set_den(out, den)
    return out


# ---------------------------------------------------------------------------
# module-level operations mirroring the scalar API
# ---------------------------------------------------------------------------

def polynomial_text(coeffs: list[str]) -> str:
    """sum_k coeffs[k] z**k as ``str(Cyclotomic)`` prints it, from the
    coefficient strings (``Cyclotomic.coefficient_strings``).

    >>> polynomial_text(["1/2", "0", "-1", "3"])
    '1/2 - z^2 + 3*z^3'
    """
    terms = []
    for k, c in enumerate(coeffs):
        if c != "0":
            if k:
                mono = "z" if k == 1 else f"z^{k}"
                c = mono if c == "1" else f"-{mono}" if c == "-1" else f"{c}*{mono}"
            terms.append(c)
    # a "-" begins a term or nothing: " + -" only ever joins a negative term
    return " + ".join(terms).replace(" + -", " - ") or "0"


def fraction_sum(values) -> Fraction:
    """The sum of a list of ``Fraction``s: integer numerators over the lcm of
    the denominators, added as integers, make one ``Fraction``."""
    common = lcm(*(x.denominator for x in values))
    return Fraction(sum([x.numerator * (common // x.denominator) for x in values]), common)
