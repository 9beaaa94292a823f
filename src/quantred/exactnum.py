"""Exact scalar arithmetic: rationals and cyclotomic fields Q(zeta_N).

Every number that flows through the residue engine is either a
``fractions.Fraction`` or a :class:`Cyclotomic`.  A ``Cyclotomic`` with
conductor ``N`` is an element of Q[z]/Phi_N(z), where ``Phi_N`` is the N-th
cyclotomic polynomial, so ``z`` stands for a primitive N-th root of unity.
Working modulo ``Phi_N`` (rather than modulo ``z^N - 1``) keeps the ring a
field, which is what lets us divide by factors like ``1 - zeta**(-b)``.
Every reduction modulo ``Phi_N`` (products, embeddings, Galois images,
roots of unity) sums cached integer rows of ``z**k mod Phi_N``.

Floating point never appears here; Python integers give us arbitrary
precision for free.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class NotRationalError(ArithmeticError):
    """A cyclotomic value was expected to be rational and is not."""


_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (little-endian coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = _poly_trim([Fraction(c) for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, _poly_trim(a)


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first.

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


def _reduce(n: int, terms, out=None) -> tuple:
    """``out`` (phi(n) Fractions, zero if None) plus the sum of c * z**k over
    the (k, c) pairs, modulo Phi_n: each pair adds c times row k mod n of the
    power table.  This is the one reduction of the field."""
    rows = _power_table(n)
    if out is None:
        out = [_ZERO] * phi_degree(n)
    for k, c in terms:
        if c:
            for i, r in rows[k % n]:
                if r == 1:
                    out[i] += c
                elif r == -1:
                    out[i] -= c
                else:
                    out[i] += c * r
    return tuple(out)


def _element(n: int, coeffs: tuple) -> "Cyclotomic":
    # wrap an already reduced tuple of phi(n) Fractions, without converting
    # or reducing it again
    out = object.__new__(Cyclotomic)
    object.__setattr__(out, "conductor", n)
    object.__setattr__(out, "coeffs", coeffs)
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


def _mobius_over_phi(m: int) -> Fraction:
    """mu(m)/phi(m): the product of -1/(p - 1) over the primes p of m when m
    is squarefree, else 0."""
    out = Fraction(1)
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return Fraction(0)
            out /= 1 - p
        p += 1
    if m > 1:
        out /= 1 - m
    return out


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_N), stored as a vector modulo Phi_N.

    Instances are immutable.  Arithmetic with ``int`` and ``Fraction``
    coerces those into the field; arithmetic between different conductors
    promotes both operands into Q(zeta_lcm).
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs) -> None:
        # the part below phi(N) is kept as it is; only higher terms add rows
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        d = phi_degree(conductor)
        low = coeffs[:d] + [_ZERO] * (d - len(coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(
            self, "coeffs", _reduce(conductor, enumerate(coeffs[d:], d), low)
        )

    def __setattr__(self, *args):
        raise AttributeError("Cyclotomic values are immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rational(cls, conductor: int, value) -> "Cyclotomic":
        return cls(conductor, [Fraction(value)])

    def promoted(self, conductor: int) -> "Cyclotomic":
        """The image of self under the canonical embedding into Q(zeta_M).

        Requires ``self.conductor`` to divide ``conductor``; the embedding
        sends z to z**(M/N).
        """
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                f"no embedding of Q(zeta_{self.conductor}) into "
                f"Q(zeta_{conductor})"
            )
        step = conductor // self.conductor
        return _element(conductor, _reduce(
            conductor, ((k * step, c) for k, c in enumerate(self.coeffs))
        ))

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            n = lcm(self.conductor, other.conductor)
            return self.promoted(n), other.promoted(n)
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(self.conductor, other)
        return None, None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        # adding a zero coefficient is skipped: it would only copy the other.
        # tuple() of a list allocates once; of a generator it grows and
        # shrinks the tuple, which left warm runs about 0.4 MB larger
        return _element(a.conductor, tuple([
            x + y if x and y else x or y for x, y in zip(a.coeffs, b.coeffs)
        ]))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.conductor, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _element(a.conductor, tuple([
            x - y if y else x for x, y in zip(a.coeffs, b.coeffs)
        ]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        prod = [_ZERO] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(a.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by the extended Euclidean algorithm
        against Phi_N.  Division by zero here signals a pole factor that
        the series machinery should have expanded instead.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = modulus, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s_next = _poly_trim(
                [
                    (s0[i] if i < len(s0) else Fraction(0))
                    - sum(
                        q[j] * s1[i - j]
                        for j in range(len(q))
                        if 0 <= i - j < len(s1)
                    )
                    for i in range(max(len(s0), len(q) + len(s1) - 1))
                ]
            )
            r0, r1, s0, s1 = r1, r, s1, s_next
        unit = r1[0]
        return Cyclotomic(self.conductor, [c / unit for c in s1])

    def __truediv__(self, other):
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
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(f"{self!r} does not lie in Q")
        return self.coeffs[0]

    def galois(self, a: int) -> "Cyclotomic":
        """Apply the Galois automorphism z -> z**a (a coprime to N)."""
        n = self.conductor
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not coprime to the conductor {n}")
        return _element(n, _reduce(
            n, ((k * a, c) for k, c in enumerate(self.coeffs))
        ))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        # equal values in different fields must hash alike, so hash the
        # normalized trace Tr(x)/phi(N): Tr(z**k) is the Ramanujan sum
        # mu(N/g) phi(N)/phi(N/g), g = gcd(N, k).  It is the same in every
        # Q(zeta_M) that contains x, and it is x itself when x is rational.
        n = self.conductor
        return hash(sum(
            c * _mobius_over_phi(n // gcd(n, k)) for k, c in enumerate(self.coeffs) if c
        ))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        # numeric shadow, used only by tests as an independent cross-check
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(complex(c) * z**k for k, c in enumerate(self.coeffs))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {str(self)!r})"


# ---------------------------------------------------------------------------
# module-level operations mirroring the scalar API
# ---------------------------------------------------------------------------

def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n**k as an element of Q(zeta_n).

    >>> root_of_unity(2, 1) == -1
    True
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    k %= n
    return Cyclotomic(n, [_ZERO] * k + [Fraction(1)])


def rational_part(x) -> Fraction:
    """The value of x as a Fraction, if x lies in Q; NotRationalError if not.

    Galois-orbit sums of residues land in Q; failing this check signals an
    incomplete orbit sum or corrupted input data.
    """
    if isinstance(x, Cyclotomic):
        return x.rational_part()
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def root_order(n: int, k: int) -> int:
    """Multiplicative order of zeta_n**k."""
    return n // gcd(n, k % n or n)
