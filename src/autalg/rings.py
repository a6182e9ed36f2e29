"""Exact coefficient arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
canonical residues ``0 <= a < p`` (ints) over a prime field.  A ``Ring``
bundles the arithmetic so that callers never branch on the ring kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadPrime, ZeroInverse

MAX_PRIME = 2**31 - 1


def is_prime(n: int) -> bool:
    """Trial division, a few milliseconds up to MAX_PRIME."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class Ring:
    """The rationals (``p is None``) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p <= MAX_PRIME) or not is_prime(self.p):
                raise BadPrime(f"{self.p} is not a prime in [2, 2^31-1]")

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def invert(self, a):
        if not a:
            raise ZeroInverse("inverse of zero")
        if self.p is None:
            return Fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def accumulate(self, acc: dict, key, c) -> None:
        """acc[key] += c, deleting the key when the sum is zero; a zero c
        stores nothing, so acc never holds a zero value."""
        cur = acc.get(key)
        if cur is None:
            if c:
                acc[key] = c
        else:
            s = self.add(cur, c)
            if s:
                acc[key] = s
            else:
                del acc[key]

    def parse(self, text: str):
        text = text.strip()
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar {text!r}") from exc
        if self.p is None:
            return q
        return reduce_mod_p(q, self.p)

    def __str__(self):
        return "Q" if self.p is None else f"Fp {self.p}"


QQ = Ring()


def GF(p: int) -> Ring:
    return Ring(p)


def reduce_mod_p(a: Fraction | int, p: int):
    """Image of a rational under reduction mod p; BadPrime if p divides the denominator."""
    a = Fraction(a)
    if a.denominator % p == 0:
        raise BadPrime(f"denominator of {a} divisible by {p}")
    return a.numerator * pow(a.denominator, p - 2, p) % p


def parse_ring(text: str) -> Ring:
    parts = text.split()
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "Fp":
        try:
            p = int(parts[1])
        except ValueError:
            raise BadPrime(f"bad prime {parts[1]!r}") from None
        return GF(p)
    raise ValueError(f"bad ring {text!r}")
