"""Exact integer kernels: primitive vectors, projective points, heights,
the extended gcd and primality, and the CertificateError that every
certificate in the package raises.

Everything here is arbitrary-precision Python int; nothing ever rounds.
All values are immutable and freely shareable across threads.

A rational projective point is stored as the unique primitive integer
representative whose first nonzero coordinate is positive, so point sets
can be compared directly and each point is stored once instead of as +-x.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class CertificateError(AssertionError):
    """An exact certificate failed.  Raised explicitly, never by `assert`,
    so that `python -O` keeps every check."""


def gcd_all(values) -> int:
    """gcd of an iterable of integers (0 for an empty or all-zero input)."""
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def primitive_vector(v) -> tuple[int, ...]:
    """Scale an integer vector to gcd 1 with first nonzero entry positive.

    Raises ValueError on the zero vector.
    """
    v = tuple(map(int, v))
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no projective point")
    if next(c for c in v if c) < 0:
        g = -g
    return v if g == 1 else tuple(c // g for c in v)


@dataclass(frozen=True)
class ProjPoint:
    """A rational projective point in normalized primitive form."""

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)


def normalize_primitive(v) -> ProjPoint:
    """Normalize an integer tuple to the canonical projective representative.

    The result has coordinate gcd 1, first nonzero coordinate positive, and
    is a rational multiple of the input.
    """
    return ProjPoint(primitive_vector(v))


def unimodular_complete(a: int, b: int) -> tuple[int, int]:
    """Return (g, d) with a*d - b*g = 1, completing (a, b) to a det-1 matrix.

    Requires gcd(a, b) = 1.  The representative is canonical: g is reduced
    to [0, |a|) when a != 0, and (g, d) = (-b, 0) when a = 0.
    """
    if gcd(a, b) != 1:
        raise ValueError("not coprime")
    if a == 0:
        # b = +-1 and -b*g = 1
        return (-b, 0)
    # extended gcd: a*u + b*v = 1, so (g, d) = (-v, u) solves a*d - b*g = 1
    _, u, v = xgcd(a, b)
    g, d = -v, u
    # shift (g, d) -> (g + a*t, d + b*t) to land g in [0, |a|)
    g0 = g % abs(a)
    t = (g0 - g) // a  # exact: g0 - g is a multiple of a
    return (g0, d + b * t)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) >= 0 and a*u + b*v = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def is_prime(n: int) -> bool:
    """Primality by trial division; the moduli here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def valuation(n: int, p: int):
    """Exponent of the prime p in n; None (treated as +infinity) for n = 0."""
    if n == 0:
        return None
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
