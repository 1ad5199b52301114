"""Exact integer kernels: primitive vectors, content division of integer
lists, unimodular completion, primality and valuations, and the
CertificateError that every certificate in the package raises.

Everything here is arbitrary-precision Python int; nothing ever rounds.

A rational projective point is stored as the unique primitive integer
representative whose first nonzero coordinate is positive, so point sets
can be compared directly and each point is stored once instead of as +-x.
"""

from __future__ import annotations

from math import gcd


class CertificateError(AssertionError):
    """An exact certificate failed.  Raised explicitly, never by `assert`,
    so that `python -O` keeps every check."""


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


def divide_content(row):
    """An integer list divided by the gcd of its entries, signs kept; the
    list itself when that gcd is 0 or 1."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


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
    # a*d - b*g = 1 forces b*g = -1 (mod a); exact division then gives d
    g = -pow(b, -1, abs(a)) % abs(a)
    return (g, (1 + b * g) // a)


# the least strong pseudoprime to every one of the first 13 prime bases
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact for
    n < 3317044064679887385961981; ValueError at or above that."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    if any(n % p == 0 for p in bases):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
