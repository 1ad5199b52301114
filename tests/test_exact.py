import math
import random

import pytest

from ratpoints.exact import (is_prime, primitive_vector, unimodular_complete,
                             valuation)


def test_normalize_examples():
    assert primitive_vector((2, 4, 6)) == (1, 2, 3)
    assert primitive_vector((0, -3, 9)) == (0, 1, -3)
    assert primitive_vector((-2, 0, 0, 4)) == (1, 0, 0, -2)


def test_normalize_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        primitive_vector((0, 0, 0))


def test_height_examples():
    # the height of a projective point is the sup norm of its primitive
    # representative, not of the tuple it was given as
    def height(v):
        return max(map(abs, primitive_vector(v)))

    assert height((2, 4, 6)) == 3
    assert height((1, 0, 0, 0)) == 1
    assert height((0, -5, 15)) == 3


def test_normalize_idempotent_and_scaling():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        v = [rng.randint(-20, 20) for _ in range(n)]
        if all(x == 0 for x in v):
            v[0] = 1
        p = primitive_vector(v)
        assert primitive_vector(p) == p
        k = rng.choice([-7, -2, -1, 1, 3, 12])
        assert primitive_vector([k * x for x in v]) == p
        assert math.gcd(*p) == 1
        first = next(c for c in p if c != 0)
        assert first > 0


def test_unimodular_examples():
    assert unimodular_complete(1, 0) == (0, 1)
    assert unimodular_complete(2, 3) == (1, 2)
    assert unimodular_complete(5, 7) == (2, 3)


def test_unimodular_determinant_property():
    rng = random.Random(5)
    from math import gcd
    checked = 0
    while checked < 300:
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if gcd(a, b) != 1:
            continue
        g, d = unimodular_complete(a, b)
        assert a * d - b * g == 1
        assert 0 <= g < abs(a) if a else (g, d) == (-b, 0)
        checked += 1


def test_unimodular_not_coprime():
    with pytest.raises(ValueError, match="not coprime"):
        unimodular_complete(2, 4)


def test_primitive_vector():
    assert primitive_vector((6, -9)) == (2, -3)


def test_valuation():
    assert valuation(0, 5) is None
    assert valuation(250, 5) == 3
    assert valuation(-12, 2) == 2
    assert valuation(7, 5) == 0


def test_is_prime():
    assert [n for n in range(-3, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(6) and not is_prime(1 << 20) and is_prime(1000003)
    # against trial division below 10^5
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5)
        if n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))]
    # a Carmichael number, then the least strong pseudoprimes to the
    # first 4, 9 and 12 prime bases
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    limit = 3317044064679887385961981
    assert not is_prime(limit - 1)
    for n in (limit, limit + 2):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)
