import math
import random

import pytest

from ratpoints.exact import (is_prime, normalize_primitive, primitive_vector,
                             unimodular_complete, valuation, xgcd)


def test_normalize_examples():
    assert normalize_primitive((2, 4, 6)).coords == (1, 2, 3)
    assert normalize_primitive((0, -3, 9)).coords == (0, 1, -3)
    assert normalize_primitive((-2, 0, 0, 4)).coords == (1, 0, 0, -2)


def test_normalize_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        normalize_primitive((0, 0, 0))


def test_height_examples():
    assert normalize_primitive((1, 2, 3)).height == 3
    assert normalize_primitive((1, 0, 0, 0)).height == 1
    assert normalize_primitive((0, 1, -3)).height == 3


def test_normalize_idempotent_and_scaling():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        v = [rng.randint(-20, 20) for _ in range(n)]
        if all(x == 0 for x in v):
            v[0] = 1
        p = normalize_primitive(v)
        assert normalize_primitive(p.coords) == p
        k = rng.choice([-7, -2, -1, 1, 3, 12])
        assert normalize_primitive([k * x for x in v]) == p
        g = 0
        for c in p.coords:
            g = __import__("math").gcd(g, c)
        assert g == 1
        first = next(c for c in p.coords if c != 0)
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


def test_xgcd_and_is_prime():
    rng = random.Random(8)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, u, v = xgcd(a, b)
        assert g == math.gcd(a, b) and a * u + b * v == g
    assert [n for n in range(-3, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(6) and not is_prime(1 << 20) and is_prime(1000003)
