import random

import pytest

from ratpoints import uniroots as U


def test_count_abs_le_against_scan():
    rng = random.Random(7)
    for _ in range(250):
        d = rng.randint(1, 5)
        coeffs = [rng.randint(-20, 20) for _ in range(d)]
        coeffs.append(rng.choice([c for c in range(-20, 21) if c]))
        T = rng.randint(1, 500)
        M = U.root_bound(coeffs) + T + 25
        brute = sum(1 for t in range(-M, M + 1)
                    if abs(U.evaluate(coeffs, t)) <= T)
        assert U.count_abs_le(coeffs, T) == brute, (coeffs, T)


def test_integer_roots_against_scan():
    rng = random.Random(11)
    for _ in range(250):
        d = rng.randint(1, 6)
        coeffs = [rng.randint(-30, 30) for _ in range(d)]
        coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
        M = U.root_bound(coeffs) + 2
        brute = sorted(t for t in range(-M, M + 1)
                       if U.evaluate(coeffs, t) == 0)
        assert U.integer_roots(coeffs) == brute


def test_constructed_roots_recovered():
    rng = random.Random(23)
    for _ in range(100):
        roots = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        lead = rng.choice([1, 2, -3])
        coeffs = [lead * c for c in coeffs]
        assert U.integer_roots(coeffs) == sorted(set(roots))


def test_quadratic_integer_roots():
    assert U.quadratic_integer_roots(1, 0, -4) == [-2, 2]
    assert U.quadratic_integer_roots(1, -2, 1) == [1]
    assert U.quadratic_integer_roots(1, 0, 2) == []
    assert U.quadratic_integer_roots(2, 1, 0) == [0]  # -1/2 is not integral


def test_errors():
    with pytest.raises(ValueError):
        U.integer_roots([])
    with pytest.raises(ValueError):
        U.count_abs_le([5], 10)


def test_isolation_finds_all_real_roots():
    # (t^2 - 2)(t - 3): irrational pair plus an integer root
    coeffs = [6, -2, -3, 1]
    recs = U.isolate_real_roots(coeffs)
    assert len(recs) == 3
    assert U.integer_roots(coeffs) == [3]


def test_sturm_data_computed_once_per_call(monkeypatch):
    # the squarefree part and its Sturm chain are built once and shared
    # with root isolation, not rebuilt inside it
    calls = []
    for name in ("squarefree_part", "sturm_chain"):
        real = getattr(U, name)

        def spy(coeffs, real=real, name=name):
            calls.append(name)
            return real(coeffs)
        monkeypatch.setattr(U, name, spy)
    for run in (lambda: U.count_abs_le([3, -1, 4, 1, 5], 10**6),
                lambda: U.integer_roots([-6, 11, -6, 1])):
        calls.clear()
        run()
        assert sorted(calls) == ["squarefree_part", "sturm_chain"]
    assert U.integer_roots([-6, 11, -6, 1]) == [1, 2, 3]
