import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import ratpoints
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
    assert U.integer_roots([-4, 0, 1]) == [-2, 2]
    assert U.integer_roots([1, -2, 1]) == [1]
    assert U.integer_roots([2, 0, 1]) == []
    assert U.integer_roots([0, 1, 2]) == [0]  # -1/2 is not integral
    # two consecutive roots share one interval of abs_le_intervals
    assert U.integer_roots([992, 63, 1]) == [-32, -31]
    assert U.integer_roots([6, -5, -1]) == [-6, 1]  # -(t + 6)(t - 1)


def test_closed_forms_at_their_boundaries():
    T = 10**400
    # |2t + 1| <= T, T even: 2t + 1 runs over the odd numbers in [-T, T]
    assert U.abs_le_intervals([1, 2], T) == [(-T // 2, T // 2 - 1)]
    assert U.abs_le_intervals([1, -2], T) == [(-T // 2 + 1, T // 2)]
    assert U.abs_le_intervals([1, 0, 1], T) == [(-U.isqrt(T - 1), U.isqrt(T - 1))]
    # 2T <= t^2 <= 4T: the hole t^2 < 2T splits the set in two
    s = U.isqrt(2 * T - 1) + 1
    assert U.abs_le_intervals([-3 * T, 0, 1], T) == [(-2 * 10**200, -s),
                                                     (s, 2 * 10**200)]
    assert U.abs_le_intervals([-100, 0, 1], 10) == [(-10, -10), (10, 10)]
    assert U.abs_le_intervals([-100, 0, 1], 100) == [(-14, 14)]
    # double roots at T = 0, in closed form and by Sturm bisection
    assert U.abs_le_intervals([1, -2, 1], 0) == [(1, 1)]
    assert U.abs_le_intervals([4, 0, -3, 1], 0) == [(-1, -1), (2, 2)]
    assert U.abs_le_intervals([0, 0, 0, 1], 0) == [(0, 0)]
    assert U.abs_le_intervals([1, 0, 1], -1) == []
    assert U.abs_le_intervals([3, 1], -1) == []


def test_errors():
    with pytest.raises(ValueError):
        U.integer_roots([])
    with pytest.raises(ValueError):
        U.count_abs_le([5], 10)


def test_isolation_finds_all_real_roots():
    # (t^2 - 2)(t - 3): irrational pair plus an integer root; squarefree,
    # so its chain ends in a constant and is the one the pieces use
    coeffs = [6, -2, -3, 1]
    chain = U.sturm_chain(coeffs)
    assert len(chain[-1]) == 1
    M = U.root_bound(chain[0])
    assert U.sign_variations(chain, -M) - U.sign_variations(chain, M) == 3
    assert U.integer_roots(coeffs) == [3]
    # times (t - 3): the chain ends in gcd(q, q') = t - 3 up to sign, and
    # the chain of the exact quotient counts the same three roots
    chain = U.sturm_chain(U.poly_mul(coeffs, [-3, 1]))
    assert chain[-1] in ([-3, 1], [3, -1])
    quotient = U.divexact_poly(chain[0], chain[-1])
    assert quotient in (coeffs, [-x for x in coeffs])
    chain = U.sturm_chain(quotient)
    assert U.sign_variations(chain, -M) - U.sign_variations(chain, M) == 3
    assert U.integer_roots(U.poly_mul(coeffs, [-3, 1])) == [3]


def test_sturm_data_computed_once_per_call(monkeypatch):
    # one chain per squarefree query, shared by the root bound and the
    # pieces; a second, of the exact quotient, only at a multiple root
    calls = []
    for name in ("sturm_chain", "divexact_poly"):
        real = getattr(U, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(U, name, spy)
    double = U.poly_mul([4, -4, 1], [1, 0, 1])  # (t - 2)^2 (t^2 + 1)
    for run, expected in (
            (lambda: U.count_abs_le([3, -1, 4, 1, 5], 10**6), 1),
            (lambda: U.integer_roots([-6, 11, -6, 1]), 1),
            (lambda: U.integer_roots(double), 2),
            # p - 7 is double, so p^2 - 7^2 has a double root at 2
            (lambda: U.count_abs_le([double[0] + 7] + double[1:], 7), 2)):
        calls.clear()
        run()
        assert calls.count("sturm_chain") == expected
        assert calls.count("divexact_poly") == expected - 1
    assert U.integer_roots([-6, 11, -6, 1]) == [1, 2, 3]


def _scan(coeffs, T):
    """(t, p(t)) for every t strictly inside the root bound of p^2 - T^2,
    outside which |p(t)| > T."""
    q = U.poly_mul([coeffs[0] - T] + coeffs[1:], [coeffs[0] + T] + coeffs[1:])
    M = U.root_bound(q)
    return [(t, U.evaluate(coeffs, t)) for t in range(-M + 1, M)]


def _check_against_scan(coeffs, T):
    values = _scan(coeffs, T)
    assert U.abs_le_intervals(coeffs, T) == U.abs_le_intervals(
        [-x for x in coeffs], T)
    assert [t for lo, hi in U.abs_le_intervals(coeffs, T)
            for t in range(lo, hi + 1)] == [t for t, v in values if abs(v) <= T]
    assert U.count_abs_le(coeffs, T) == sum(1 for _, v in values if abs(v) <= T)
    if T == 0:
        assert U.integer_roots(coeffs) == [t for t, v in values if v == 0]


def test_multiple_integer_roots_against_a_scan(monkeypatch):
    t = [0, 1]

    def prod(*factors):
        out = [1]
        for f in factors:
            out = U.poly_mul(out, f)
        return out

    def plus(p, k):
        return [p[0] + k] + p[1:]
    cases = [
        # T = 0: p itself has the multiple roots
        (prod([-3, 1], [-3, 1], [1, 1], [1, 0, 1]), 0),
        (prod([2, 1], [2, 1], [2, 1]), 0),
        (prod(t, t, [-5, 1], [2, 1]), 0),  # 0 is the first midpoint
        (prod([-1, 1], [-1, 1], [1, 1], [1, 1], [3, 0, 1]), 0),
        (prod([-3], t, t, t, t, [7, 1]), 0),
        # T > 0: p - T or p + T has a double or triple integer root
        (plus(prod([-2, 1], [-2, 1], [1, 0, 1]), 7), 7),
        (plus(prod(t, t, [-4, 1]), -5), 5),
        (plus(prod([1, 1], [1, 1], [1, 1], [-6, 1]), 9), 9),
    ]
    points = []
    real = U.sign_variations

    def spy(chain, x):
        points.append(x)
        return real(chain, x)
    monkeypatch.setattr(U, "sign_variations", spy)
    for coeffs, T in cases:
        points.clear()
        _check_against_scan(coeffs, T)
        # the double roots of p^2 - T^2 are the integers where |p| = T and
        # p' = 0; some of them end a bisection piece, where V is evaluated
        doubles = [x for x in range(-50, 51)
                   if abs(U.evaluate(coeffs, x)) == T
                   and U.evaluate(U.derivative(coeffs), x) == 0]
        assert doubles and set(doubles) & set(points), (coeffs, T)


def test_random_polynomials_with_repeated_factors_against_a_scan():
    rng = random.Random(43)
    repeated = 0
    for i in range(2000):
        if i % 2:  # a repeated integer factor (t - r)^k, k >= 2
            r, k = rng.randint(-6, 6), rng.randint(2, 3)
            coeffs = [1]
            for _ in range(k):
                coeffs = U.poly_mul(coeffs, [-r, 1])
            rest = [rng.randint(-9, 9) for _ in range(rng.randint(3 - k, 6 - k))]
            coeffs = U.poly_mul(coeffs, rest + [rng.choice([1, -1, 2, -3])])
            repeated += 1
        else:
            coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(3, 6))]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
        T = 0 if i % 4 < 2 else rng.randint(1, 2000)
        if T and i % 2:  # shift so that p - T has the repeated factor
            coeffs[0] += T
        _check_against_scan(coeffs, T)
    assert repeated * 3 >= 2000


def test_fujiwara_bound_holds_every_real_root_strictly_inside():
    rng = random.Random(29)
    t = sympy.Symbol("t")
    polys = [[-10**60, 0, 0, 1], [10**40 - 1, 0, -10**20, 0, 1], [0, 0, 1],
             U.poly_mul([-(10**30), 1], [3, 0, -1])]
    for _ in range(60):
        d = rng.randint(1, 6)
        coeffs = [rng.randint(-10**rng.randint(0, 12), 10**rng.randint(0, 12))
                  for _ in range(d)]
        coeffs.append(rng.choice([c for c in range(-50, 51) if c]))
        polys.append(coeffs)
    for coeffs in polys:
        M = U.root_bound(coeffs)
        roots = sympy.real_roots(sympy.Poly(list(reversed(coeffs)), t))
        assert all(-M < r < M for r in roots), (coeffs, M)
    # the bound is not far off: t^3 - 10^60 has the root 10^20
    assert U.root_bound([-10**60, 0, 0, 1]) == 2 * 10**20 + 1


def test_huge_T_bisects_from_near_the_roots(monkeypatch):
    # the roots of (t^3 + 1)^2 - T^2 lie near +-T^(1/3), and Fujiwara's
    # bound starts the bisection at a 444-bit M (891 calls at T = 10^400);
    # Cauchy's bound, about T^2, would start it at about 2660 bits
    calls = []
    real = U.sign_variations

    def spy(chain, x):
        calls.append(x)
        return real(chain, x)
    monkeypatch.setattr(U, "sign_variations", spy)
    T = 10**400

    def icbrt(n):
        return sympy.integer_nthroot(n, 3)[0]
    assert U.count_abs_le([1, 0, 0, 1], T) == icbrt(T - 1) + icbrt(T + 1) + 1
    assert len(calls) < 1500


def _radius(coeffs, T):
    """R with |p(t)| > T for every integer |t| >= R: there |t| > 2S/L, so
    |p(t)| >= |t|^d (L - S/|t|) > L |t|^d / 2, and |t|^d > 2T/L."""
    *low, lead = coeffs
    L, d, S = abs(lead), len(low), sum(abs(a) for a in low)
    r = 0
    while (r + 1) ** d <= 2 * T // L:
        r += 1
    return max(1, 2 * S // L + 1, r + 1)


@st.composite
def products(draw):
    """lead * prod (t - r_i) with repeats, optionally times an irreducible
    quadratic t^2 + b t + c."""
    pool = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3))
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    coeffs = [draw(st.sampled_from([1, -1, 2, -3, 6]))]
    for r in roots:
        coeffs = U.poly_mul(coeffs, [-r, 1])
    if draw(st.booleans()):
        b = draw(st.integers(-5, 5))
        c = draw(st.integers(b * b // 4 + 1, b * b // 4 + 12))
        coeffs = U.poly_mul(coeffs, [c, b, 1])
    return coeffs


@settings(derandomize=True, max_examples=150, deadline=None)
@given(products(), st.sampled_from([0, 1, 7, 3000]))
def test_roots_and_counts_match_a_scan_within_the_cauchy_radius(coeffs, T):
    # T = 0 makes every root of p a double root of p^2 - T^2
    R = _radius(coeffs, T)
    values = [(t, U.evaluate(coeffs, t)) for t in range(-R, R + 1)]
    assert U.integer_roots(coeffs) == [t for t, v in values if v == 0]
    assert U.count_abs_le(coeffs, T) == sum(1 for _, v in values if abs(v) <= T)
    intervals = U.abs_le_intervals(coeffs, T)
    assert all(lo <= hi for lo, hi in intervals)
    assert all(hi + 1 < lo2 for (_, hi), (lo2, _) in zip(intervals, intervals[1:]))
    assert [t for lo, hi in intervals for t in range(lo, hi + 1)] == [
        t for t, v in values if abs(v) <= T]


def test_count_abs_le_certificate_survives_python_O():
    # a root bound that leaves |p| <= T outside it must raise, also under
    # python -O (the script's own assert fails unless -O has stripped it)
    script = (
        "import ratpoints.uniroots as U\n"
        "assert False, 'asserts are live'\n"
        "U.root_bound = lambda coeffs: 1\n"
        "try:\n"
        "    U.count_abs_le([0, 0, 0, 1], 5)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised: p stays within T outside the root bound of p^2 - T^2\n"


def test_inexact_division_raises_under_python_O():
    # the last chain member always divides the first; a chain whose last
    # member does not must raise, also under python -O (the script's own
    # assert fails unless -O has stripped it)
    script = (
        "import ratpoints.uniroots as U\n"
        "assert False, 'asserts are live'\n"
        "real = U.sturm_chain\n"
        "U.sturm_chain = lambda coeffs: real(coeffs) + [[1, 0, 1]]\n"
        "try:\n"
        "    U.count_abs_le([-2, 0, 0, 1], 0)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "try:\n"
        "    U.divexact_poly([1, 0, 1], [1, 1])\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised: inexact polynomial division\n" * 2
