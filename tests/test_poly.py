import math
import random

import pytest
import sympy

from ratpoints.poly import (IntPoly, PolyParseError, dehomogenize,
                            format_poly, graded_piece_basis, grlex_key,
                            monomials_of_degree, pad_vars, parse_poly,
                            poly_divides)


def test_parse_format_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        nv = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(nv))
            terms[e] = rng.randint(-9, 9)
        f = IntPoly(nv, terms)
        if f.is_zero():
            continue
        assert parse_poly(f.to_text(), num_vars=nv) == f
        assert parse_poly(format_poly(f, "t"), num_vars=nv) == f


def test_parse_errors_report_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + % x1")
    assert "position 5" in str(err.value)
    with pytest.raises(PolyParseError):
        parse_poly("x0 + t1")  # mixed families
    with pytest.raises(PolyParseError):
        parse_poly("x0 ^ x1")  # exponent must be a literal


def test_parse_power_of_a_sum():
    # powers are taken by IntPoly arithmetic, which combines like terms
    f = parse_poly("(x0 + x1 + x2)^16")
    s = sum((IntPoly.variable(3, i) for i in range(3)), IntPoly.zero(3))
    assert f == s**16
    assert len(f.terms) == 153
    assert f.evaluate((1, 1, 1)) == 3**16
    assert f.terms[(6, 5, 5)] == math.factorial(16) // (
        math.factorial(6) * math.factorial(5) ** 2)


def test_homogenize_roundtrip():
    rng = random.Random(8)
    for _ in range(60):
        nv = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 3) for _ in range(nv)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 5))}
        f = IntPoly(nv, terms)
        if f.is_zero():
            continue
        delta = f.degree + rng.randint(0, 2)
        F = IntPoly(nv + 1, {(delta - sum(e),) + e: c
                             for e, c in f.terms.items()})
        assert F.is_homogeneous()
        assert dehomogenize(F) == f


def test_primitive_part():
    f = parse_poly("6*x0 + 9*x1")
    assert f.primitive_part() == parse_poly("2*x0 + 3*x1")
    assert f.primitive_part() == f.primitive_part().primitive_part()


def test_reduce_mod_p():
    # evaluate(x) % p reads off the coefficientwise reduction mod p
    grid = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for a, b in grid:
        assert parse_poly("7*x0 + x1").evaluate((a, b)) % 7 == b % 7
        f = parse_poly("x0^3 - 10*x1^3")
        assert f.evaluate((a, b)) % 3 == (a**3 + 2 * b**3) % 3


def test_reduce_is_ring_homomorphism():
    rng = random.Random(14)
    for p in (2, 5, 13):
        for _ in range(40):
            nv = 2
            def rand():
                return IntPoly(nv, {
                    tuple(rng.randint(0, 2) for _ in range(nv)): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 4))})
            f, g = rand(), rand()
            x = (rng.randint(-20, 20), rng.randint(-20, 20))
            fx, gx = f.evaluate(x) % p, g.evaluate(x) % p
            assert (f + g).evaluate(x) % p == (fx + gx) % p
            assert (f * g).evaluate(x) % p == fx * gx % p


def test_fp_degree_drop():
    # 7*x0^3 + x1 is the linear form x1 over F_7
    f = parse_poly("7*x0^3 + x1")
    assert f.degree == 3
    for a in range(7):
        for b in range(7):
            assert f.evaluate((a, b)) % 7 == b


def test_graded_piece_examples():
    X = [IntPoly.variable(4, i) for i in range(4)]
    b = graded_piece_basis([X[2], X[3], X[0]], 4)
    assert b.dimension == 1
    assert b.monomials == [(0, 4, 0, 0)]  # x1^4

    b2 = graded_piece_basis([X[3], X[0] * X[2] - X[1] ** 2, X[0]], 3)
    assert b2.dimension == 2
    assert b2.monomials == [(0, 1, 2, 0), (0, 0, 3, 0)]  # x1*x2^2, x2^3

    b3 = graded_piece_basis([], 0, num_vars=4)
    assert b3.dimension == 1 and b3.monomials == [(0, 0, 0, 0)]

    with pytest.raises(ValueError):
        graded_piece_basis([X[2]], -1)


def test_graded_piece_stabilization():
    X = [IntPoly.variable(4, i) for i in range(4)]
    line = [X[2], X[3]]
    conic = [X[3], X[0] * X[2] - X[1] ** 2]
    for delta in range(0, 21):
        assert graded_piece_basis(line + [X[0]], delta).dimension == 1
    for delta in range(2, 21):
        assert graded_piece_basis(conic + [X[0]], delta).dimension == 2


def test_poly_divides():
    F = parse_poly("x0 + x1")
    assert poly_divides(F, parse_poly("x0^2 - x1^2"))
    assert poly_divides(F, IntPoly.zero(2))
    assert not poly_divides(F, parse_poly("x0^2 + x1^2"))
    cub = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
    assert poly_divides(cub, cub * parse_poly("x0 - 5*x3"))
    assert not poly_divides(cub, parse_poly("x0*x2 - x1^2", num_vars=4))
    # leading coefficients of F that do not divide those of the remainder
    assert poly_divides(parse_poly("4*x1 + 2*x0"), parse_poly("2*x1 + x0"))
    quad = parse_poly("6*x1^2 + x0*x1 - 2*x0^2")
    assert poly_divides(quad, quad * parse_poly("5*x1 - 7*x0"))
    assert not poly_divides(parse_poly("3*x1 + x0"), parse_poly("x1^2 + x0^2"))
    # a lower degree never divides; a nonzero constant always does
    assert not poly_divides(cub, parse_poly("x0^2", num_vars=4))
    assert poly_divides(IntPoly.constant(2, -3), F)
    with pytest.raises(ValueError):
        poly_divides(IntPoly.zero(2), F)


def _random_form(rng, nv, degree):
    """A nonzero form with a few terms and coefficients in [-9, 9]."""
    mons = monomials_of_degree(nv, degree)
    while True:
        f = IntPoly(nv, {rng.choice(mons): rng.randint(-9, 9)
                         for _ in range(rng.randint(1, 4))})
        if not f.is_zero():
            return f


def _sympy_expr(f, xs):
    return sum(c * sympy.prod(x**k for x, k in zip(xs, e))
               for e, c in f.terms.items())


def _sympy_divides(F, G):
    """F | G over Q, from the remainder of sympy's division."""
    xs = sympy.symbols(f"x0:{F.num_vars}")
    _, rem = sympy.div(_sympy_expr(G, xs), _sympy_expr(F, xs), *xs,
                       domain="QQ")
    return rem == 0


def test_poly_divides_against_sympy():
    rng = random.Random(18)
    verdicts = []
    for _ in range(300):
        nv = rng.randint(2, 4)
        F = _random_form(rng, nv, rng.randint(0, 3))
        kind = rng.choice(("product", "perturbed", "random", "lower", "zero"))
        if kind == "zero":
            G = IntPoly.zero(nv)
        elif kind == "lower":
            if F.degree == 0:
                continue
            G = _random_form(rng, nv, rng.randint(0, F.degree - 1))
        elif kind == "random":
            G = _random_form(rng, nv, F.degree + rng.randint(0, 2))
        else:
            # a product F*H, scaled, and perhaps moved off the ideal by a
            # small term of the same degree
            G = F * _random_form(rng, nv, rng.randint(0, 2)) \
                * rng.choice((1, -2, 3))
            if kind == "perturbed":
                G = G + _random_form(rng, nv, G.degree)
        got = poly_divides(F, G)
        assert got == _sympy_divides(F, G), (format_poly(F), format_poly(G))
        verdicts.append((kind, got))
    # every case occurs, and both verdicts come up on the products
    assert {kind for kind, _ in verdicts} == {
        "product", "perturbed", "random", "lower", "zero"}
    assert {got for kind, got in verdicts if kind == "perturbed"} == {
        True, False}


def test_monomial_order_matches_convention():
    # ascending graded order: 1, z1, z2, z1^2, z1*z2, z2^2
    descending = monomials_of_degree(2, 2)
    assert descending == ((0, 2), (1, 1), (2, 0))
    # memoized: every caller shares one tuple, which nobody can change
    assert monomials_of_degree(2, 2) is descending
    assert monomials_of_degree(3, -1) == ()
    f = parse_poly("x0^2 + x1^2 + x0*x1")
    assert max(f.terms, key=grlex_key) == (0, 2)


def test_hasse_second():
    f = parse_poly("x0^3 + x0*x1^2")
    assert f.hasse_second(0, 0) == parse_poly("3*x0", num_vars=2)
    assert f.hasse_second(1, 1) == parse_poly("x0", num_vars=2)
    assert f.hasse_second(0, 1) == parse_poly("2*x1", num_vars=2)
    # against sympy's second derivative, halved on the diagonal
    rng = random.Random(19)
    for _ in range(40):
        nv = rng.randint(2, 4)
        F = _random_form(rng, nv, rng.randint(0, 4))
        xs = sympy.symbols(f"x0:{nv}")
        for i in range(nv):
            for j in range(nv):
                d2 = sympy.diff(_sympy_expr(F, xs), xs[i], xs[j])
                want = d2 / 2 if i == j else d2
                got = _sympy_expr(F.hasse_second(i, j), xs)
                assert sympy.expand(got - want) == 0, (F, i, j)


def test_exact_results_match_the_checked_constructor():
    """Arithmetic results skip the public constructor's checks; each must
    still be what that constructor makes of its terms: Python-int
    coefficients, none zero, and exponent tuples of the right length."""
    rng = random.Random(23)
    for _ in range(300):
        nv = rng.randint(1, 4)
        f, g = (_random_form(rng, nv, rng.randint(0, 3))
                + _random_form(rng, nv, rng.randint(0, 3)) for _ in range(2))
        i, j = rng.randrange(nv), rng.randrange(nv)
        v = rng.randint(-3, 3)
        x_i = IntPoly.variable(nv, i)
        # terms that cancel to zero: the degree must be -1
        cancelled = [f - f, g + (-g), f * x_i - x_i * f,
                     (f * (x_i - v)).substitute_value(i, v),
                     IntPoly.zero(nv)]
        assert all(r.is_zero() and r.degree == -1 for r in cancelled)
        results = cancelled + [
            f + g, f - g, f * g, -f, f ** rng.randint(0, 3), f.partial(i),
            f.hasse_second(i, j), f.substitute_value(i, v),
            (f * rng.randint(-6, 6)).primitive_part(),
            pad_vars(f, nv + rng.randint(0, 2)),
            parse_poly(f.to_text(), num_vars=nv)]
        for r in results:
            checked = IntPoly(r.num_vars, dict(r.terms))
            assert r == checked and r.degree == checked.degree, (f, g, r)
            assert all(type(c) is int for c in r.terms.values())
            assert all(type(e) is tuple and len(e) == r.num_vars
                       and all(type(a) is int for a in e) for e in r.terms)
    with pytest.raises(ValueError, match="exponent tuple of wrong length"):
        IntPoly(2, {(1, 0, 0): 1})
