"""Cross-checks that force each enumeration tier onto the same inputs."""

import itertools
import random

import pytest

import ratpoints.enumeration as en
from oracles import brute_affine, brute_projective, brute_projective_points
from ratpoints.enumeration import (_coprime_by_height, count_affine,
                                   count_projective)
from ratpoints.poly import IntPoly, monomials_of_degree, parse_poly


@pytest.fixture
def force_scalar(monkeypatch):
    # an impossible int64 budget pushes everything onto the big-int path
    monkeypatch.setattr(en, "INT64_LIMIT", 0)


def test_coprime_by_height():
    from math import gcd

    rng = random.Random(6)
    for _ in range(120):
        g0 = rng.randint(0, 400)
        B = rng.randint(0, 60)
        brute = [sum(1 for v in {-k, k} if gcd(g0, v) == 1)
                 for k in range(B + 1)]
        assert _coprime_by_height(g0, B).tolist() == brute, (g0, B)


def random_poly(rng, nv, degree):
    terms = {}
    for d in range(degree + 1):
        for e in monomials_of_degree(nv, d):
            if rng.random() < 0.5:
                terms[e] = rng.randint(-4, 4)
    return IntPoly(nv, terms)


def test_scalar_path_matches_default(force_scalar):
    # with the limit zeroed this exercises _solve_scalar on every input
    rng = random.Random(91)
    for _ in range(25):
        nv = rng.choice([2, 3])
        f = random_poly(rng, nv, rng.randint(1, 3))
        if f.is_zero():
            continue
        B = rng.randint(1, 6)
        assert count_affine(f, B) == brute_affine(f, B), (f.to_text(), B)


def mixed_forms():
    rng = random.Random(92)
    polys = []
    for _ in range(15):
        nv = rng.choice([2, 3, 4])
        f = random_poly(rng, nv, rng.randint(1, 3))
        if not f.is_zero() and f.is_homogeneous() and f.degree >= 1:
            polys.append((f, rng.randint(1, 4 if nv == 4 else 6)))
    polys.append((parse_poly("x0^3 + x1^3 + x2^3 + x3^3"), 4))
    polys.append((parse_poly("x0^4 + x1^4 - x2^4 - x3^4"), 3))
    polys.append((parse_poly("x0*x2 - x1^2"), 12))
    # residuals with coefficients constant on each (x1, x2) tile
    for text in ("x1^3 + x2^3 + x0^2*x3 + x3^3", "x0^2 - x3^2", "x0*x3 - x0^2",
                 "x0^2*x3 + x3^3 - x0^3", "x0^2*x3^2 + x0^3*x3 - 2*x0^4"):
        polys.append((parse_poly(text), 3))
    # a dense cubic: its residuals are non-pure cubics, scanned on the tile
    polys.append((parse_poly("x0^3 - x1^3 + 2*x2^3 + x0*x3^2 - x1*x2*x3"
                             " + x2*x3^2 + x3^3"), 3))
    return polys


def forced_scalar(count, *args):
    limit = en.INT64_LIMIT
    try:
        en.INT64_LIMIT = 0
        return count(*args, collect=True)
    finally:
        en.INT64_LIMIT = limit


def test_forced_scalar_agrees_with_vector_paths():
    for F, B in mixed_forms():
        fast = count_projective(F, B, collect=True)
        assert fast == forced_scalar(count_projective, F, B), (F.to_text(), B)


def test_ragged_tiles_agree_with_scalar_and_oracles(monkeypatch):
    # tiles two rows high: the 2B+1 rows of a prefix end in a shorter chunk;
    # residual scans two cells at a time end in one cell when their count
    # is odd
    heights = set()
    real = en._eval_on_tile

    def spy(c, prefix, grids):
        heights.add(len(grids[0]))
        return real(c, prefix, grids)
    monkeypatch.setattr(en, "_eval_on_tile", spy)
    for F, B in mixed_forms():
        # a tile row holds 2B+1 cells, or one when a single variable is free
        cells = 2 * (2 * B + 1) if F.num_vars >= 3 else 2
        monkeypatch.setattr(en, "TILE_CELLS", cells)
        monkeypatch.setattr(en, "SCAN_CELLS", 2 * (2 * B + 1))
        for count, oracle in ((count_projective, brute_projective),
                              (count_affine, brute_affine)):
            n, pts = count(F, B, collect=True)
            assert (n, pts) == forced_scalar(count, F, B), (F.to_text(), B)
            assert n == len(pts) == oracle(F, B), (F.to_text(), B)
    assert {1, 2} <= heights


def test_grid_path_point_collection():
    fermat = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
    n, pts = count_projective(fermat, 3, collect=True)
    assert n == len(pts) == brute_projective(fermat, 3)
    assert pts == sorted(pts)
    assert all(fermat.evaluate(p) == 0 for p in pts)


def test_even_pure_power_roots():
    # x3^4 = x0^4 + x1^4 + x2^4: even k with two signed roots
    F = parse_poly("x0^4 + x1^4 + x2^4 - x3^4")
    for B in (1, 2, 3):
        assert count_projective(F, B) == brute_projective(F, B)


def test_degenerate_top_coefficient_rows():
    # the x2-leading coefficient vanishes along x0 = 0
    F = parse_poly("x0*x2^2 - x1^3 - 2*x0^3")
    for B in (2, 4):
        assert count_projective(F, B) == brute_projective(F, B)


def test_missing_last_variable_projective():
    # a form in x0..x2 viewed in four variables: last coordinate is free
    F = parse_poly("x0*x2 - x1^2", num_vars=4)
    for B in (1, 2, 3):
        assert count_projective(F, B) == brute_projective(F, B)


def test_quintic_pure_power_vector_case():
    # residual in the last variable is a pure fifth power
    f = parse_poly("t2^5 - t1^2")
    assert count_affine(f, 8) == brute_affine(f, 8)
    assert count_affine(f, 40) == count_affine(f, 40, order="loop")
    # and a sixth power (even degree, signed roots)
    g = parse_poly("t2^6 - t1^2")
    assert count_affine(g, 8) == brute_affine(g, 8)
    assert count_affine(g, 40) == count_affine(g, 40, order="loop")


def test_int64_switch_sits_at_its_limit(monkeypatch):
    # a form whose value bound sits just under 2^62 takes the numpy path,
    # one whose bound equals it takes the big-int path; both count exactly
    assert en.INT64_LIMIT == 1 << 62
    taken = []

    def spy(name):
        real = getattr(en, name)

        def call(*args):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(en, name, call)

    spy("_solve_tiles")
    spy("_solve_scalar")
    B = 2
    at = (en.INT64_LIMIT - B * B) // B
    for C, path in ((at - 1, "_solve_tiles"), (at, "_solve_scalar")):
        # (C - t1)*(t1 - t2): the 2B+1 zeros t1 = t2
        f = IntPoly(2, {(1, 0): C, (2, 0): -1, (0, 1): -C, (1, 1): 1})
        bound = max(en._poly_value_bound(c, B)
                    for c in en._last_var_coefficients(f))
        assert bound == (en.INT64_LIMIT if C == at else en.INT64_LIMIT - B)
        taken.clear()
        n = count_affine(f, B)
        assert taken == [path]
        assert n == count_affine(f, B, order="loop") == brute_affine(f, B)
        assert n == 2 * B + 1


@pytest.fixture
def taken(monkeypatch):
    """Names of the enumeration solvers called, in call order."""
    names = []
    for name in ("_solve_tiles", "_solve_scalar", "_solve_residual"):
        def call(*args, _real=getattr(en, name), _name=name):
            names.append(_name)
            return _real(*args)
        monkeypatch.setattr(en, name, call)
    return names


def test_int64_scan_switch_sits_at_the_value_bound(taken):
    # a non-pure cubic residual is scanned by Horner, so the numpy kernel
    # also needs the value bound of the whole form below 2^62
    B = 2
    at = (en.INT64_LIMIT - B - B**3) // (B + 1)
    for C, path in ((at - 1, "_solve_tiles"), (at, "_solve_scalar")):
        # C*(t1 - 1) + t2^3 - t2: the zeros t2 in {-1, 0, 1} at t1 = 1
        f = IntPoly(2, {(1, 0): C, (0, 0): -C, (0, 3): 1, (0, 1): -1})
        coeffs = en._last_var_coefficients(f)
        assert len(coeffs) - 1 == 3
        assert max(en._poly_value_bound(c, B) for c in coeffs) < en.INT64_LIMIT
        bound = en._poly_value_bound(f, B)
        assert bound == (en.INT64_LIMIT if C == at else en.INT64_LIMIT - B - 1)
        taken.clear()
        n = count_affine(f, B)
        assert [name for name in taken if name != "_solve_residual"] == [path]
        assert n == count_affine(f, B, order="loop") == brute_affine(f, B)
        assert n == 3


def test_generic_cubic_is_scanned_on_the_tile(taken):
    # every residual of this cubic is a non-pure cubic in x3
    F = parse_poly("x0^3 + 2*x1^3 + 3*x2^2*x3 - x1*x2*x3 + x3^3")
    assert [count_projective(F, B) for B in (16, 32)] == [62, 122]
    # per count: the half box x0 >= 1, then the slices x0 = 0 and
    # x0 = x1 = 0; the last slice, x3^3, is solved without a tile
    assert taken == ["_solve_tiles"] * 6


def random_form(rng, nv, degree, drop=()):
    """A random form of one degree, without the monomials in drop."""
    terms = {e: rng.randint(-3, 3) for e in monomials_of_degree(nv, degree)
             if e not in drop and rng.random() < 0.6}
    return IntPoly(nv, terms)


def half_box_forms():
    """Seeded forms in 2, 3 and 4 variables of odd and even degree, plain,
    divisible by x0, and vanishing at (0, ..., 0, 1), with their bounds."""
    rng = random.Random(93)
    out = []
    for nv, B in ((2, 12), (3, 6), (4, 3)):
        for degree in (1, 2, 3, 4):
            last = (0,) * (nv - 1) + (degree,)
            x0 = IntPoly(nv, {(1,) + (0,) * (nv - 1): 1})
            for F in (random_form(rng, nv, degree),
                      x0 * random_form(rng, nv, degree - 1),
                      random_form(rng, nv, degree, drop={last})):
                if not F.is_zero():
                    out.append((F, B))
    return out + mixed_forms()


def test_half_box_point_lists_match_brute_oracle():
    forms = half_box_forms()
    assert sum(1 for F, _ in forms if F.terms and all(
        e[0] for e in F.terms)) >= 6  # divisible by x0
    for F, B in forms:
        want = brute_projective_points(F, B)
        assert count_projective(F, B, collect=True) == (len(want), want), (
            F.to_text(), B)
        assert forced_scalar(count_projective, F, B) == (len(want), want)


def test_half_box_on_ragged_tiles(monkeypatch):
    # chunks two rows high over the rows x0 = 1..B, or over the tile rows
    # of each outer x0 >= 1; odd B ends the rows in a one-row chunk
    for F, B in half_box_forms():
        rows = 2 * B + 1 if F.num_vars >= 3 else 1
        monkeypatch.setattr(en, "TILE_CELLS", 2 * rows)
        monkeypatch.setattr(en, "SCAN_CELLS", 2 * (2 * B + 1))
        for b in (B, B - 1) if B > 1 else (B,):
            want = brute_projective_points(F, b)
            assert count_projective(F, b, collect=True) == (len(want), want), (
                F.to_text(), b)


def test_height_histogram_sums_to_counts_at_every_bound():
    for F, B in half_box_forms()[::3]:
        n, hist = count_projective(F, B, by_height=True)
        assert len(hist) == B + 1 and sum(hist) == n
        assert [sum(hist[:b + 1]) for b in range(1, B + 1)] == [
            count_projective(F, b) for b in range(1, B + 1)], F.to_text()
    f = parse_poly("t1*t2 - t3^2 + t1", num_vars=4)  # t4 is free
    n, pts, hist = count_affine(f, 3, collect=True, by_height=True)
    assert [sum(hist[:b + 1]) for b in range(4)] == [
        count_affine(f, b) for b in range(4)]
    assert count_affine(f, 3, by_height=True) == (n, hist)


def test_full_range_heights_match_brute_counts(monkeypatch):
    # residuals that vanish on whole tile rows and planes, with prefixes of
    # many gcds, and a free last variable: every completion is tallied at
    # its own height, on the tile and on the big-int path
    forms = ["x1*x3", "x0*(x1^2 - x2*x3)", "x1*x2*x3 - x0^2*x3",
             "x0^2 + x1^2 - x2^2 + 0*x3"]
    affine = ["t1*t4", "t1*t3 - t2*t3", "t1^2 - t2 + 0*t3"]
    for limit in (en.INT64_LIMIT, 0):
        monkeypatch.setattr(en, "INT64_LIMIT", limit)
        for text in forms:
            F = parse_poly(text, num_vars=4)
            n, hist = count_projective(F, 5, by_height=True)
            assert [sum(hist[:b + 1]) for b in range(1, 6)] == [
                brute_projective(F, b) for b in range(1, 6)], (text, limit)
        for text in affine:
            f = parse_poly(text, num_vars=4 if "t4" in text else 3)
            n, pts, hist = count_affine(f, 4, collect=True, by_height=True)
            assert [sum(hist[:b + 1]) for b in range(5)] == [
                brute_affine(f, b) for b in range(5)], (text, limit)
            assert pts == [t for t in itertools.product(range(-4, 5),
                                                        repeat=f.num_vars)
                           if f.evaluate(t) == 0], (text, limit)


def test_projective_zeros_need_one_degree_parity():
    with pytest.raises(ValueError, match="parity"):
        en._solve_zeros(parse_poly("x0^2 - x1"), 3, projective=True,
                        collect=False)
    # even sums of squares of forms keep one parity
    S = parse_poly("x0^2 + x1^2 - x2^2")
    assert en._solve_zeros(S * S, 3, projective=True, collect=False).count == (
        count_projective(S, 3))
