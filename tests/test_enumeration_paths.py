"""Cross-checks that force each enumeration tier onto the same inputs."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import ratpoints.enumeration as en
from oracles import brute_affine, brute_projective, brute_projective_points
from ratpoints.enumeration import (_and, _cells, _coords, _pick, count_affine,
                                   count_projective)
from ratpoints.poly import IntPoly, monomials_of_degree, parse_poly


@pytest.fixture
def force_scalar(monkeypatch):
    # an impossible int64 budget pushes everything onto the big-int path
    monkeypatch.setattr(en, "INT64_LIMIT", 0)


def test_keep_primitive_inverts_over_divisors():
    # whatever the histogram Z, the P left behind satisfies
    # Z[h] = sum_{d | h} P[h / d]; B = 1 has no prime to invert by
    rng = random.Random(6)
    for B in (1, 2, 3, 4, 30, 64):
        for _ in range(20):
            hits = en._Hits(True, B)
            points = rng.randint(0, 40)
            hits.add_solved((), *np.array(
                [[rng.randint(-B, B) for _ in range(points)]
                 for _ in range(3)], dtype=np.int64).reshape(3, points))
            hits.add_full_range((rng.randint(-B, B), rng.randint(-B, B)))
            hits.add_scalar((rng.randint(-B, B), rng.randint(-B, B)),
                            rng.randint(-B, B))
            hits._hist += np.array([rng.randint(0, 50) for _ in range(B + 1)])
            Z = hits.hist.tolist()
            want = sorted(p for p in hits.points if math.gcd(*p) == 1)
            hits.keep_primitive()
            P = hits.hist.tolist()
            assert P[0] == 0, B
            for h in range(1, B + 1):
                assert Z[h] == sum(P[h // d] for d in range(1, h + 1)
                                   if h % d == 0), (B, h)
            assert sorted(hits.points) == want, B


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


def forced_scalar(count, *args, **kwargs):
    limit = en.INT64_LIMIT
    try:
        en.INT64_LIMIT = 0
        return count(*args, collect=True, **kwargs)
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


def test_and_short_circuits():
    T, F = np.True_, np.False_
    col = np.array([[True], [False]])
    row = np.array([[True, False, True]])
    full = col & row
    # numpy scalars
    assert _and(T, T) and _and(F, T) is F and _and(T, F) is F
    assert _and(T, col) is col and _and(full, T) is full
    # an all-false operand, scalar or array, gives np.False_
    assert _and(F, full) is F and _and(col, F) is F
    assert _and(np.zeros((2, 1), bool), full) is F
    assert _and(full, np.zeros((2, 3), bool)) is F
    # all true beside a full-shape mask returns that mask itself
    assert _and(np.ones((2, 1), bool), full) is full
    assert _and(full, np.ones((1, 3), bool)) is full
    # otherwise the broadcast &: all true beside a smaller mask, or two
    # small masks that broadcast together
    for x, y in ((np.ones((2, 3), bool), col), (row, np.ones((2, 1), bool)),
                 (col, row), (row, col)):
        got = _and(x, y)
        assert got.shape == (2, 3) and np.array_equal(got, x & y)


def test_cells_match_nonzero():
    rng = np.random.default_rng(5)
    axes2 = (np.arange(3) - 1, np.arange(4) * 10 - 15)
    axes1 = (np.arange(-3, 4),)
    cases = [(axes2, rng.random((3, 4)) < 0.4), (axes2, rng.random((3, 1)) < 0.5),
             (axes2, rng.random((1, 4)) < 0.5), (axes2, np.ones((3, 4), bool)),
             (axes2, np.True_), (axes2, np.False_),
             (axes1, rng.random(7) < 0.5), (axes1, np.True_), (axes1, np.False_)]
    for axes, mask in cases:
        shape = tuple(map(len, axes))
        full = np.broadcast_to(mask, shape)
        want = np.nonzero(full)
        cells = _cells(axes, mask)
        # the same cells in the same row-major order as np.nonzero
        assert [i.tolist() for i in np.unravel_index(cells, shape)] == [
            w.tolist() for w in want]
        assert [c.tolist() for c in _coords(axes, cells)] == [
            ax[w].tolist() for ax, w in zip(axes, want)]
        # entries of full-shape, broadcast and scalar arrays at the cells
        values = rng.integers(-9, 9, size=shape)
        smaller = [values[:1], values[:, :1]] if len(shape) == 2 else []
        for a in [values, np.int64(4)] + smaller:
            got = _pick(a, cells, shape)
            assert got.tolist() == np.broadcast_to(a, shape)[full].tolist()


def kernel_forms():
    """Seeded 3- and 4-variable forms, with forms whose tiles hold a branch's
    mask everywhere or nowhere, and their bounds."""
    rng = random.Random(95)
    out = []
    for nv, B in ((3, 5), (4, 3)):
        for degree in (1, 2, 3, 4):
            F = random_form(rng, nv, degree)
            if not F.is_zero():
                out.append((F, B))
    for text in (
            # linear coefficients x0 and x0^2 + x1^2 + x2^2 never vanish on
            # x0 >= 1: `at` is all true, and most tiles solve no cell
            "x0*x2 - x1^2", "x0^2*x2 + x1^2*x2 - x1^3 - 2*x0^3",
            "(x0^2 + x1^2 + x2^2)*x3 - x1^3 + x0*x2^2",
            # the discriminant -4*x0^2*(x0^2 + x1^2) is negative off x0 = 0
            "x0*x2^2 + x0^3 + x0*x1^2",
            # a pure cube 2*t^3 = rhs with rhs odd wherever x0 is: tiles
            # at odd x0 hold no divisible cell
            "x0^3 + 2*x1^3 - 2*x2^3",
            "x0^3 + 2*x1^3 + 2*x0*x1*x2 + 4*x2^3 - 2*x3^3"):
        F = parse_poly(text)
        out.append((F, 5 if F.num_vars == 3 else 3))
    return out


def test_kernel_masks_on_ragged_tiles(monkeypatch):
    # tiles two rows high, ending in a one-row tile at odd B; 4-variable
    # forms stay on the tiles rather than the separable join
    seen = Counter()
    real_and, real_cells = en._and, en._cells

    def and_spy(x, y):
        got = real_and(x, y)
        if np.ndim(x) and np.ndim(y):
            seen["false" if got is np.False_ else
                 "operand" if got is x or got is y else "both"] += 1
        return got

    def cells_spy(axes, mask):
        seen["scalar"] += np.ndim(mask) == 0
        return real_cells(axes, mask)
    monkeypatch.setattr(en, "_and", and_spy)
    monkeypatch.setattr(en, "_cells", cells_spy)
    monkeypatch.setattr(en, "_split_halves", lambda f, B: None)
    for F, B in kernel_forms():
        rows = 2 * B + 1 if F.num_vars >= 3 else 1
        monkeypatch.setattr(en, "TILE_CELLS", 2 * rows)
        monkeypatch.setattr(en, "SCAN_CELLS", 2 * (2 * B + 1))
        want = brute_projective_points(F, B)
        got = count_projective(F, B, collect=True)
        assert got == (len(want), want), (F.to_text(), B)
        assert got == forced_scalar(count_projective, F, B), F.to_text()
        n, pts = count_affine(F, B, collect=True)
        assert n == len(pts) == brute_affine(F, B), (F.to_text(), B)
        assert (n, pts) == forced_scalar(count_affine, F, B), F.to_text()
    assert seen["false"] and seen["operand"] and seen["both"]
    assert seen["scalar"]


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


def test_square_roots_match_isqrt_at_their_boundaries():
    # the quadratic branch's exact root: count 2 at a positive square, 1 at
    # zero and 0 elsewhere, up to its bound isqrt(INT64_LIMIT), both on
    # numpy scalars (coefficients constant on a tile) and on 2-D tiles
    bound = math.isqrt(en.INT64_LIMIT)
    rng = random.Random(21)
    roots = [0, 1, 2, 3, 46340, 46341, 2**26 + 1, 2**31 - 2, 2**31 - 1]
    roots += [rng.randrange(2**31) for _ in range(40)]
    triples = [(s * s - 1, s * s, s * s + 1) for s in roots]
    triples += [(-s * s, -s * s - 1, -(2**62) + s) for s in roots]
    values = [v for t in triples for v in t]

    def expect(v):
        if v < 0 or math.isqrt(v) ** 2 != v:
            return 0, 0
        return (2 if v else 1), math.isqrt(v)

    for v in values:
        for value in (np.int64(v), np.array(v, dtype=np.int64)):
            cnt, root = en._np_kth_roots(value, 2, bound)
            assert np.ndim(cnt) == np.ndim(root) == 0
            assert (int(cnt), int(root)) == expect(v), v
    tile = np.array(triples, dtype=np.int64).T
    cnt, root = en._np_kth_roots(tile, 2, bound)
    assert cnt.shape == root.shape == tile.shape
    got = list(zip(cnt.T.ravel().tolist(), root.T.ravel().tolist()))
    assert got == [expect(v) for v in values]


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
    assert count_affine(f, 40) == brute_affine(f, 40)
    # and a sixth power (even degree, signed roots)
    g = parse_poly("t2^6 - t1^2")
    assert count_affine(g, 8) == brute_affine(g, 8)
    assert count_affine(g, 40) == brute_affine(g, 40)


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
        assert n == brute_affine(f, B)
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
        assert n == brute_affine(f, B)
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
            want = brute_projective_points(F, 5)
            assert count_projective(F, 5, collect=True) == (len(want), want), (
                text, limit)
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


@pytest.fixture
def splits(monkeypatch):
    """The variable orders of the separable joins taken, in call order."""
    orders = []

    def call(order, *args, _real=en._solve_split):
        orders.append(order)
        return _real(order, *args)
    monkeypatch.setattr(en, "_solve_split", call)
    return orders


def separable_forms():
    """Seeded quaternary forms G(x0, xi) + H(rest) over the three pairings,
    of odd and even degree, some with a common coefficient factor, and the
    special cases, with their bounds."""
    rng = random.Random(94)
    out = []
    for i in (1, 2, 3):
        halves = ({0, i}, {1, 2, 3} - {i})
        for degree in (1, 2, 3, 4):
            terms = {e: rng.randint(-3, 3)
                     for e in monomials_of_degree(4, degree)
                     if any({j for j in range(4) if e[j]} <= h for h in halves)
                     and rng.random() < 0.6}
            F = IntPoly(4, terms)
            if not F.is_zero():
                out.append((F * rng.choice((1, 6)), rng.choice((1, 3))))
    out += [(parse_poly("x0*x1 + x2*x3"), 3),
            (parse_poly("x0^3 + x1^3", num_vars=4), 3),
            (parse_poly("6*x0^3 + 6*x1^3 - 12*x2^3 + 6*x3^3"), 4),
            (parse_poly("x0^2 + x1^2 - x2^2 - 2*x3^2"), 4),
            (IntPoly(4, {(0, 0, 0, 0): 5}), 2),
            (parse_poly("x0^3 + x1^3 + x2^3 + x3^3"), 1)]
    return out


def test_separable_split_matches_tiles_scalar_and_brute(monkeypatch, splits):
    forms = separable_forms()
    results = []
    for F, B in forms:
        results.append(count_projective(F, B, collect=True, by_height=True))
    assert len(splits) == len(forms)
    assert {order[1] for order in splits} == {1, 2, 3}
    assert results[-5][0] == 290 and results[-2][0] == 0
    splits.clear()
    monkeypatch.setattr(en, "_split_halves", lambda f, B: None)
    for (F, B), (n, pts, hist) in zip(forms, results):
        want = brute_projective_points(F, B)
        assert (n, pts) == (len(want), want), (F.to_text(), B)
        assert (n, pts, hist) == count_projective(F, B, collect=True,
                                                  by_height=True), F.to_text()
        assert (n, pts, hist) == forced_scalar(count_projective, F, B,
                                               by_height=True), F.to_text()
        assert [sum(hist[:b + 1]) for b in range(1, B + 1)] == [
            brute_projective(F, b) for b in range(1, B + 1)], F.to_text()
    assert splits == []


def test_separable_split_on_ragged_chunks(monkeypatch, splits):
    # keys built two rows at a time and searched 2(2B + 1) queries at a
    # time: 2B + 1 rows end in a one-row chunk, and (2B + 1)^2 keys in a
    # chunk of 2B + 1
    cells = en.TILE_CELLS
    for F, B in separable_forms():
        want = count_projective(F, B, collect=True, by_height=True)
        monkeypatch.setattr(en, "TILE_CELLS", 2 * (2 * B + 1))
        assert count_projective(F, B, collect=True, by_height=True) == want, (
            F.to_text(), B)
        assert count_projective(F, B, by_height=True) == (want[0], want[2])
        monkeypatch.setattr(en, "TILE_CELLS", cells)
    assert len(splits) == 3 * len(separable_forms())


def test_forced_scalar_switches_the_split_off(force_scalar, splits):
    F = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
    assert count_projective(F, 3) == brute_projective(F, 3)
    assert splits == []


def test_non_separable_forms_never_split(taken, splits):
    generic = parse_poly("x0^3 + 2*x1^3 + 3*x2^2*x3 - x1*x2*x3 + x3^3")
    dense = parse_poly("x0^3 - x1^3 + 2*x2^3 + x0*x3^2 - x1*x2*x3"
                       " + x2*x3^2 + x3^3")
    chain = parse_poly("x0*x1 + x1*x2 + x2*x3")
    for F in (generic, dense, chain):
        assert en._split_halves(F, 4) is None
        taken.clear()
        assert count_projective(F, 4) == brute_projective(F, 4)
        assert "_solve_tiles" in taken
    assert splits == []


def test_split_guard_sits_at_its_limit(splits):
    # C*x0*x1 - x2*x3 at B = 3: the left side's value bound is 9C, and the
    # keys need (9C + 1) * 4 < 2^62, which C = (2^60 - 1) / 9 just meets
    B = 3
    at = ((1 << 60) - 1) // 9
    for C, split in ((at - 1, True), (at, False)):
        F = IntPoly(4, {(1, 1, 0, 0): C, (0, 0, 1, 1): -1})
        left = en._poly_value_bound(IntPoly(2, {(1, 1): C}), B)
        assert (left + 1) * (B + 1) == en.INT64_LIMIT - 36 * (at - C)
        splits.clear()
        n, pts = count_projective(F, B, collect=True)
        assert bool(splits) is split
        assert (n, pts) == (len(pts), brute_projective_points(F, B))
