"""Cross-checks that force each enumeration tier onto the same inputs."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import ratpoints.enumeration as en
from oracles import (brute_affine, brute_projective, brute_projective_points,
                     brute_variety_points)
from ratpoints.enumeration import (ResidueFilter, _and, _cells, _coords, _pick,
                                   count_affine, count_affine_surface,
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
            hits.add_solved((rng.randint(-B, B), rng.randint(-B, B)),
                            np.array([rng.randint(-B, B)]))
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
        cells = _cells(shape, mask)
        # the same cells in the same row-major order as np.nonzero
        assert [i.tolist() for i in np.unravel_index(cells, shape)] == [
            w.tolist() for w in want]
        assert [c.tolist() for c in _coords(axes, shape, cells)] == [
            ax[w].tolist() for ax, w in zip(axes, want)]
        # entries of full-shape, broadcast and scalar arrays at the cells
        values = rng.integers(-9, 9, size=shape)
        smaller = [values[:1], values[:, :1]] if len(shape) == 2 else []
        for a in [values, np.int64(4)] + smaller:
            got = _pick(a, cells, shape)
            assert got.tolist() == np.broadcast_to(a, shape)[full].tolist()
    # a slice of a cell list: every axis holds one coordinate of each cell
    cols = tuple(rng.integers(-9, 9, size=7) for _ in range(3))
    for mask in (rng.random(7) < 0.5, np.True_, np.False_):
        cells = _cells((7,), mask)
        assert cells.tolist() == np.flatnonzero(
            np.broadcast_to(mask, (7,))).tolist()
        assert [c.tolist() for c in _coords(cols, (7,), cells)] == [
            c[cells].tolist() for c in cols]


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
            # at odd x0 hold no root
            "x0^3 + 2*x1^3 - 2*x2^3",
            "x0^3 + 2*x1^3 + 2*x0*x1*x2 + 4*x2^3 - 2*x3^3",
            # pure powers with leading coefficient x0, a cube and an even
            # fourth power, and a cube whose coefficient is -1
            "x0*x3^3 - x1^4 - 2*x2^4", "x0*x3^4 - x1^5 + x2^5",
            "x0^3 + x1^3 - x2^3 - x3^3"):
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

    def cells_spy(shape, mask):
        seen["scalar"] += np.ndim(mask) == 0
        return real_cells(shape, mask)
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


def test_kth_roots_are_exact_on_every_power_up_to_their_guards():
    # the rounded float root of rhs / c is the only candidate, so every
    # c * t^k the kernel can pass must round to its own root t: for
    # c = 1, -1, -3 and 5, every +-r^3 and every r^k, k = 4, 5, 6, with r
    # up to the largest B of |c| (B + 1)^k < 2^62 (the kernel's guards),
    # for each k a c of c * 7^k just under 2^62 (over 2^53 at k = 3), and
    # r^2 with r <= 2^22 and for the top 2^22 values of r below
    # isqrt(2^62), at the quadratic branch's bound; c * (r^k +- 1) is no
    # c times a k-th power and must give no root, nor must rhs / c < 0 for
    # even k, nor the root B + 1, just past the clip
    def largest_b(k, c):
        b = round(((en.INT64_LIMIT - 1) // abs(c)) ** (1 / k))
        while abs(c) * (b + 1) ** k >= en.INT64_LIMIT:
            b -= 1
        while abs(c) * (b + 2) ** k < en.INT64_LIMIT:
            b += 1
        return b

    top = math.isqrt(en.INT64_LIMIT)
    cases = [(k, c, largest_b(k, c)) for k in (3, 4, 5, 6)
             for c in (1, -1, -3, 5)]
    assert [b for _, c, b in cases if c == 1] == [1664509, 46339, 5403, 1289]
    cases += [(k, (en.INT64_LIMIT - 1) // 7**k, 7) for k in (3, 4, 5, 6)]
    assert cases[-4][1] > 2**53
    cases = [(k, c, B, np.arange(B + 1)) for k, c, B in cases]
    cases += [(2, 1, top, np.arange(2**22 + 1)),
              (2, 1, top, np.arange(top - 2**22, top))]
    assert (int(cases[-1][3][-1]) + 1) ** 2 == en.INT64_LIMIT
    for k, c, B, rs in cases:
        c = np.int64(c)
        assert abs(int(c)) * B**k < 2**63
        for lo in range(0, len(rs), 1 << 18):
            r = rs[lo:lo + (1 << 18)]
            power = r**k
            assert [int(x) ** k for x in r[::4099]] == power[::4099].tolist()
            signs = (1, -1) if k % 2 else (1,)
            for sign in signs:
                cnt, root = en._np_kth_roots(c * sign * power, k, B, c)
                want = 1 if k % 2 else np.where(r > 0, 2, 1)
                assert (cnt == want).all(), (k, c, sign)
                assert (root == sign * r).all(), (k, c, sign)
            if k % 2 == 0:  # rhs / c < 0 has no even root
                cnt, _ = en._np_kth_roots(-c * power[r > 0], k, B, c)
                assert not cnt.any(), (k, c)
            big = r[r >= 2]
            for off in (1, -1):
                for sign in signs:
                    cnt, _ = en._np_kth_roots(c * sign * (big**k + off), k,
                                              B, c)
                    assert not cnt.any(), (k, c, off, sign)
        if abs(int(c)) * (B + 1) ** k < 2**63:
            for sign in signs:
                past = np.int64(int(c) * (sign * (B + 1)) ** k)
                assert en._np_kth_roots(past, k, B, c)[0] == 0, (k, c)


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


def test_prefix_int64_switch_sits_at_its_limit(monkeypatch):
    # S = a^2 (x0 - x1)^2 + b^2 x2^2 + c^2 x2^4 + x3^4, with
    # 4a^2 + b^2 + c^2 = 2^62 - 2: at B = 1 the scan bound, the value bound
    # of S, is the guard's maximum, 2^62 - 1, and the cell list stays on
    # the kernel; the generator x2^3 adds 1 and sends it to _solve_scalar.
    # S is solved for x3 as written, where _solve_zeros would take x1
    a, b, c = 2**30 - 1, 82919, 41405
    assert 4 * a * a + b * b + c * c == en.INT64_LIMIT - 2
    base = [IntPoly(4, {(1, 0, 0, 0): a, (0, 1, 0, 0): -a}),
            IntPoly(4, {(0, 0, 1, 0): b}), IntPoly(4, {(0, 0, 2, 0): c}),
            IntPoly(4, {(0, 0, 0, 2): 1})]
    taken = []
    for name in ("_solve_tiles", "_solve_scalar"):
        def call(coeffs, *args, _real=getattr(en, name), _name=name):
            # the solvers of S, not of the generators free of x3
            if coeffs[0].num_vars == 3:
                taken.append(_name)
            return _real(coeffs, *args)
        monkeypatch.setattr(en, name, call)
    B = 1
    for gens, guard, path in (
            (base, en.INT64_LIMIT - 1, "_solve_tiles"),
            (base + [IntPoly(4, {(0, 0, 3, 0): 1})], en.INT64_LIMIT,
             "_solve_scalar")):
        S = en._sum_of_squares(gens)
        coeffs = en._last_var_coefficients(S)
        bounds = [en._poly_value_bound(c, B) for c in coeffs]
        assert len(coeffs) == 5 and bounds[1:4] == [0, 0, 0]
        assert en._poly_value_bound(S, B) == guard
        assert max(bounds) < guard and (B + 1) ** 4 < guard
        taken.clear()
        hits = en._solve_in_order(gens, S, B, True)
        assert taken == [path]
        hits.keep_primitive()
        hits.keep_positive()
        assert hits.points == brute_variety_points(gens, B) == [(1, 1, 0, 0)]
        assert en.enumerate_projective_variety(gens, B) == hits.points


def test_cell_lists_match_the_scalar_referee(monkeypatch):
    # every branch of the kernel on cell lists, against _solve_scalar on the
    # same prefixes: the 125 cells of [-2, 2]^3 in chunks of four, which
    # end in a one-cell chunk, a single cell and an empty list; no variety
    # reaches the linear branch, since a sum of squares has even degree
    monkeypatch.setattr(en, "TILE_CELLS", 4)
    B = 2
    box = np.array(list(itertools.product(range(-B, B + 1), repeat=3)),
                   dtype=np.int64).T
    lists = [box, box[:, ::-1][:, :1], box[:, :0]]
    assert box.shape[1] % 4 == 1
    for text in ("x0*x3 - x1 - x2", "x0*x3^2 + x1*x3 - x2 - 1",
                 "x0*x3^3 - x1*x2^2", "x3^3 - x0*x3 + x1*x2",
                 "x0*x3 - x1*x3 + x2^2 - x0^2", "x1*x2 - x0^2",
                 "x0*x3^3 - x1^4 - 2*x2^4", "x0*x3^4 - x1^5 + x2^5",
                 "x0^3 + x1^3 - x2^3 - x3^3"):
        f = parse_poly(text, num_vars=4)
        coeffs = en._last_var_coefficients(f)
        # the guard picks int32 here; the int64 kernel must agree too
        assert en._kernel_dtype(f, coeffs, B) is np.int32, text
        for dtype, cells in itertools.product((np.int32, np.int64), lists):
            got, want = en._Hits(True, B), en._Hits(True, B)
            en._solve_tiles(coeffs, B, en._cell_slices(cells, dtype), got)
            en._solve_scalar(coeffs, zip(*cells.tolist()), B, want)
            assert got.hist.tolist() == want.hist.tolist(), text
            assert got.points == want.points, text
            if cells is box:
                assert got.points == [x for x in itertools.product(
                    range(-B, B + 1), repeat=4) if f.evaluate(x) == 0], text


def residual_branches(f, B):
    """The kernel branches that the residuals of f in its last variable
    take over the cells of [-B, B]^(n - 1), classed in Python ints."""
    coeffs = en._last_var_coefficients(f)
    branches = set()
    for x in itertools.product(range(-B, B + 1), repeat=f.num_vars - 1):
        c = [p.evaluate(x) for p in coeffs]
        k = max((j for j, cj in enumerate(c) if cj), default=-1)
        branches.add("full range" if k == -1 else "constant" if k == 0
                     else "linear" if k == 1 else "quadratic" if k == 2
                     else "scan" if any(c[1:k]) else "pure power")
    return branches


def check_kernel_in(dtype, f, B, monkeypatch):
    """f's zeros in [-B, B]^n, solved for the last variable, from the box
    tiles and from the cell slices of the whole box, the kernel running in
    dtype, against the oracle and the big-int path; each collected block
    is int64 either way, checked before the blocks merge, where one int64
    block would promote them."""
    coeffs = en._last_var_coefficients(f)
    assert en._kernel_dtype(f, coeffs, B) is dtype, f.to_text()
    want = [x for x in itertools.product(range(-B, B + 1), repeat=f.num_vars)
            if f.evaluate(x) == 0]
    seen = set()
    with monkeypatch.context() as m:
        def spy(c, prefix, grids, _real=en._eval_on_tile):
            got = _real(c, prefix, grids)
            seen.add(got.dtype.type)
            return got
        m.setattr(en, "_eval_on_tile", spy)
        hits = en._solve_in_order([f], f, B, True)
        assert seen == {dtype}, f.to_text()
        assert {b.dtype for b in hits._blocks} == {np.dtype(np.int64)}
        assert (hits.count, hits.points) == (len(want), want), f.to_text()
        assert hits.count == brute_affine(f, B)
        assert (hits.count, hits.points) == forced_scalar(count_affine, f, B)
        cells = np.array(list(itertools.product(
            range(-B, B + 1), repeat=f.num_vars - 1)), dtype=np.int64).T
        got, ref = en._Hits(True, B), en._Hits(True, B)
        seen.clear()
        en._solve_tiles(coeffs, B, en._cell_slices(cells, dtype), got)
        assert seen == {dtype}, f.to_text()
    en._solve_scalar(coeffs, zip(*cells.tolist()), B, ref)
    assert {b.dtype for b in got._blocks} == {np.dtype(np.int64)}
    assert got.hist.tolist() == ref.hist.tolist(), f.to_text()
    assert got.points == ref.points == want, f.to_text()


def test_int32_switch_sits_at_its_limit(monkeypatch):
    # for each closed-form branch and the scan, a family at B = 1 whose
    # guard is G: G = 2^30 - 1 runs in int32 and G = 2^30 in int64; the
    # quadratic guard b1^2 + 4 b2 b0 is 0 or 1 mod 4, so its int32 side
    # is 2^30 - 3.  At 2^30 - 1 the linear family's (-1, -1) cell forms
    # floor(rhs / c1) * c1 = 2^31 - 4, the int32 extreme of its bound
    limit = en.INT64_LIMIT >> 32
    assert limit == 1 << 30
    B = 1
    families = {
        "linear": lambda G: IntPoly(3, {(1, 0, 1): G - 1, (0, 1, 0): G}),
        "quadratic": lambda G: IntPoly(3, {
            (1, 0, 2): 1, (0, 1, 1): 1 if G < limit else 2,
            (0, 1, 0): (1 << 28) - 1}),
        "pure power": lambda G: IntPoly(3, {(1, 0, 3): 1, (0, 1, 0): G - 1}),
        "scan": lambda G: IntPoly(3, {(1, 0, 3): 1, (0, 1, 1): 1,
                                      (0, 1, 0): G - 2}),
    }
    for branch, family in families.items():
        for G, dtype in ((limit - (3 if branch == "quadratic" else 1),
                          np.int32), (limit, np.int64)):
            f = family(G)
            assert branch in residual_branches(f, B), (branch, G)
            check_kernel_in(dtype, f, B, monkeypatch)


def test_guard_bounds_every_coefficient_at_b_zero():
    # at B = 0 every term but the constant vanishes on the box, yet the
    # kernel still multiplies each coefficient into the tile, so the guard
    # bounds them as at B = 1: 2^31 + 1 leaves int32, 2^63 + 1 the kernel
    for C, dtype in ((2**31 + 1, np.int64), (2**63 + 1, None)):
        f = IntPoly(2, {(1, 1): C, (0, 1): 1})
        assert en._kernel_dtype(f, en._last_var_coefficients(f), 0) is dtype
        assert count_affine(f, 0, collect=True) == (1, [(0, 0)])


def test_linear_branch_edges_at_the_int32_boundary(monkeypatch):
    # C * (t1*t3 - t1 - s*t2): roots t3 = 1 + s*t2/t1 reach |t3| = B and
    # B + 1 (the latter out of the box), with negative c1 = C*t1, cells
    # where c1 = 0 with rhs = 0 (t3 free) and rhs != 0 (no root), and rhs =
    # 0 at c1 != 0 (the root 0).  s = 2 at B = 3 puts the guard 9C at
    # 2^30 - 1, int32, and s = 1 at B = 4 puts 8C at 2^30, int64
    for s, B, C, dtype in ((2, 3, ((1 << 30) - 1) // 9, np.int32),
                           (1, 4, 1 << 27, np.int64)):
        f = IntPoly(3, {(1, 0, 1): C, (1, 0, 0): -C, (0, 1, 0): -s * C})
        seen = set()
        for t1, t2 in itertools.product(range(-B, B + 1), repeat=2):
            ck, rhs = C * t1, C * (t1 + s * t2)
            if ck == 0:
                seen.add("c1 = 0, rhs = 0" if rhs == 0 else "c1 = 0, rhs != 0")
            elif rhs % ck == 0:
                t = abs(rhs // ck)
                seen.add(("t = 0" if t == 0 else "|t| = B" if t == B else
                          "|t| = B + 1" if t == B + 1 else "other")
                         + (", c1 < 0" if ck < 0 else ""))
        assert {"c1 = 0, rhs = 0", "c1 = 0, rhs != 0", "t = 0", "|t| = B",
                "|t| = B, c1 < 0", "|t| = B + 1"} <= seen, (s, B, seen)
        check_kernel_in(dtype, f, B, monkeypatch)


@pytest.fixture
def taken(monkeypatch):
    """Names of the enumeration solvers called, in call order."""
    names = []
    for name in ("_solve_tiles", "_solve_scalar"):
        def call(*args, _real=getattr(en, name), _name=name):
            names.append(_name)
            return _real(*args)
        monkeypatch.setattr(en, name, call)
    return names


def test_int64_scan_switch_sits_at_the_value_bound(taken):
    # a non-pure cubic residual is scanned by Horner, so the numpy kernel
    # also needs the value bound of the whole form below 2^62; f is solved
    # for t2 as written, where _solve_zeros would take t1, of degree 1
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
        n = en._solve_in_order([f], f, B, False).count
        assert taken == [path]
        assert n == count_affine(f, B) == brute_affine(f, B)
        assert n == 3


def test_generic_cubic_is_scanned_on_the_tile(taken):
    # the residuals of this cubic in x3 are cubics, scanned where they are
    # not pure powers when x3 is solved for, as written; _solve_zeros
    # takes x2 instead, of degree 2
    F = parse_poly("x0^3 + 2*x1^3 + 3*x2^2*x3 - x1*x2*x3 + x3^3")
    for B, n in ((16, 62), (32, 122)):
        hits = en._solve_in_order([F], F, B, False)
        hits.keep_primitive()
        assert hits.count == n
    # per count: the half boxes x0 >= 1, x1 >= 1 of the slice x0 = 0 and
    # x2 >= 1 of x0 = x1 = 0 on the tile; the last slice, x3^3, on the
    # big-int loop
    assert taken == (["_solve_tiles"] * 3 + ["_solve_scalar"]) * 2
    assert [count_projective(F, B) for B in (16, 32)] == [62, 122]


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


def test_primitive_zeros_of_a_square_match_the_form():
    # S*S, the sum of squares of the one generator S, has S's zeros, a
    # cone, and so S's primitive zeros once keep_primitive inverts them
    S = parse_poly("x0^2 + x1^2 - x2^2")
    hits = en._solve_zeros([S * S], 3, False)
    hits.keep_primitive()
    assert hits.count == count_projective(S, 3)


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
    # keys built two rows at a time, so 2B + 1 rows end in a one-row tile,
    # and read in chunks that start every 2B + 1 of the 2(2B + 1)^2 keys,
    # each start moved back to the first key of its value
    cells, keys = en.TILE_CELLS, en.JOIN_KEYS
    for F, B in separable_forms():
        want = count_projective(F, B, collect=True, by_height=True)
        monkeypatch.setattr(en, "TILE_CELLS", 2 * (2 * B + 1))
        monkeypatch.setattr(en, "JOIN_KEYS", 2 * B + 1)
        assert count_projective(F, B, collect=True, by_height=True) == want, (
            F.to_text(), B)
        assert count_projective(F, B, by_height=True) == (want[0], want[2])
        monkeypatch.setattr(en, "TILE_CELLS", cells)
        monkeypatch.setattr(en, "JOIN_KEYS", keys)
    assert len(splits) == 3 * len(separable_forms())


def test_split_value_groups_larger_than_a_chunk(monkeypatch, splits):
    # every left key of x2*x3 has value 0, and Fermat's value 0 has the
    # 4B + 2 keys of x1 = -x0 and x3 = -x2: chunks starting every 5 keys
    # start inside both groups, and each runs on to its group's end
    forms = [(parse_poly("x2*x3", num_vars=4), 5),
             (parse_poly("x0^3 + x1^3 + x2^3 + x3^3"), 6)]
    monkeypatch.setattr(en, "JOIN_KEYS", 5)
    got = [count_projective(F, B, collect=True, by_height=True)
           for F, B in forms]
    counted = [count_projective(F, B, by_height=True) for F, B in forms]
    assert len(splits) == 2 * len(forms)
    monkeypatch.setattr(en, "_split_halves", lambda f, B: None)
    for (F, B), (n, pts, hist), tally in zip(forms, got, counted):
        assert (n, pts, hist) == count_projective(F, B, collect=True,
                                                  by_height=True), F.to_text()
        assert tally == (n, hist)
        assert pts == brute_projective_points(F, B), F.to_text()


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
        if split:  # the largest key, value 9C at height 3, stored as 2k + 1
            assert 2 * (left * (B + 1) + B) + 1 < 1 << 63
        splits.clear()
        n, pts = count_projective(F, B, collect=True)
        assert bool(splits) is split
        assert (n, pts) == (len(pts), brute_projective_points(F, B))


def test_affine_separable_polynomials_take_the_join(monkeypatch, splits):
    # M of quaternary polynomials G(x0, xi) = H(rest), forms or not, takes
    # the join: against the scan, the tile path and the big-int path,
    # counting and collecting, with height histograms
    texts = ["x0^3 + x1^3 + x2^3 + x3^3", "x0*x2 - x1*x3",  # forms
             "x0^3 + x1^2 - x2 - x3^3", "x0*x3 + x0 - x1^2 - x2",  # mixed
             "x0^2 + x1^2 - x2^2 - x3^2 + 7",  # a constant term
             "x0^2 - 4", "x0*x1 - 6", "x2*x3 + 4"]  # an empty half
    for text in texts:
        f = parse_poly(text, num_vars=4)
        for B in (0, 1, 5):
            pts, hist = brute_zeros(f, B)
            splits.clear()
            got = count_affine(f, B, collect=True, by_height=True)
            assert got == (len(pts), pts, hist), (text, B)
            assert count_affine(f, B, by_height=True) == (len(pts), hist)
            assert len(splits) == 2, (text, B)
            assert forced_scalar(count_affine, f, B, by_height=True) == got
            with monkeypatch.context() as m:
                m.setattr(en, "_split_halves", lambda f, B: None)
                assert count_affine(f, B, collect=True, by_height=True) == (
                    got), (text, B)
            assert len(splits) == 2, (text, B)
    # at B = 0 the keys hold the constant term alone, but every coefficient
    # is multiplied into them: 2^70 leaves int64, so the join is skipped
    f = IntPoly(4, {(1, 1, 0, 0): 1 << 70, (0, 0, 1, 1): -1})
    splits.clear()
    assert count_affine(f, 0, collect=True) == (1, [(0, 0, 0, 0)])
    assert splits == []


def test_nested_systems_solve_inner_generators_first(monkeypatch):
    # the generators free of the last variable are solved first, by
    # _solve_zeros one variable down and so on, so the innermost
    # generator's zeros are the first cell list: for the first system the
    # 2B + 1 cells x0 = x1, then the 4B + 1 cells x2 = +-x0 over them
    systems = [("x1 - x0; x2^2 - x0*x1; x3 - x2", 4, 6),
               ("x0^2 - x1^2; x0*x2 - x1^2; x3^2 - x0*x2", 4, 6),
               ("x1 - x0; x2 - x1; x0*x3 - x2^2; x4^2 - x3*x1", 5, 3)]
    shapes, seen = [], {}

    def spy(cells, dtype, _real=en._cell_slices):
        shapes.append(cells.shape)
        return _real(cells, dtype)
    monkeypatch.setattr(en, "_cell_slices", spy)
    for texts, nv, B in systems:
        gens = [parse_poly(t, num_vars=nv) for t in texts.split(";")]
        shapes.clear()
        want = brute_variety_points(gens, B)
        assert want and en.enumerate_projective_variety(gens, B) == want
        seen[texts] = list(shapes)
        assert [rows for rows, _ in shapes] == list(range(2, nv)), texts
        with monkeypatch.context() as m:
            m.setattr(en, "INT64_LIMIT", 0)
            assert en.enumerate_projective_variety(gens, B) == want, texts
    assert seen[systems[0][0]] == [(2, 2 * 6 + 1), (3, 4 * 6 + 1)]
    # systems that are not forms, through _solve_zeros itself: the inner
    # generator x0^2 + 1 has no zero, and x0 - 2 the cells (2, x1)
    for texts, n in (("x0^2 + 1; x2 - x1", 0),
                     ("x0 - 2; x1 - x2^2; x1*x2 - 4*x0", 1)):
        gens = [parse_poly(t, num_vars=3) for t in texts.split(";")]
        pts = [x for x in itertools.product(range(-4, 5), repeat=3)
               if all(g.evaluate(x) == 0 for g in gens)]
        hits = en._solve_zeros(gens, 4, True)
        assert (hits.count, hits.points) == (n, pts), texts
        assert en._solve_zeros(gens, 4, False).hist.tolist() == (
            hits.hist.tolist()), texts


def fold_forms():
    """(text, num_vars, B): forms with a free variable of even exponent in
    every term, in each role it can take.  The last variable is solved for;
    of the others, in four variables x0 is the loop prefix, x1 the tile rows
    and x2 the tile columns, and in three x0 is the rows and x1 the
    columns.  x0 of a form of one degree parity takes the half box
    x0 >= 1 of the fold x -> -x instead, in count_affine as in
    count_projective, so it folds alone only in forms of mixed parity."""
    return [
        ("x0*x2 - x1^2", 3, 6),  # columns
        ("x0^2 + x1^2 - x2^2", 3, 6),  # rows and columns
        ("x0*x3 - x1^2 + x2*x3", 4, 3),  # rows
        ("x0*x3 + x1*x3 - x2^2", 4, 3),  # columns
        ("x0^2 - x1*x3 + x2*x3", 4, 3),  # the loop prefix
        ("x0*x4 - x1^2 + x2*x3", 5, 2),  # prefix, beside x0 of the half box
        ("x0^2 + x1^2 + x2^2 - x3^2", 4, 3),  # three even variables
        ("x1^2*x2^2 + x0^3*x3 - x3^4", 4, 3),  # two, of degree 4
        ("x0^3 + x1^2*x3 - x3^3", 4, 3),  # x2, absent, folds too
        ("x1^2 + x0*x3 - x3^2 + x2^2", 4, 3),  # quadratic residuals
        ("x3^3 + x0*x3^2 + x1^2*x3 - x2^2*x0", 4, 3),  # scanned residuals
        ("x0*x2 - x1^2", 4, 3),  # x3 free, absent from the form
        # an even last variable is solved, never folded
        ("x0*x1 - x2^2", 3, 6), ("x0^2 - x1^2", 2, 8),
        # x2 does not fold: the slice x2 = 0 no longer involves x3, and
        # the slice's solved variable would be x1, folded or not
        ("x0 + x1^2 + x2^2*x3", 4, 3), ("x0 + x2^2 + x1^2*x3", 4, 3),
    ]


@pytest.fixture
def boxes(monkeypatch):
    """The (num_vars, lows, B) of every _solve_box call, in call order."""
    calls = []

    def call(f, B, lows, hits, _real=en._solve_box):
        calls.append((f.num_vars, lows, B))
        return _real(f, B, lows, hits)
    monkeypatch.setattr(en, "_solve_box", call)
    return calls


def brute_zeros(F, B):
    """Integer zeros of F in [-B, B]^n, lexicographic, and their height
    histogram."""
    pts = [t for t in itertools.product(range(-B, B + 1), repeat=F.num_vars)
           if F.evaluate(t) == 0]
    hist = [0] * (B + 1)
    for t in pts:
        hist[max(map(abs, t), default=0)] += 1
    return pts, hist


def test_folded_counts_match_oracles_and_the_big_int_path(monkeypatch, boxes):
    # counting and collecting, with height histograms, at B = 0, 1 and a
    # larger B, on the numpy kernel and on the forced big-int path; the
    # folds are those of each form solved for its last variable, as
    # written, which _solve_zeros need not choose
    monkeypatch.setattr(en, "_split_halves", lambda f, B: None)
    folds = []

    def mirror(hits, j=None, _real=en._Hits.mirror):
        folds.append(j)
        return _real(hits, j)
    monkeypatch.setattr(en._Hits, "mirror", mirror)
    folded = set()
    for text, nv, B in fold_forms():
        F = parse_poly(text, num_vars=nv)
        for b in (0, 1, B):
            boxes.clear()
            folds.clear()
            pts, hist = brute_zeros(F, b)
            hits = en._solve_in_order([F], F, b, True)
            got = (hits.count, hits.points, hits.hist.tolist())
            assert got == (len(pts), pts, hist), (text, b)
            folded |= {(text, j is None) for j in folds}
            assert count_affine(F, b, collect=True, by_height=True) == got
            assert count_affine(F, b, by_height=True) == (len(pts), hist)
            assert forced_scalar(count_affine, F, b, by_height=True) == got
            if b and F.is_homogeneous():
                want = brute_projective_points(F, b)
                got = count_projective(F, b, collect=True)
                assert got == (len(want), want), (text, b)
                assert count_projective(F, b) == len(want)
                assert forced_scalar(count_projective, F, b) == got
            # the variable solved for always spans the box
            assert all(lows[-1] == -B_ for _, lows, B_ in boxes)
    # every form folds in the affine count, from B = 1 on: under x -> -x
    # where it or a slice of it has one degree parity, and in an even x_j
    # alone elsewhere; three forms have no even variable but x0 of the half
    # box, or none at all
    forms = {text for text, _, _ in fold_forms()}
    assert {text for text, whole in folded if whole} == forms
    assert {text for text, whole in folded if not whole} == forms - {
        "x0*x1 - x2^2", "x0^2 - x1^2", "x0^2 - x1*x3 + x2*x3"}


def test_affine_forms_of_one_parity_fold_under_minus_x(boxes):
    # M of forms of one degree parity takes the half box x0 >= 1, its
    # mirror x -> -x and the slice x0 = 0, which is the zero polynomial for
    # x0*x1; counting and collecting, on the kernel and the big-int path
    for text in ("x0*x2 - x1^2", "x0*x1"):
        F = parse_poly(text)
        for B in (0, 1, 5):
            boxes.clear()
            pts, hist = brute_zeros(F, B)
            got = count_affine(F, B, collect=True, by_height=True)
            assert got == (len(pts), pts, hist), (text, B)
            assert ((F.num_vars, (1,) + (-B,) * (F.num_vars - 1), B) in boxes
                    ) is (B > 0), (text, B)
            assert count_affine(F, B, by_height=True) == (len(pts), hist)
            assert forced_scalar(count_affine, F, B, by_height=True) == got
    assert boxes[-1] == (1, (-5,), 5)  # the slice x0 = 0 of x0*x1


def test_folded_affine_surface_matches_a_scan(monkeypatch):
    # the chart x0 = 1 moves x1, x2, x3 to the affine x0, x1, x2: x0 folds
    # there too; with filters, counting and collecting
    filters = [ResidueFilter(3, (1, 0, 2)), ResidueFilter(5, (4, 0, 0))]
    counted = []
    for text, nv, B in fold_forms():
        F = parse_poly(text, num_vars=nv)
        if nv != 4 or not F.is_homogeneous():
            continue
        for flt in ([], filters[:1], filters):
            want = [(1,) + t for t in itertools.product(range(-B, B + 1),
                                                        repeat=3)
                    if F.evaluate((1,) + t) == 0
                    and all(x % f.p == r for f in flt
                            for x, r in zip(t, f.residues))]
            hist = [0] * (B + 1)
            for t in want:
                hist[max(map(abs, t[1:]))] += 1
            got = count_affine_surface(F, B, flt, collect=True,
                                       by_height=True)
            assert got == (len(want), want, hist), (text, flt)
            assert count_affine_surface(F, B, flt, collect=False,
                                        by_height=True) == (len(want), hist)
            assert forced_scalar(count_affine_surface, F, B, flt,
                                 by_height=True) == got
            counted.append(len(want))
    assert len(counted) == 27 and min(counted[::3]) > 0


def test_folds_on_ragged_tiles(monkeypatch):
    # chunks two folded rows high (one row where the rows span the box);
    # B and B - 1 end the rows 1..B in a one-row chunk at one of them
    monkeypatch.setattr(en, "_split_halves", lambda f, B: None)
    for text, nv, B in fold_forms():
        F = parse_poly(text, num_vars=nv)
        for b in (B, B - 1):
            monkeypatch.setattr(en, "TILE_CELLS", 2 * b if nv >= 3 else 2)
            monkeypatch.setattr(en, "SCAN_CELLS", 2 * (2 * b + 1))
            pts, hist = brute_zeros(F, b)
            assert count_affine(F, b, collect=True, by_height=True) == (
                len(pts), pts, hist), (text, b)
            if F.is_homogeneous():
                want = brute_projective_points(F, b)
                assert count_projective(F, b, collect=True) == (
                    len(want), want), (text, b)


def test_conic_tiles_start_at_x1_one(monkeypatch):
    # x1 of x0*x2 - x1^2 is even, so its tiles hold x0 >= 1 and x1 >= 1
    # only, B cells a row; x1 = 0 is a slice of one free variable
    tiles = []
    real = en._eval_on_tile

    def spy(c, prefix, grids):
        if len(grids) == 2:
            tiles.append((grids[0].ravel().tolist(), grids[1].ravel().tolist()))
        return real(c, prefix, grids)
    monkeypatch.setattr(en, "_eval_on_tile", spy)
    B = 24
    conic = parse_poly("x0*x2 - x1^2")
    assert count_projective(conic, B) == brute_projective(conic, B)
    assert tiles and all(rows[0] >= 1 and cols == list(range(1, B + 1))
                         for rows, cols in tiles)
    assert sorted({x for rows, _ in tiles for x in rows}) == list(
        range(1, B + 1))


def test_kernel_buffer_is_scoped_to_the_chunk_loop():
    # the kernel's ufunc buffer holds in the loop and is restored when it
    # returns or raises
    conic = parse_poly("x0*x2 - x1^2")
    coeffs = en._last_var_coefficients(conic)
    before = np.getbufsize()
    inside = []

    def chunks(fail):
        for chunk in en._tiles((1, -5), 5, np.int32):
            inside.append(np.getbufsize())
            yield chunk
        if fail:
            raise RuntimeError("chunk source failed")
    hits = en._Hits(False, 5)
    en._solve_tiles(coeffs, 5, chunks(False), hits)
    assert np.getbufsize() == before
    with pytest.raises(RuntimeError, match="chunk source"):
        en._solve_tiles(coeffs, 5, chunks(True), en._Hits(False, 5))
    assert np.getbufsize() == before
    assert inside and set(inside) == {en.KERNEL_BUFFER} != {before}


def test_large_primes_invert_in_one_step():
    # keep_primitive against one slice step per prime, for every B up to
    # 400: B = p^2 - 1 leaves p to the indexed step, B = p^2 to the slices
    def per_prime(h, B):
        h = h.copy()
        for p in range(2, B + 1):
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                h[p::p] -= h[1:B // p + 1].copy()
        h[0] = 0
        return h
    rng = np.random.default_rng(8)
    bounds = range(0, 401)
    assert {48, 49, 120, 121, 35, 143, 391} <= set(bounds)  # p^2 - 1, p^2, pq
    for B in bounds:
        hits = en._Hits(False, B)
        z = rng.integers(0, 1000, size=B + 1)
        hits._hist += z
        hits.keep_primitive()
        assert hits.hist.tolist() == per_prime(z, B).tolist(), B
    small, targets, sources = en._moebius_steps(400)
    assert max(small) == 19 and len(set(targets.tolist())) == len(targets)
    assert not targets.flags.writeable
