import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
import sympy

from ratpoints import linalg
from ratpoints.linalg import (P, annihilates, det_bareiss, echelon_mod,
                              nullspace_int, nullspaces_int, rank_sparse,
                              rref_dense)


def laplace_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * laplace_det([r[:j] + r[j + 1 :] for r in m[1:]])
        for j in range(n)
    )


def test_det_against_laplace():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == laplace_det(m)


def _rational_rref(piv, red):
    """(pivots, rows) of the rational RREF read off the integer one."""
    return tuple(piv), [[Fraction(x, row[c]) for x in row]
                        for c, row in zip(piv, red)]


def _sympy_rref(m):
    red, piv = sympy.Matrix(m).rref()
    return tuple(piv), [[Fraction(int(x.p), int(x.q)) for x in red.row(k)]
                        for k in range(len(piv))]


def test_rref_structure_and_nullspace():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        piv, red = rref_dense(m)
        assert _rational_rref(piv, red) == _sympy_rref(m)
        for k, c in enumerate(piv):
            assert red[k][c] > 0
            assert all(red[kk][c] == 0 for kk in range(len(piv)) if kk != k)
        null = nullspace_int(m, cols)
        assert len(null) == cols - len(piv)
        for v in null:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
            first = next((x for x in v if x), None)
            assert first is not None and first > 0


def test_rank_sparse_matches_dense():
    rng = random.Random(13)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0
              for _ in range(cols)] for _ in range(rows)]
        sparse_rows = [{j: v for j, v in enumerate(r) if v} for r in m]
        rank, pivots = rank_sparse(sparse_rows, cols)
        assert rank == len(rref_dense(m)[0])
        assert len(pivots) == rank


def _random_matrix(rng, rows, cols, scale):
    """Seeded integer matrix: some zero entries, and in most draws a row
    that is a combination of the others, so the rank drops."""
    m = [[rng.randint(-scale, scale) if rng.random() < 0.7 else 0
          for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.6:
        i = rng.randrange(rows)
        m[i] = _combination(rng, m[:i] + m[i + 1:], 3)
    return m


def _combination(rng, rows, k):
    """A seeded integer combination of rows, coefficients in [-k, k]."""
    mix = [rng.randint(-k, k) for _ in rows]
    return [sum(a * x for a, x in zip(mix, column)) for column in zip(*rows)]


def _shapes():
    # zero, tall, wide and square shapes, entries up to 300^3 as in the
    # detmethod value matrices
    rng = random.Random(2024)
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[0] * 5]
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        scale = rng.choice((1, 9, 300**3))
        yield _random_matrix(rng, rows, cols, scale)
    # class-shaped value matrices: monomials of degree D in (1, x, y, z) at
    # points of height <= 300; degree 2 gives tall ones
    for D, most in ((3, 12), (2, 14)):
        monos = [(a, b, c) for a in range(D + 1) for b in range(D + 1 - a)
                 for c in range(D + 1 - a - b)]
        for _ in range(10):
            pts = [tuple(rng.randint(-300, 300) for _ in range(3))
                   for _ in range(rng.randint(2, most))]
            yield [[x**a * y**b * z**c for a, b, c in monos]
                   for x, y, z in pts]
    yield from _insertion_shapes(rng)


def _insertion_shapes(rng):
    """Row orders where inserting rows one at a time can go wrong."""
    # a dependent row, then an independent one, then rows in the larger
    # span only
    yield _SPAN_ROWS
    yield [_U, _mix(-4, 0, 0), _V, _mix(1, 1, 0), _W, _mix(3, 0, 2),
           [0, 0, 0, 0, 1]]
    for _ in range(40):
        rank, cols = rng.randint(1, 5), rng.randint(2, 7)
        basis = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rank)]
        rows, used = [], []
        for r in basis:
            used.append(r)
            rows.append(r)
            for _ in range(rng.randint(0, 3)):
                rows.append([sum(rng.randint(-3, 3) * u[j] for u in used)
                             for j in range(cols)])
        yield rows
    # leading zero rows and duplicated rows
    yield [[0, 0, 0], [0, 0, 0], [1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 7],
           [2, 4, 7], [1, 2, 3]]
    yield [[0, 0, 0, 0]] * 3 + [[0, 0, 5, 0]] * 2 + [[0, 3, 1, 0]]
    # rank reaches the column count with rows left over
    yield [[1, 0, 0], [0, 2, 0], [0, 0, 3], [5, 6, 7], [0, 0, 0], [1, 1, 1]]
    yield [[2, 4], [1, 2], [3, 1], [7, -7], [0, 1]]
    # class-shaped D = 2 value matrices: collinear points, so rank 3, and a
    # point off the line placed last
    monos = [(a, b, c) for a in range(3) for b in range(3 - a)
             for c in range(3 - a - b)]
    for _ in range(10):
        x0, y0, z0 = (rng.randint(-300, 300) for _ in range(3))
        dx, dy, dz = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        pts = [(x0 + t * dx, y0 + t * dy, z0 + t * dz)
               for t in rng.sample(range(-30, 30), rng.randint(3, 20))]
        # dx != 0, so a step along z alone leaves the line
        pts.append((x0, y0, z0 + rng.randint(1, 5)))
        yield [[x**a * y**b * z**c for a, b, c in monos] for x, y, z in pts]


_U, _V, _W = [1, 2, 0, -3, 5], [0, 3, 1, 1, -2], [2, -1, 4, 0, 7]


def _mix(k, l, m):
    return [k * a + l * b + m * c for a, b, c in zip(_U, _V, _W)]


# u, v, a row in their span, w, then rows in the span of u, v, w only
_SPAN_ROWS = [_U, _V, _mix(2, -3, 0), _W, _mix(1, 0, 1), _mix(0, 5, -2),
              _mix(1, 1, 1)]


def test_linalg_against_sympy():
    for m in _shapes():
        cols = len(m[0])
        M = sympy.Matrix(m)
        assert len(rref_dense(m)[0]) == M.rank()
        piv, red = rref_dense(m)
        assert _rational_rref(piv, red) == _sympy_rref(m)
        ours = nullspace_int(m, cols)
        theirs = M.nullspace()
        assert len(ours) == len(theirs)
        for v, w in zip(ours, theirs):
            # both bases follow the free columns left to right, so each of
            # ours is sympy's scaled to coprime integers, first nonzero > 0
            w = [Fraction(int(x.p), int(x.q)) for x in w]
            scale = next(Fraction(x) / y for x, y in zip(v, w) if y)
            assert [x * scale for x in w] == [Fraction(x) for x in v]
            assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
        sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
        rank, pivots = rank_sparse(sparse, cols)
        assert rank == M.rank() and sorted(pivots) == list(piv)


def _span_mod(rows, q):
    """Every vector of the row space of rows over F_q, by brute force."""
    return {tuple(sum(c * x for c, x in zip(coeffs, col)) % q
                  for col in zip(*rows))
            for coeffs in itertools.product(range(q), repeat=len(rows))}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_echelon_mod_matches_brute_force(q):
    # the rank over F_q is log_q of the row space's size; the pivot rows
    # and the reduced form span the same space
    rng = random.Random(q)
    A = np.array([[[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                    for _ in range(4)] for _ in range(3)]
                  for _ in range(60)], dtype=np.int64)
    A[::3, 2] = A[::3, 0] + 2 * A[::3, 1]  # a dependent row in some
    ranks, order, ech = echelon_mod(A, q)
    for m, r, rows, form in zip(A.tolist(), ranks, order, ech):
        span = _span_mod(m, q)
        assert len(span) == q ** r
        assert _span_mod([m[j] for j in rows[:r]] or [[0] * 4], q) == span
        assert _span_mod(form.tolist(), q) == span
        assert not form[r:].any()
        for k in range(r):
            lead = next(c for c, x in enumerate(form[k]) if x)
            assert form[k, lead] == 1 and form[:, lead].sum() == 1


def test_echelon_mod_needs_a_modulus_below_2_31():
    A = np.zeros((1, 2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"^modulus 2147483648 is not below "
                                         r"2\^31$"):
        echelon_mod(A, 2**31)


def test_nullspaces_int_matches_nullspace_int_on_ragged_batches():
    by_cols = defaultdict(list)
    for m in _shapes():
        by_cols[len(m[0])].append(m)
    # repeated row spaces: the same rows reordered, scaled and recombined,
    # with and without extra dependent rows, so groups have many members
    rng = random.Random(11)
    for _ in range(30):
        cols = rng.randint(2, 8)
        base = _random_matrix(rng, rng.randint(1, cols), cols, 9)
        for _ in range(rng.randint(2, 6)):
            rows = [[rng.choice((-2, -1, 1, 3)) * x for x in row]
                    for row in base]
            rows += [_combination(rng, base, 2)
                     for _ in range(rng.randint(0, 3))]
            rng.shuffle(rows)
            by_cols[cols].append(rows)
    for cols, mats in by_cols.items():
        rng.shuffle(mats)
        assert nullspaces_int(mats, cols) == \
            [nullspace_int(m, cols) for m in mats], cols
        as_arrays = [np.array(m, dtype=np.int64)
                     if all(abs(x) < 2**63 for row in m for x in row) else m
                     for m in mats]
        assert nullspaces_int(as_arrays, cols) == \
            [nullspace_int(m, cols) for m in mats], cols


def _fallbacks(monkeypatch, mats, ncols):
    """nullspaces_int's answer, checked against nullspace_int, and the
    matrices of mats it handed to nullspace_int whole.  The pivot rows
    that give each group's candidate basis go to nullspace_int too, as new
    lists, and are not listed."""
    sent = []
    real = linalg.nullspace_int
    monkeypatch.setattr(linalg, "nullspace_int",
                        lambda m, n: sent.append(m) or real(m, n))
    got = nullspaces_int(mats, ncols)
    assert got == [real(m, ncols) for m in mats]
    return [m for m in sent if any(m is x for x in mats)]


def test_nullspaces_int_edge_cases(monkeypatch):
    full = [[1, 2], [3, 4]]
    zero = [[0, 0], [0, 0]]
    assert _fallbacks(monkeypatch, [full, zero, []], 2) == []
    assert nullspaces_int([full, zero, []], 2) == [[], [(1, 0), (0, 1)],
                                                   [(1, 0), (0, 1)]]
    # rank 2 over Q, rank 1 mod P: the check rejects the basis of the
    # first row
    drops = [[1, 1], [1, 1 + P]]
    assert _fallbacks(monkeypatch, [drops], 2) == [drops]
    # the same echelon form mod P, different row spaces over Q: the second
    # matrix shares the first one's basis (0, 1) until the check rejects it
    first, second = [[1, 0]], [[1, P]]
    assert _fallbacks(monkeypatch, [first, second], 2) == [second]
    assert nullspaces_int([first, second], 2) == [[(0, 1)], [(P, -1)]]
    # an entry past int64 makes an object array, an entry of -2^63 and a
    # null vector too long for an int64 product are checked in Python ints,
    # and none of them goes to nullspace_int
    wide = [[2**70, 1, 0]]
    edge = [[-2**63, 1, 0]]
    long = [[3**25, -2**40, 0], [0, 0, 1]]
    assert _fallbacks(monkeypatch, [wide, edge, long, [[1, 1, 1]]], 3) == []
    # 2^63 - 1 and -2^63 fit an int64, 2^63 and -2^63 - 1 do not; on
    # either side the rows are reduced mod P in the same stacks and a
    # right basis is kept without nullspace_int
    mats = []
    for top, dtype in ((2**63 - 1, np.int64), (-2**63, np.int64),
                       (2**63, object), (-2**63 - 1, object)):
        for m in ([[top, 1, 0], [0, 0, 0], [top, 1, 0]],
                  [[1, 2, 3], [top, 0, 1]]):
            assert linalg._int_rows(m, 3).dtype == dtype
            mats.append(m)
    assert _fallbacks(monkeypatch, mats, 3) == []
    # 2^63 = 2 (mod P): an int64 matrix and an object one share a reduced
    # form mod P, and the object one is rejected by its exact check; so is
    # an object matrix whose last row vanishes mod P
    small, big = [[2, 1, 0]], [[2**63, 1, 0]]
    hidden = [[1, 0, 0], [0, 1, 0], [0, 0, P << 40]]
    assert _fallbacks(monkeypatch, [small, big, hidden], 3) == [big, hidden]
    assert nullspaces_int([small, big, hidden], 3) == [
        [(1, -2, 0), (0, 0, 1)], [(1, -2**63, 0), (0, 0, 1)], []]


def test_nullspaces_int_one_rref_per_row_space(monkeypatch):
    # three or more collinear points give value matrices of rank 3 with
    # the same row space, which one exact RREF serves, though the three-
    # and four-row matrices are reduced in different stacks; two points
    # span a row space of their own, and full rank needs no RREF
    calls = []
    real = linalg.rref_dense
    monkeypatch.setattr(linalg, "rref_dense",
                        lambda rows: calls.append(rows) or real(rows))
    monos = [(a, b, c) for a in range(3) for b in range(3 - a)
             for c in range(3 - a - b)]
    mats = [[[x**a * y**b * z**c for a, b, c in monos]
             for x, y, z in ((t, 2 * t + 1, 3 - t) for t in ts)]
            for ts in ([0, 1, 2], [5, -3, 7, 9], [4, 8], [-1, 1])]
    mats.append([[int(i == j) for j in range(10)] for i in range(10)])
    got = nullspaces_int(mats, 10)
    assert len(calls) == 3
    assert got == [nullspace_int(m, 10) for m in mats]


def test_nullspaces_int_pads_within_a_factor_of_two(monkeypatch):
    # one tall matrix does not set the height every other matrix is padded
    # to: each stack is at most twice as tall as any block in it, and a
    # matrix of more than 2 * ncols rows is stacked 2 * ncols rows at a
    # time at first; the one of 40 rows reaches rank 4 in its first 8
    stacks = []
    real = linalg.echelon_mod
    monkeypatch.setattr(linalg, "echelon_mod",
                        lambda A: stacks.append(A.shape) or real(A))
    rng = random.Random(5)
    heights = [1, 2, 3, 3, 4, 7, 8, 40, 2, 1]
    mats = [_random_matrix(rng, h, 4, 5) for h in heights]
    assert nullspaces_int(mats, 4) == [nullspace_int(m, 4) for m in mats]
    assert sum(n for n, _, _ in stacks) == len(mats)
    assert sorted(R for _, R, _ in stacks) == [1, 3, 7, 8]


def test_nullspaces_int_checks_every_row_of_a_tall_matrix(monkeypatch):
    # rows that vanish mod P stay out of a tall matrix's pivot rows, and
    # the nullspace of those rows is rejected by the rows left out
    tall = [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, P]]
    assert _fallbacks(monkeypatch, [tall], 3) == [tall]
    assert nullspaces_int([tall], 3) == [[]]
    # a tall matrix whose pivot rows mod P give its nullspace over Q is
    # answered without nullspace_int, also in the same group as a short
    # matrix of the same row space
    rng = random.Random(21)
    base = _random_matrix(rng, 3, 6, 9)
    tall = [_combination(rng, base, 3) for _ in range(20)] + base
    assert _fallbacks(monkeypatch, [tall, base], 6) == []


def test_row_spaces_span_each_matrix():
    # with ncols = 5, rows are taken 10, 10, 20, 25, 25, ... at a time: the
    # chunk doubles up to ncols^2; at heights around those steps and at
    # ranks below ncols, which never end early, each matrix's pivot rows
    # are independent mod P and have its reduced form mod P
    rng = random.Random(23)
    ncols = 5
    arrays = []
    heights = (0, 1, 4, 5, 6, 9, 10, 11, 20, 21, 39, 40, 41, 64, 65, 66, 90,
               91)
    for height in heights:
        for rank in (1, 3, 5):
            base = _random_matrix(rng, rank, ncols, 9)
            arrays.append(np.array(
                [_combination(rng, base, 3) for _ in range(height)],
                dtype=np.int64).reshape(height, ncols))
    # every height past the first round has matrices below rank ncols
    assert {len(a) for a in arrays if len(a) > 2 * ncols
            and echelon_mod(a[None])[0][0] < ncols} == {
                h for h in heights if h > 2 * ncols}
    # rank that only the last row adds, however tall the matrix
    for height in (11, 21, 41, 66, 91):
        first, last = _random_matrix(rng, 2, ncols, 9)
        arrays.append(np.array([[t * x for x in first]
                                for t in range(1, height)] + [last],
                               dtype=np.int64))
    reduced = linalg._row_spaces(arrays, ncols)
    assert len(reduced) == len(arrays)
    for i, (rows, key) in enumerate(reduced):
        rank, _, form = echelon_mod(arrays[i][None])
        got, _, got_form = echelon_mod(arrays[i][rows][None])
        assert len(set(rows.tolist())) == len(rows) == got[0] == rank[0]
        assert key == form[0, :len(rows)].tobytes() \
            == got_form[0, :len(rows)].tobytes()


def _past_bound(m, ncols):
    """Whether the int64 check of m against its basis is past its bound."""
    top = max((abs(x) for v in nullspace_int(m, ncols) for x in v), default=0)
    return ncols * max(abs(x) for row in m for x in row) * top >= 2**63


def test_nullspaces_int_keeps_a_right_basis_past_the_int64_bound(monkeypatch):
    # M N past the int64 bound is taken in Python ints, so a right batched
    # basis is kept without nullspace_int: tall matrices of entries near
    # 2^40, one of them sharing its group with a short one
    rng = random.Random(23)
    mats = []
    for height, rank in ((40, 3), (3, 3), (30, 2)):
        base = [[rng.randint(-2**20, 2**20) for _ in range(5)]
                for _ in range(rank)]
        mix = [[rng.randint(-2**19, 2**19) for _ in base]
               for _ in range(height)]
        mats.append([[sum(a * r[j] for a, r in zip(row, base))
                      for j in range(5)] for row in mix] + base)
    mats.append(mats[0][-3:])
    assert all(_past_bound(m, 5) for m in mats)
    assert _fallbacks(monkeypatch, mats, 5) == []


def test_nullspaces_int_rejects_a_wrong_basis_past_the_int64_bound(
        monkeypatch):
    # the last row vanishes mod P, so the candidate basis (0, 0, 1) comes
    # from the first two rows alone; the exact product shows it wrong
    tall = [[1, 0, 0], [0, 1, 0], [0, 0, P << 31]]
    assert 3 * (P << 31) >= 2**63
    assert _fallbacks(monkeypatch, [tall], 3) == [tall]
    assert nullspaces_int([tall], 3) == [[]]


def test_annihilates_switches_to_python_ints_at_the_bound(monkeypatch):
    # a row of 2^32 against a vector of 2^32: the int64 product 2^64 wraps
    # to 0, so the block must be read in Python ints
    wrap = np.array([[2**32]], dtype=np.int64)
    assert annihilates([wrap], [(2**32,)]) == [False]
    # bound products ncols * max|row| * max|vector| of 2^63 - 2^31 and of
    # 2^63 fall on either side of the switch; only Python ints call mul
    products = []
    monkeypatch.setattr(linalg, "mul",
                        lambda a, b: products.append(a) or a * b)
    v = 2**32 - 1
    below = np.array([[2**30, 2**30], [-1, -1]], dtype=np.int64)
    assert 2 * 2**30 * v == 2**63 - 2**31
    assert annihilates([below], [(v, -v)]) == [True]
    assert annihilates([below], [(v, -v), (v, 0)]) == [False]
    assert products == []
    at = np.array([[2**31, 2**31], [-1, -1]], dtype=np.int64)
    assert annihilates([at], [(2**31, -2**31)]) == [True]
    assert len(products) == 4
    # one row of at, past the bound; below is under it at max|vector| 2^31
    assert annihilates([at, below], [(2**31, 0)]) == [False, False]
    assert len(products) == 6


def test_annihilates_matches_python_ints():
    # int64 blocks under and past the bound, object blocks, empty blocks
    # and vectors past int64 in one call, against the exact products
    rng = random.Random(29)
    for _ in range(60):
        ncols = rng.randint(2, 6)
        A = _random_matrix(rng, rng.randint(1, ncols - 1), ncols, 9)
        vectors = []
        for v in nullspace_int(A, ncols):
            scale = rng.choice((1, 1, 2**20, 2**62, 2**70))
            vectors.append([x * scale for x in v])
        blocks = []
        for _ in range(rng.randint(1, 5)):
            rows = [_combination(rng, A, 3)
                    for _ in range(rng.randint(0, 4))]
            if rows and rng.random() < 0.3:
                rows[-1] = [rng.randint(-9, 9) for _ in range(ncols)]
            scale = rng.choice((1, 2**20, 2**40, 2**52, 2**70))
            rows = [[x * scale for x in row] for row in rows]
            wide = any(abs(x) >= 2**63 for row in rows for x in row)
            dtype = object if wide or rng.random() < 0.2 else np.int64
            blocks.append(np.array(rows, dtype=dtype).reshape(-1, ncols))
        want = [not any(sum(a * b for a, b in zip(v, row))
                        for row in block.tolist() for v in vectors)
                for block in blocks]
        assert annihilates(blocks, vectors) == want
    assert annihilates([np.zeros((2, 3), dtype=np.int64)], []) == [True]
    assert annihilates([], [(1, 2)]) == []
