import math
import random
from fractions import Fraction

import sympy

from ratpoints import linalg
from ratpoints.linalg import (det_bareiss, nullspace_int, rank_sparse,
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
        piv, red, _ = rref_dense(m)
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
        m[i] = [sum(rng.randint(-3, 3) * m[k][j] for k in range(rows) if k != i)
                for j in range(cols)]
    return m


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


def test_rref_drops_dependent_rows_without_elimination(monkeypatch):
    # once a row has reduced to zero, rows in the span of the pivots so far
    # cost no _clear call, also after a later insertion
    real = linalg._clear

    def clears(rows):
        calls = []
        monkeypatch.setattr(linalg, "_clear",
                            lambda *args: calls.append(1) or real(*args))
        return rref_dense(rows), len(calls)

    assert clears(_SPAN_ROWS) == clears(_SPAN_ROWS[:5])
    # collinear points span 3 of the 10 degree-2 monomial columns; every
    # row after the fourth is dropped by dot products alone
    pts = [(2 + t, 3 - 2 * t, 5 + 3 * t) for t in range(12)]
    rows = [[x**a * y**b * z**c for a in range(3) for b in range(3 - a)
             for c in range(3 - a - b)] for x, y, z in pts]
    assert clears(rows) == clears(rows[:4])
    assert len(clears(rows)[0][0]) == 3


def test_nullspace_builds_the_null_basis_once(monkeypatch):
    # the basis the elimination built to drop the trailing dependent rows
    # is the answer; after an insertion, or with no dependent row, one more
    # is built
    real = linalg._null_basis
    calls = []
    monkeypatch.setattr(linalg, "_null_basis",
                        lambda *args: calls.append(1) or real(*args))
    for rows, extra in ((_SPAN_ROWS, 0), (_SPAN_ROWS[:4], 1), ([_U, _V], 1)):
        calls.clear()
        pivots, red, null = rref_dense(rows)
        inside = len(calls)
        assert (null is None) == bool(extra)
        calls.clear()
        got = nullspace_int(rows, 5)
        assert len(calls) == inside + extra
        assert got == real(pivots, red, 5)
        assert all(sum(map(lambda a, b: a * b, v, r)) == 0
                   for v in got for r in rows)


def test_linalg_against_sympy():
    for m in _shapes():
        cols = len(m[0])
        M = sympy.Matrix(m)
        assert len(rref_dense(m)[0]) == M.rank()
        piv, red, _ = rref_dense(m)
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
