"""Exact linear algebra over Q and Z shared across the package.

Every routine takes integer matrices and eliminates in integers only; no
rational number is ever built.  The dense echelon routine and the sparse
eliminator clear a column by cross-multiplying two rows and divide the
result by its content, so every row stays primitive, and the rational
RREF is the integer one with each row divided by its pivot entry.  The
dense routine inserts rows one at a time and drops a dependent row by dot
products with the null vectors of the pivot rows so far.  The sparse
eliminator keeps dict-backed rows and is what makes large graded pieces
tractable: rows coming from monomial or binomial generators never grow
past two entries during elimination.  Integer determinants use Bareiss
fraction-free elimination, so every division is exact.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm
from operator import index, mul

from .exact import divide_content, primitive_vector


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rref_dense(rows):
    """Integer reduced row echelon form.

    Returns (pivot_cols, red, null) where the integer rows red span the row
    space of the integer input over Q.  Each row of red is primitive, has a
    positive entry at its own pivot column and 0 at every other pivot
    column; dividing each row by its pivot entry gives the rational RREF.

    Rows are inserted one at a time, each cleared against the pivots so far.
    After a row reduces to zero, the null vectors of the pivot rows are kept
    until the next insertion; a row orthogonal to all of them lies in the
    row span over Q and is skipped without elimination.  null is that
    basis, as nullspace_int returns it, when a row reduced to zero after
    the last insertion, and None otherwise.
    """
    pivots, red, null = [], [], None
    for row in rows:
        row = list(map(index, row))
        if null is not None and not any(sum(map(mul, v, row)) for v in null):
            continue
        for pc, prow in zip(pivots, red):
            if row[pc]:
                row = _clear(row, prow, pc)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            null = _null_basis(pivots, red, len(row))
            continue
        row = divide_content(row)
        if row[c] < 0:
            row = [-x for x in row]
        red = [_clear(prow, row, c) if prow[c] else prow for prow in red]
        k = bisect(pivots, c)
        pivots.insert(k, c)
        red.insert(k, row)
        null = None
        if len(pivots) == len(row):
            break
    return pivots, red, null


def _clear(row, prow, c):
    """row with column c cleared against prow (prow[c] > 0), made primitive;
    a positive multiple of row minus a multiple of prow."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return divide_content([a * x - b * y for x, y in zip(row, prow)])


def _null_basis(pivots, red, ncols):
    """Primitive basis of the right nullspace of an integer RREF, one vector
    per free column, left to right."""
    # L times the rational RREF row r is (L // pivot_r) * red[r]
    L = lcm(*(row[pc] for pc, row in zip(pivots, red)))
    scaled = [(pc, row, L // row[pc]) for pc, row in zip(pivots, red)]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = L
        for pc, row, s in scaled:
            vec[pc] = -row[free] * s
        basis.append(primitive_vector(vec))
    return basis


def nullspace_int(rows, ncols=None):
    """Primitive integer basis of the right nullspace of an integer matrix.

    Each basis vector is scaled to coprime integers with first nonzero
    entry positive; the basis order follows the free columns left to right.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        ncols = len(rows[0])
    pivots, red, null = rref_dense(rows)
    return _null_basis(pivots, red, ncols) if null is None else null


def rank_sparse(rows, ncols):
    """Rank and canonical pivot-column set of a sparse integer matrix.

    ``rows`` is an iterable of {col: coeff} dicts.  Each incoming row is
    reduced at its leading column against the pivots found so far, by
    cross-multiplying and dividing by the content; the resulting pivot set
    is the canonical one (leading columns of the row space), independent of
    row order.  Rows with at most two entries stay that short throughout,
    which keeps graded-piece computations fast.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _primitive_sparse({c: v for c, v in row.items() if v})
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                pivot_rows[lead] = row
                break
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row[lead] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            row = _primitive_sparse(row)
        # empty row: linearly dependent, nothing to record
    return len(pivot_rows), set(pivot_rows)


def _primitive_sparse(row):
    """A {col: coeff} row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}

