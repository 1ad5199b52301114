"""Exact linear algebra over Q and Z shared across the package.

Dense routines run on Fraction entries (inputs may be ints); the sparse
eliminator keeps dict-backed rows and is what makes large graded pieces
tractable: rows coming from monomial or binomial generators never grow
past two entries during elimination.  Integer determinants use Bareiss
fraction-free elimination, so every division is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import clear_denominators


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
    """Reduced row echelon form over Q.

    Returns (pivot_cols, rref_rows) where rref_rows spans the row space of
    the input with leading 1s at pivot_cols.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[: len(pivots)]


def rank_dense(rows) -> int:
    return len(rref_dense(rows)[0])


def nullspace_int(rows, ncols=None):
    """Primitive integer basis of the right nullspace of a rational matrix.

    Each basis vector is scaled to coprime integers with first nonzero
    entry positive; the basis order follows the free columns left to right.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        ncols = len(rows[0])
    pivots, red = rref_dense(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(clear_denominators(vec))
    return basis


def rank_sparse(rows, ncols):
    """Rank and canonical pivot-column set of a sparse rational matrix.

    ``rows`` is an iterable of {col: coeff} dicts.  Each incoming row is
    reduced at its leading column against the pivots found so far; the
    resulting pivot set is the canonical one (leading columns of the row
    space), independent of row order.  Rows with at most two entries stay
    that short throughout, which keeps graded-piece computations fast.
    """
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v != 0}
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                pivot_rows[lead] = row
                break
            f = row[lead] / piv[lead]
            for c, v in piv.items():
                nv = row.get(c, 0) - f * v
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
        # empty row: linearly dependent, nothing to record
    return len(pivot_rows), set(pivot_rows)


def invert_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    pivots, red = rref_dense(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = []
    for i in range(n):
        row = red[i][n:]
        if any(f.denominator != 1 for f in row):
            raise ValueError("matrix is not unimodular")
        inv.append([int(f) for f in row])
    return inv
