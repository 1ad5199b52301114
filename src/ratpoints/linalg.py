"""Exact linear algebra over Q and Z shared across the package.

The exact routines take integer matrices and eliminate in integers only;
no rational number is ever built.  The dense echelon routine and the
sparse eliminator clear a column by cross-multiplying two rows and divide
the result by its content, so every row stays primitive, and the rational
RREF is the integer one with each row divided by its pivot entry.  The
dense routine inserts rows one at a time and drops a dependent row by dot
products with the null vectors of the pivot rows so far.  The sparse
eliminator keeps dict-backed rows and is what makes large graded pieces
tractable: rows coming from monomial or binomial generators never grow
past two entries during elimination.  Integer determinants use Bareiss
fraction-free elimination, so every division is exact.

Arithmetic mod a prime is used in one place: ``echelon_mod`` row-reduces
a stack of matrices mod p in numpy, for ranks over F_p and, in
``nullspaces_int``, to pick each matrix's pivot rows and to group matrices
whose row spaces agree mod P = 2^31 - 1.  That nullspace stays exact:
rows independent mod P are independent over Q, and every basis is
checked against its matrix exactly before it is returned, or else
recomputed by ``nullspace_int``.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm
from operator import index, mul

import numpy as np

from .exact import divide_content, primitive_vector

# the prime of nullspaces_int's elimination, the largest below 2^31
P = 2**31 - 1


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


def nullspaces_int(matrices, ncols):
    """[nullspace_int(m, ncols) for m in matrices], with one exact RREF per
    distinct row space instead of one per matrix.

    Each matrix is a list of integer rows or a 2-D integer array with ncols
    columns.  They are row-reduced mod P (echelon_mod) in zero-padded
    stacks of similar height, and matrices with the same reduced form mod
    P, in any stack, form a group.  One member's pivot rows mod P are
    independent over Q, so the exact nullspace N of those rows has
    ncols - r vectors for the member's rank r mod P, and a matrix M of the
    group with M N = 0 has nullspace exactly span N; the primitive basis
    depends on the nullspace only.  M N is taken in int64 under the a
    priori bound ncols * max|M| * max|N| < 2^63.  A matrix whose check
    fails, whose bound fails or whose entries do not fit an int64 goes to
    nullspace_int.
    """
    matrices = list(matrices)
    arrays = [_int64_rows(m, ncols) for m in matrices]
    # matrices whose row counts lie between the same powers of two are
    # reduced as one zero-padded stack, so padding at most doubles a matrix
    buckets = {}
    for i, a in enumerate(arrays):
        if a is not None:
            buckets.setdefault(len(a).bit_length(), []).append(i)
    groups, bases, stacks = {}, [], []
    for members in buckets.values():
        A = np.zeros((len(members), max(len(arrays[i]) for i in members),
                      ncols), dtype=np.int64)
        for b, i in enumerate(members):
            A[b, :len(arrays[i])] = arrays[i]
        ranks, order, ech = echelon_mod(A)
        group_of = []
        for b, r in enumerate(ranks.tolist()):
            key = ech[b, :r].tobytes()
            if key not in groups:
                # the group's candidate basis, from this member's pivot rows
                groups[key] = len(bases)
                bases.append(_null_of_rows(A[b, order[b, :r]].tolist(), ncols))
            group_of.append(groups[key])
        stacks.append((members, A, group_of))
    out = [None] * len(matrices)
    if bases:
        top = [max((abs(x) for v in basis for x in v), default=0)
               for basis in bases]
        # the bases as columns, padded to the widest nullity; one past
        # int64 fails the bound and stays zero
        N = np.zeros((len(bases), ncols, max(map(len, bases))),
                     dtype=np.int64)
        for k, basis in enumerate(bases):
            if basis and top[k] < 2**63:
                N[k, :, :len(basis)] = np.array(basis, dtype=np.int64).T
    for members, A, group_of in stacks:
        high = A.max(axis=(1, 2), initial=0).tolist()
        low = A.min(axis=(1, 2), initial=0).tolist()
        # a product past the bound may wrap, but then it is not read
        nonzero = np.matmul(A, N[group_of]).any(axis=(1, 2)).tolist()
        for b, (i, k) in enumerate(zip(members, group_of)):
            if ncols * max(high[b], -low[b]) * top[k] < 2**63 \
                    and not nonzero[b]:
                out[i] = list(bases[k])
    return [nullspace_int(m, ncols) if got is None else got
            for m, got in zip(matrices, out)]


def _int64_rows(m, ncols):
    """m as an int64 array of shape (len(m), ncols), or None when an entry
    does not fit an int64."""
    try:
        return np.array(m, dtype=np.int64).reshape(len(m), ncols)
    except OverflowError:
        return None


def _null_of_rows(rows, ncols):
    """Primitive nullspace basis of linearly independent integer rows."""
    if len(rows) == ncols:
        return []
    pivots, red, _ = rref_dense(rows)
    return _null_basis(pivots, red, ncols)


def echelon_mod(A, p: int = P):
    """Reduced row echelon forms mod a prime p < 2^31 of a stack of matrices.

    A is an int64 array of shape (n, rows, cols), n matrices padded with
    zero rows.  Returns (ranks, order, ech): ranks[i] is the rank of
    matrix i over F_p, order[i, :ranks[i]] indexes rows of matrix i that
    are independent mod p, and ech[i] is its reduced echelon form with
    entries in [0, p), zero rows last.  Residues below 2^31 keep every
    product of two of them inside an int64.
    """
    if p >= 2**31:
        raise ValueError(f"modulus {p} is not below 2^31")
    A = np.asarray(A, dtype=np.int64) % p
    n, R, C = A.shape
    order = np.tile(np.arange(R), (n, 1))
    ranks = np.zeros(n, dtype=np.intp)
    for c in range(C):
        live = (A[:, :, c] != 0) & (np.arange(R) >= ranks[:, None])
        m = np.flatnonzero(live.any(axis=1))
        if not m.size:
            continue
        r, piv = ranks[m], live[m].argmax(axis=1)
        for arr in (A, order):
            arr[m, r], arr[m, piv] = arr[m, piv], arr[m, r]
        prow = A[m, r] * _inverse_mod(A[m, r, c], p)[:, None] % p
        A[m, r] = prow
        f = A[m, :, c]
        f[np.arange(m.size), r] = 0
        A[m] = (A[m] - f[:, :, None] * prow[:, None, :]) % p
        ranks[m] += 1
    return ranks, order, A


def _inverse_mod(x, p):
    """Elementwise inverses of nonzero residues x mod the prime p, as
    x^(p - 2) by repeated squaring."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


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

