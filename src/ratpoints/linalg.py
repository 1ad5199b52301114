"""Exact linear algebra over Q and Z shared across the package.

The exact routines take integer matrices and eliminate in integers only;
no rational number is ever built.  The dense echelon routine and the
sparse eliminator clear a column by cross-multiplying two rows and divide
the result by its content, so every row stays primitive, and the rational
RREF is the integer one with each row divided by its pivot entry.  The
sparse eliminator keeps dict-backed rows and is what makes large graded
pieces tractable: rows coming from monomial or binomial generators never
grow past two entries during elimination.  Integer determinants use
Bareiss fraction-free elimination, so every division is exact.

Arithmetic mod a prime is used in one place: ``echelon_mod`` row-reduces
a stack of matrices mod p in numpy, for ranks over F_p and, in
``nullspaces_int``, to pick each matrix's pivot rows and to group
matrices whose row spaces agree mod P = 2^31 - 1.  Its matrices are int64
arrays, or past int64 object arrays of exact ints, and both take the same
path.  That nullspace stays exact: rows independent mod P are independent
over Q, and every basis is checked against its matrix exactly before it
is returned, or else recomputed from the whole matrix by
``nullspace_int``.  That check, whether integer rows are orthogonal to
integer vectors, is ``annihilates``, which the determinant method's
vanishing certificate uses too: one int64 product where an a priori bound
keeps it from wrapping, Python ints past the bound.
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

    Returns (pivot_cols, red) where the integer rows red span the row space
    of the integer input over Q.  Each row of red is primitive, has a
    positive entry at its own pivot column and 0 at every other pivot
    column; dividing each row by its pivot entry gives the rational RREF.
    Rows are inserted one at a time, each cleared against the pivots so far.
    """
    pivots, red = [], []
    for row in rows:
        row = list(map(index, row))
        for pc, prow in zip(pivots, red):
            if row[pc]:
                row = _clear(row, prow, pc)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        row = divide_content(row)
        if row[c] < 0:
            row = [-x for x in row]
        red = [_clear(prow, row, c) if prow[c] else prow for prow in red]
        k = bisect(pivots, c)
        pivots.insert(k, c)
        red.insert(k, row)
        if len(pivots) == len(row):
            break
    return pivots, red


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


def nullspace_int(rows, ncols):
    """Primitive integer basis of the right nullspace of an integer matrix
    with ncols columns.

    Each basis vector is scaled to coprime integers with first nonzero
    entry positive; the basis order follows the free columns left to right.
    """
    return _null_basis(*rref_dense(rows), ncols)


def nullspaces_int(matrices, ncols):
    """[nullspace_int(m, ncols) for m in matrices], with one exact RREF per
    distinct row space instead of one per matrix.

    Each matrix is a list of integer rows or a 2-D integer array with ncols
    columns.  Each is row-reduced mod P by _row_spaces, which stacks at
    most ncols^2 + ncols of its rows at once, and matrices with the same
    reduced form mod P form a group.  One member's pivot rows mod P are
    independent over Q, so the exact nullspace N of those rows has
    ncols - r vectors for the member's rank r mod P, and a matrix M of the
    group with M N = 0 has nullspace exactly span N; the primitive basis
    depends on the nullspace only.  M N = 0 is checked over every row of
    every member by one annihilates call per group, exactly also for a
    matrix with entries past int64, which is an object array throughout.
    Only a matrix whose check fails goes to nullspace_int.
    """
    matrices = list(matrices)
    arrays = [_int_rows(m, ncols) for m in matrices]
    groups, bases, members = {}, [], []
    for i, (rows, key) in enumerate(_row_spaces(arrays, ncols)):
        if key not in groups:
            # the group's candidate basis, from this member's pivot rows;
            # rank ncols leaves none to find
            groups[key] = len(bases)
            bases.append([] if len(rows) == ncols else
                         nullspace_int(arrays[i][rows].tolist(), ncols))
            members.append([])
        members[groups[key]].append(i)
    out = [None] * len(matrices)
    for basis, idx in zip(bases, members):
        for i, ok in zip(idx, annihilates([arrays[i] for i in idx], basis)):
            if ok:
                out[i] = list(basis)
    return [nullspace_int(m, ncols) if got is None else got
            for m, got in zip(matrices, out)]


def annihilates(blocks, vectors):
    """For each block in the list blocks, a 2-D int64 or object array of
    integer rows, whether every row is orthogonal to every integer vector
    in the list vectors, exactly.

    The int64 blocks share one int64 product, read for each block under
    the a priori bound ncols * max|row| * max|vector| < 2^63 that keeps
    its dot products from wrapping; the other blocks are multiplied in
    Python ints.
    """
    out = [True] * len(blocks)
    if not vectors:
        return out
    ncols = len(vectors[0])
    top = max(abs(x) for v in vectors for x in v)
    small = top < 2**63
    # an empty block annihilates anything, and would upset reduceat
    fast = [i for i, b in enumerate(blocks)
            if small and b.dtype == np.int64 and len(b)]
    exact = [i for i, b in enumerate(blocks)
             if not (small and b.dtype == np.int64)]
    if fast:
        M = np.concatenate([blocks[i] for i in fast])
        starts = np.cumsum([0] + [len(blocks[i]) for i in fast[:-1]])
        high = np.maximum.reduceat(M.max(axis=1), starts).tolist()
        low = np.minimum.reduceat(M.min(axis=1), starts).tolist()
        # a product past the bound may wrap; that block is taken again
        # in Python ints
        nonzero = np.logical_or.reduceat(
            (M @ np.array(vectors, dtype=np.int64).T).any(axis=1),
            starts).tolist()
        for i, h, lo, nz in zip(fast, high, low, nonzero):
            if ncols * max(h, -lo) * top >= 2**63:
                exact.append(i)
            else:
                out[i] = not nz
    for i in exact:
        out[i] = not any(sum(map(mul, v, row)) for row in blocks[i].tolist()
                         for v in vectors)
    return out


def _int_rows(m, ncols):
    """m as an array of shape (len(m), ncols): int64, not copied when it is
    one already, or past int64 an object array of exact ints.  The dtype is
    always given, as numpy would read ints in [2^63, 2^64) as float64."""
    try:
        return np.asarray(m, dtype=np.int64).reshape(len(m), ncols)
    except OverflowError:
        return np.array(m, dtype=object).reshape(len(m), ncols)


def _row_spaces(arrays, ncols):
    """For each int64 or object array in arrays, the indices of its rows
    that are independent mod P and span its row space mod P, and the bytes
    of its reduced echelon form mod P without the zero rows.

    The rows are taken in rounds.  Each round reduces, for every matrix not
    yet done, its pivot rows so far (at most ncols) together with its next
    rows: 2 * ncols of them at first, then as many as it has taken, but at
    most ncols^2.  So the rounds are few, and a block holds at most
    ncols^2 + ncols rows however tall the matrix; its last round's block
    spans all of its rows.  Blocks whose row counts lie between the same
    powers of two share one zero-padded echelon_mod stack, so padding at
    most doubles a block.  A matrix is done after its last rows, or once
    its pivot rows have rank ncols.  Each block is reduced mod P as it is
    stacked, so the stacks are int64 whatever the dtype of the matrix.
    """
    # matrix -> its pivot rows so far, None before its first round
    todo = dict.fromkeys(range(len(arrays)))
    done = [None] * len(arrays)
    start, stop = 0, 2 * ncols
    while todo:
        blocks = {}
        for i, kept in todo.items():
            # the rows of the block, None for the first 2 * ncols rows
            rows = None if kept is None else np.concatenate(
                (kept, np.arange(start, min(stop, len(arrays[i])))))
            block = arrays[i][:stop] if rows is None else arrays[i][rows]
            blocks.setdefault(len(block).bit_length(), []).append(
                (i, rows, block))
        for stack in blocks.values():
            A = np.zeros((len(stack), max(len(bl) for _, _, bl in stack),
                          ncols), dtype=np.int64)
            for b, (_, _, block) in enumerate(stack):
                A[b, :len(block)] = block % P
            ranks, order, ech = echelon_mod(A)
            for b, ((i, rows, _), r) in enumerate(zip(stack, ranks.tolist())):
                kept = order[b, :r] if rows is None else rows[order[b, :r]]
                if r == ncols or stop >= len(arrays[i]):
                    done[i] = kept, ech[b, :r].tobytes()
                    del todo[i]
                else:
                    todo[i] = kept
        start, stop = stop, stop + min(stop, ncols * ncols)
    return done


def echelon_mod(A, p: int = P):
    """Reduced row echelon forms mod a prime p < 2^31 of a stack of matrices.

    A is an int64 array of shape (n, rows, cols), n matrices padded with
    zero rows.  Returns (ranks, order, ech): ranks[i] is the rank of
    matrix i over F_p, order[i, :ranks[i]] indexes rows of matrix i that
    are independent mod p, and ech[i] is its reduced echelon form with
    entries in [0, p), zero rows last.  Residues below 2^31 keep every
    product of two of them inside an int64.

    A column is cleared without division: every other row becomes the
    pivot entry times itself minus its entry times the pivot row, a
    nonzero multiple of what the division would give, so the pivots chosen
    are the same.  The pivot rows are divided by their pivot entries once,
    at the end; the reduced form is unique.
    """
    if p >= 2**31:
        raise ValueError(f"modulus {p} is not below 2^31")
    A = np.asarray(A, dtype=np.int64) % p
    n, R, C = A.shape
    order = np.tile(np.arange(R), (n, 1))
    ranks = np.zeros(n, dtype=np.intp)
    pivots = np.zeros((n, min(R, C)), dtype=np.intp)
    row = np.arange(R)
    for c in range(C):
        live = (A[:, :, c] != 0) & (row >= ranks[:, None])
        m = np.flatnonzero(live.any(axis=1))
        if not m.size:
            continue
        r, piv = ranks[m], live[m].argmax(axis=1)
        move = piv != r
        if move.any():
            mm, rm, pm = m[move], r[move], piv[move]
            for arr in (A, order):
                arr[mm, rm], arr[mm, pm] = arr[mm, pm], arr[mm, rm]
        # a view of A when every matrix takes part, else a copy
        sub = A if m.size == n else A[m]
        k = np.arange(m.size)
        prow = sub[k, r]
        f = sub[:, :, c].copy()
        f[k, r] = 0
        sub *= prow[:, c, None, None]
        sub -= f[:, :, None] * prow[:, None]
        sub[k, r] = prow
        sub %= p
        if sub is not A:
            A[m] = sub
        pivots[m, r] = c
        ranks[m] += 1
    # divide each pivot row by its pivot entry
    rows = np.arange(min(R, C)) < ranks[:, None]
    b, i = np.nonzero(rows)
    lead = A[b, i, pivots[b, i]]
    A[b, i] = A[b, i] * _inverse_mod(lead, p)[:, None] % p
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

