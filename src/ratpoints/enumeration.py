"""Exact enumeration of bounded integer points on hypersurfaces.

The driving strategy: iterate over all but the last variable and count the
integer roots of the residual univariate polynomial exactly, falling back
to a full range when the residual vanishes identically.  Two solvers do
this.  The numpy kernel evaluates the residual coefficients on int64
chunks of cells, tiles over two coordinates or slices of a list of cells,
solves linear, quadratic and pure-power residuals in closed form and
scans the rest over the whole box by Horner.  A pure power c t^k = rhs
takes the rounded float root of rhs / c as its one candidate and keeps
it where c t^k == rhs holds exactly, with no integer division, after
Heath-Brown, Lioen and te Riele (Math. Comp. 1993).  The kernel runs
whenever an a priori bound proves that no intermediate value can overflow
(for the scan, the value bound of the form itself).  Otherwise the
pure-Python big-int reference takes over.  Both are exact, and the tests
cross-check them against each other and against full lattice scans.

A variety of any codimension is enumerated on the same solvers: an
integer point is a zero of every generator g_i exactly when it is a zero
of the single polynomial sum g_i^2.  Generators free of the last variable
are solved first, and their zeros become a cell list, int64 coordinate
arrays, on which the numpy kernel solves the last variable under the
box's int64 guard (the big-int reference past it).  That keeps curves
such as the twisted cubic at O(B^2) cells.

The solvers count every zero, primitive or not.  Projective zeros are
primitive, and one rule selects them: the zeros of a form are a cone,
each one d times a primitive zero, so the zeros Z[h] and primitive zeros
P[h] of height h satisfy Z[h] = sum_{d | h} P[h / d], and Moebius
inversion of the height histogram gives P.  Collected points are kept by
their gcd in the same step.

Projective zeros are solved on half the box.  Every caller passes a form,
or a sum of squares of forms, so all term degrees share one parity and
x is a zero exactly when -x is: N(F; B) is twice the primitive zeros with
1 <= x0 <= B plus N(F(0, x1, ..., xn); B), the slice found by recursion.
The zeros with x0 >= 1 are a cone too, so each level inverts its own half
box before the mirror.  The first free coordinate (the outer loop's, the
tile's rows, the scalar prefixes') starts at 1.  Affine zeros keep the
full box.

A quaternary form that splits as G(x0, xi) - H(xj, xk), every term inside
one of the two pairs, takes a third path instead, after D. J. Bernstein,
"Enumerating solutions to p(a) + q(b) = r(c) + s(d)" (Math. Comp. 2001):
its zeros are the pairs of points of [-B, B]^2 with G = H, which one sort
of each side and a binary search of the other count in O(B^2 log B)
rather than the kernel's O(B^3) cells.  The join covers the whole box at
once, so it needs neither the mirror nor the slice, and the inversion
runs once on the whole box.  It runs when its int64 keys
value * (B + 1) + height provably fit, and every other form takes the
paths above.

Solved points are tallied as a histogram of heights max |x_i| over
0..B, so one enumeration at B gives the count at every b <= B as a prefix
sum; the harness samples a whole B-grid from one pass that way.  A
prefix completed by every value of the last variable is only noted by its
height, and all of them are spread over the histogram at the end in one
O(B) pass.  Collected coordinates stay in int64 arrays until the points
are listed.

Counts of projective zeros include x and -x separately; point lists are
returned in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from . import uniroots
from .exact import CertificateError, is_prime
from .poly import IntPoly, dehomogenize

INT64_LIMIT = 1 << 62
TILE_CELLS = 1 << 17  # cells of one numpy tile chunk
# entries of one residual scan chunk, 128 KiB of int64: on the generic
# cubic at B = 32 and 64, chunks of TILE_CELLS entries ran no faster and
# raised peak RSS by about 0.5 MB
SCAN_CELLS = 1 << 14


@dataclass
class CountSeries:
    """A counting function sampled on an increasing grid of bounds."""

    tag: str
    entries: list = field(default_factory=list)  # list of (B, count)

    def __post_init__(self):
        bs = [b for b, _ in self.entries]
        if bs != sorted(set(bs)):
            raise ValueError("bounds must be strictly increasing")
        counts = [c for _, c in self.entries]
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if any(b > a for a, b in zip(counts[1:], counts)):
            raise ValueError("counts must be nondecreasing in B")


@dataclass(frozen=True)
class ResidueFilter:
    """Congruence condition x_i = residues[i] mod p on affine coordinates."""

    p: int
    residues: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("filter modulus must be prime")
        if len(self.residues) != 3:
            raise ValueError("a residue filter needs exactly three residues, "
                             "for x1, x2 and x3")
        if any(not 0 <= r < self.p for r in self.residues):
            raise ValueError("residues must be reduced mod p")

    def accepts(self, point) -> bool:
        # point is (1, x1, x2, x3); residues constrain the affine part
        return all(x % self.p == r for x, r in zip(point[1:], self.residues))


# ---------------------------------------------------------------------
# core solver


def _last_var_coefficients(f: IntPoly):
    """Split f by the degree of its last variable.

    Returns a list c[0..K] of IntPoly in the remaining variables.
    """
    nv = f.num_vars
    K = max((e[-1] for e in f.terms), default=0)
    coeffs = [dict() for _ in range(K + 1)]
    for e, c in f.terms.items():
        coeffs[e[-1]][e[:-1]] = c
    return [IntPoly(nv - 1, d) for d in coeffs]


def _poly_value_bound(f: IntPoly, B: int) -> int:
    return sum(abs(c) * B ** sum(e) for e, c in f.terms.items())


def _np_kth_roots(rhs, k: int, B: int, c=1):
    """Vectorized exact roots t in [-B, B] of c * t^k = rhs, for k >= 2,
    int64 arrays or numpy scalars rhs and nonzero c that broadcast
    together: (count, root), each of their broadcast shape, with count 0,
    1 or 2 and root 0 where count is 0; for even k, count 2 means roots
    +-root.  c * B^k must fit in int64.

    The float root of rhs / c, rounded, is the only candidate.  A root r
    of |rhs / c| = r^k has r < 2^32 (r <= B, and B^k < 2^63).  Converting
    rhs and c to float64 and dividing rounds r^k by three relative 2^-53
    at most (c may exceed 2^53), sqrt and cbrt are within an ulp, and
    pow(x, 1/k) adds the rounding of 1/k, a relative ln(r) * 2^-53 with
    ln(r) < 23; so the float root is r * (1 + delta) with
    |delta| < 2^-48, |r * delta| < 2^-16 < 1/2, and it rounds to r.  The
    candidate, clipped to [-B, B], is a root exactly when c * t^k == rhs,
    a product bounded by |c| * B^k, so the check is exact in int64.  In
    the kernel that bound holds: for k >= 3, |c_k| B^k is at most the
    value bound of the form, which ``_fits_int64`` keeps below 2^62, and
    the quadratic branch's discriminant has c = 1 and B^2 = 2^62.
    """
    x = np.divide(rhs, c, out=np.empty(np.broadcast_shapes(np.shape(rhs),
                                                          np.shape(c))))
    # the signed root of x; for even k a negative x gives a negative t,
    # whose c * t^k has the wrong sign
    neg = np.signbit(x)
    np.abs(x, out=x)
    np.cbrt(x, out=x) if k == 3 else np.power(x, 1.0 / k, out=x)
    np.negative(x, out=x, where=neg)
    root = np.clip(np.rint(x, out=x), -B, B, out=x).astype(np.int64)
    value = np.power(root, k, out=x.view(np.int64))  # x is spent
    found = np.multiply(value, c, out=value) == rhs
    np.multiply(root, found, out=root)
    count = found.view(np.int8)
    if k % 2 == 0:
        count = count + (root > 0)
    return count, root


@lru_cache(maxsize=16)
def _primes_upto(B: int):
    """The primes p <= B, ascending, sieved once per B."""
    prime = np.ones(B + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(B) + 1):
        if prime[p]:
            prime[p * p::p] = False
    return tuple(np.flatnonzero(prime).tolist())


class _Hits:
    """Accumulates solved zeros as a histogram of heights (the largest
    |coordinate|, 0..B) and, with ``collect``, their coordinates, kept as
    int64 blocks of one column per zero until ``points`` lists them.
    Zeros are counted whether primitive or not, until keep_primitive."""

    def __init__(self, collect: bool, B: int):
        self.collect = collect
        self.B = B
        self._hist = np.zeros(B + 1, dtype=np.int64)
        self._full = []  # heights of the full-range prefixes
        self._blocks = []  # collected zeros, (num_vars, n) arrays
        self._scalar = []  # collected zeros found one at a time, as tuples

    def _settle(self):
        """Fold in what is pending: a full-range prefix of height h has
        2h + 1 completions of height h and 2 of each height k > h, and the
        collected zeros, those found one at a time included, merge into one
        block."""
        if self._full:
            n = np.bincount(np.concatenate(self._full), minlength=self.B + 1)
            self._hist += n * np.arange(1, 2 * self.B + 2, 2)
            self._hist += 2 * (np.cumsum(n) - n)
            self._full.clear()
        if self._scalar:
            self._blocks.append(np.array(self._scalar, dtype=np.int64).T)
            self._scalar.clear()
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks, axis=1)]

    @property
    def hist(self):
        self._settle()
        return self._hist

    @property
    def count(self) -> int:
        return int(self.hist.sum())

    @property
    def block(self):
        """The collected zeros as one int64 array of one column per zero, in
        no set order, or None when none were collected."""
        self._settle()
        return self._blocks[0] if self._blocks else None

    @property
    def points(self):
        """The collected zeros as tuples in lexicographic order; the point
        lists of ``_result`` rely on it and are not sorted again."""
        cols = self.block
        if cols is None:
            return []
        return list(zip(*cols[:, np.lexsort(cols[::-1])].tolist()))

    def keep_primitive(self):
        """Keep only the primitive zeros, those of gcd 1.  The zeros held
        must form a cone, each one d times a primitive zero of height h / d,
        so that Z[h] = sum_{d | h} P[h / d]; Moebius inversion, one prime at
        a time, recovers P from Z."""
        h = self.hist
        for p in _primes_upto(self.B):
            h[p::p] -= h[1:self.B // p + 1].copy()
        h[0] = 0  # the zero vector, when a zero, is not primitive
        self._blocks = [b[:, np.gcd.reduce(b, axis=0, initial=0) == 1]
                        for b in self._blocks]

    def keep_positive(self):
        """Of the collected zeros, keep those whose first nonzero coordinate
        is positive.  When x and -x are zeros together and 0 is not held,
        that keeps one zero of each pair; the histogram is left as it is."""
        cols = self.block
        if cols is not None:
            lead = np.take_along_axis(cols, (cols != 0).argmax(axis=0)[None],
                                      axis=0)[0]
            self._blocks = [cols[:, lead > 0]]

    def add_scalar(self, prefix, v):
        point = prefix + (v,)
        self._hist[max(map(abs, point))] += 1
        if self.collect:
            self._scalar.append(point)

    def _add_block(self, loop_prefix, cols):
        """Collect the zeros loop_prefix + row over the rows of cols."""
        n = len(cols[0])
        self._blocks.append(np.array(
            [np.full(n, x, dtype=np.int64) for x in loop_prefix] + list(cols)))

    def add_full_range(self, loop_prefix, *cols):
        """Every v in [-B, B] completes each prefix loop_prefix + row, for
        the rows of the equal-length int64 arrays cols (loop_prefix alone
        without them)."""
        n = len(cols[0]) if cols else 1
        height = np.full(n, max(map(abs, loop_prefix), default=0),
                         dtype=np.int64)
        for col in cols:
            np.maximum(height, np.abs(col), out=height)
        self._full.append(height)
        if self.collect:
            width = 2 * self.B + 1
            self._add_block(loop_prefix, [np.repeat(c, width) for c in cols]
                            + [np.tile(np.arange(-self.B, self.B + 1), n)])

    def add_free_last(self, sub):
        """A free last variable on every point of sub: with S(k) of them of
        height <= k, (2k + 1) * S(k) points of height <= k."""
        if sub.collect:
            block = sub.block
            if block is not None:
                self.add_full_range((), *block)
            return
        upto = np.cumsum(sub.hist) * np.arange(1, 2 * self.B + 2, 2)
        self._hist += np.diff(upto, prepend=0)

    def add_solved(self, loop_prefix, *cols):
        """cols: equal-length int64 arrays, one per solved trailing
        coordinate, each row one point."""
        if len(cols[0]) == 0:
            return
        height = np.full(len(cols[0]), max(map(abs, loop_prefix), default=0))
        for col in cols:
            np.maximum(height, np.abs(col), out=height)
        self._hist += np.bincount(height, minlength=self.B + 1)
        if self.collect:
            self._add_block(loop_prefix, cols)

    def add_slice(self, sub):
        """The points of sub, the zeros of the slice x0 = 0, with x0 put
        back in front."""
        self._hist += sub.hist
        if self.collect:
            self._blocks += [np.insert(b, 0, 0, axis=0) for b in sub._blocks]

    def mirror(self):
        """Add -x for every point x held: the points of the half box x0 >= 1
        become those of both halves."""
        self._settle()
        self._hist *= 2
        self._blocks += [-b for b in self._blocks]


def _solve_zeros(f: IntPoly, B: int, projective: bool, collect: bool):
    """Count (and optionally list) integer zeros of f in the box |x| <= B,
    the primitive ones only if projective.

    Projective zeros come from half the box.  All term degrees of f share
    one parity, so f(-x) = +-f(x) and the primitive zeros with x0 != 0 are
    twice those with 1 <= x0 <= B, which keep_primitive selects from all
    the zeros there; the rest are the primitive zeros of the slice
    f(0, x1, ..., xn), found by recursion.  In one variable only x0 = +-1
    is primitive, a zero exactly when f vanishes identically.  A separable
    quaternary form takes the sorted join on the whole box instead.
    """
    hits = _Hits(collect, B)
    if not projective:
        _solve_box(f, B, -B, hits)
        return hits
    if len({sum(e) % 2 for e in f.terms}) > 1:
        raise ValueError("projective zeros need term degrees of one parity, "
                         "so that x and -x are zeros together")
    split = _split_halves(f, B)
    if split is not None:
        _solve_split(*split, B, hits)
        hits.keep_primitive()
        return hits
    _solve_box(f, B, 1, hits)
    hits.keep_primitive()
    hits.mirror()
    if f.num_vars > 1:
        hits.add_slice(_solve_zeros(f.substitute_value(0, 0), B, True, collect))
    return hits


def _split_halves(f: IntPoly, B: int):
    """(order, G, H) with f(x) = G(x_a, x_b) - H(x_c, x_d) for the variable
    order (a, b, c, d) of a pairing {0, i} | rest that holds every term of
    a quaternary form in one half; None when there is none, or when a key
    value * (B + 1) + height of the join could leave int64."""
    if f.num_vars != 4 or not f.is_homogeneous():
        return None
    for i in (1, 2, 3):
        order = (0, i) + tuple(j for j in (1, 2, 3) if j != i)
        halves = ({}, {})
        for e, coeff in f.terms.items():
            a, b, c, d = (e[j] for j in order)
            if not (c or d):  # the constant term goes left
                halves[0][a, b] = coeff
            elif not (a or b):
                halves[1][c, d] = -coeff
            else:
                break
        else:
            G, H = (IntPoly(2, h) for h in halves)
            bound = max(_poly_value_bound(G, B), _poly_value_bound(H, B))
            if (bound + 1) * (B + 1) >= INT64_LIMIT:
                return None
            return order, G, H
    return None


def _solve_split(order, G, H, B: int, hits):
    """All zeros of G(x_a, x_b) = H(x_c, x_d) in [-B, B]^4, where
    (a, b, c, d) = order, by a sorted meet-in-the-middle join.

    Each side is a key value * (B + 1) + height over [-B, B]^2, sorted; a
    zero is a pair of equal values, of height the larger of the two.  Each
    left key counts the right keys of its value and height <= its own, and
    each right key the left keys of its value and height < its own, so
    every pair is binned once, at its height.  Keys are built and searched
    in chunks of at most TILE_CELLS cells, so that no temporary is as large
    as a side.
    """
    width = 2 * B + 1
    axis = np.arange(-B, B + 1, dtype=np.int64)
    step = max(1, TILE_CELLS // width)
    sides = []
    for p in (G, H):
        key = np.empty((width, width), dtype=np.int64)
        for lo in range(0, width, step):
            rows, part = axis[lo:lo + step], key[lo:lo + step]
            part[...] = _eval_on_tile(p, (), np.ix_(rows, axis))
            part *= B + 1
            part += np.maximum.outer(np.abs(rows), np.abs(axis))
        key = key.ravel()
        index = None
        if hits.collect:
            index = np.argsort(key)
            key = key[index]
        else:
            key.sort()
        sides.append((key, index))
    (left, left_index), (right, right_index) = sides
    for query, table, side in ((left, right, "right"), (right, left, "left")):
        for lo in range(0, len(query), TILE_CELLS):
            q = query[lo:lo + TILE_CELLS]
            h = q % (B + 1)
            group = np.searchsorted(table, q - h)  # first key of q's value
            # int64 counts stay exact, where bincount's float weights would
            # round past 2^53
            np.add.at(hits._hist, h, np.searchsorted(table, q, side) - group)
            if hits.collect and query is left:
                n = np.searchsorted(table, q - h + B, "right") - group
                li = np.repeat(left_index[lo:lo + TILE_CELLS], n)
                ri = right_index[np.arange(n.sum()) + np.repeat(
                    group - np.cumsum(n) + n, n)]
                pts = np.empty((4, len(li)), dtype=np.int64)
                pts[list(order)] = [li // width - B, li % width - B,
                                    ri // width - B, ri % width - B]
                hits._blocks.append(pts)


def _solve_box(f: IntPoly, B: int, first: int, hits):
    """Add the zeros of f with first <= x0 <= B and every other coordinate
    in [-B, B] to hits."""
    nv = f.num_vars
    if nv == 1:
        coeffs = [f.terms.get((j,), 0) for j in range(max(f.degree, 0) + 1)]
        deg = uniroots.degree(coeffs)
        roots = (range(first, B + 1) if deg == -1 else [] if deg == 0 else
                 [r for r in uniroots.integer_roots_in_box(coeffs, B)
                  if r >= first])
        hits.add_solved((), np.array(roots, dtype=np.int64))
        return

    coeffs = _last_var_coefficients(f)
    if len(coeffs) == 1:
        # f does not involve its last variable: solve the smaller problem
        # and let that variable range over the full box
        sub = _Hits(hits.collect, B)
        _solve_box(coeffs[0], B, first, sub)
        hits.add_free_last(sub)
        return
    if _fits_int64(f, coeffs, B):
        _solve_tiles(coeffs, B, _tiles(nv - 1, B, first), hits)
    else:
        _solve_scalar(coeffs, _iter_loop(nv - 1, B, first), B, hits)


def _fits_int64(f: IntPoly, coeffs, B: int) -> bool:
    """Whether the numpy kernel solves f, split by its last variable into
    coeffs, in int64 at every point of the box |x| <= B: no coefficient
    value, discriminant, power (B + 1)^K or, for the scan, Horner
    intermediate (bounded by the value bound of f) reaches INT64_LIMIT."""
    K = len(coeffs) - 1
    bounds = [_poly_value_bound(c, B) for c in coeffs]
    quad_bound = (
        bounds[1] ** 2 + 4 * bounds[2] * bounds[0] if K >= 2 else max(bounds)
    )
    # the kernel scans residuals of degree >= 3 by Horner, whose every
    # intermediate is bounded by sum_j bounds[j] * B^j, the value bound of f
    scan_bound = _poly_value_bound(f, B) if K >= 3 else 0
    return (max(max(bounds), quad_bound, (B + 1) ** max(K, 1), scan_bound)
            < INT64_LIMIT)


def _iter_loop(nloop: int, B: int, first: int | None = None):
    """Prefixes in [-B, B]^nloop whose first coordinate is >= first."""
    ranges = [range(-B, B + 1)] * nloop
    if nloop and first is not None:
        ranges[0] = range(first, B + 1)
    return itertools.product(*ranges)


def _solve_residual(residual, prefix, B, hits):
    """Solve the last variable once all the others are fixed to prefix."""
    if uniroots.degree(residual) < 1:
        if uniroots.degree(residual) == -1:
            hits.add_full_range(prefix)
        return
    for r in uniroots.integer_roots_in_box(residual, B):
        hits.add_scalar(prefix, r)


def _solve_scalar(coeffs, prefixes, B, hits):
    """Big-int loop over prefixes, tuples of values of the free variables:
    the exact reference, and the path past the kernel's int64 guard for the
    box and for a variety's prefix cells alike."""
    for prefix in prefixes:
        _solve_residual([c.evaluate(prefix) for c in coeffs], prefix, B, hits)


def _eval_on_tile(c: IntPoly, prefix, grids):
    """c at (prefix..., grids...): an int64 array broadcasting to the tile,
    or an int64 scalar when no term involves the tile variables."""
    acc = np.int64(0)
    for e, coeff in c.terms.items():
        v = coeff
        for x, p in zip(prefix, e):
            if p:
                v *= x**p
        if v == 0:
            continue
        for g, p in zip(grids, e[len(prefix):]):
            if p:
                v = v * g**p
        acc = acc + v
    return acc


def _and(x, y):
    """x & y for boolean masks that broadcast together, either of which may
    be a numpy scalar.  An all-false operand gives np.False_, and an
    all-true one gives the other operand when that already has the
    broadcast shape.  numpy combines masks of unequal shapes, or an array
    with a scalar, far slower than two arrays of one shape, and .any() and
    .all() cost a small part of that, so the pass is skipped wherever the
    result is known without it.  The result may be one of the operands, so
    it is never written to."""
    if not (x.any() and y.any()):
        return np.False_
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    if np.shape(y) == shape and x.all():
        return y
    if np.shape(x) == shape and y.all():
        return x
    return x & y


def _cells(shape, mask):
    """Flat row-major indices of the chunk's cells where mask holds, in the
    order of np.nonzero; mask may have any shape that broadcasts to the
    chunk's shape, a numpy scalar included.  numpy finds the flat indices
    of a mask far faster than the index arrays of a 2-D one."""
    return np.flatnonzero(np.broadcast_to(mask, shape))


def _coords(axes, shape, cells):
    """Coordinates of the chunk's cells at flat indices, one array per free
    variable: a tile's axes are read at each cell's row and column, and a
    one-dimensional chunk's at the cell itself."""
    index = (np.unravel_index(cells, shape) if len(shape) > 1
             else (cells,) * len(axes))
    return [ax[i] for ax, i in zip(axes, index)]


def _pick(a, cells, shape):
    """The entries of a, which broadcasts to the tile shape, at the cells of
    flat indices: read off a flat view when a has the tile's shape, else
    through the cells' index arrays, never from a tile-sized copy."""
    if np.shape(a) == shape:
        return a.reshape(-1)[cells]
    return np.broadcast_to(a, shape)[np.unravel_index(cells, shape)]


def _tiles(nfree, B, first):
    """The box as chunks (prefix, axes, grids, shape) for _solve_tiles.

    A loop runs over all but the last two free variables, the prefix, and
    each chunk is an np.ix_ tile over those two (over the only one when one
    is free): at most TILE_CELLS cells, a slice of whole rows.  The first
    free variable, the loop's outermost or else the tile's rows, runs from
    ``first`` to B.
    """
    ntile = min(nfree, 2)
    axis = np.arange(-B, B + 1, dtype=np.int64)
    rows = axis[first + B:] if nfree == ntile else axis
    step = max(1, TILE_CELLS // len(axis) ** (ntile - 1))
    for prefix in _iter_loop(nfree - ntile, B, first):
        for start in range(0, len(rows), step):
            axes = (rows[start:start + step],) + (axis,) * (ntile - 1)
            yield prefix, axes, np.ix_(*axes), tuple(map(len, axes))


def _cell_slices(cells):
    """A cell list as chunks (prefix, axes, grids, shape) for _solve_tiles.

    cells holds int64 coordinate arrays of equal length, one per free
    variable, a cell in each column.  Each chunk is a slice of at most
    TILE_CELLS of them, with an empty prefix; its axes, which are also its
    grids, give every cell all of its coordinates.
    """
    for lo in range(0, len(cells[0]), TILE_CELLS):
        axes = tuple(c[lo:lo + TILE_CELLS] for c in cells)
        yield (), axes, axes, (len(axes[0]),)


def _solve_tiles(coeffs, B, chunks, hits):
    """The numpy kernel: solve every residual sum_j c_j t^j in int64, one
    chunk of cells at a time.

    A chunk is a tuple (prefix, axes, grids, shape): the values of the free
    variables that the chunk shares, one coordinate array per other free
    variable, the arrays the coefficients are evaluated on and the chunk's
    shape.  ``_tiles`` cuts the box into np.ix_ tiles, and ``_cell_slices``
    cuts a list of cells given by their coordinates into slices.
    Cells are classed by the effective degree of their residual: linear,
    quadratic and pure-power residuals are solved in closed form on the
    whole chunk, the rest are evaluated at every t in [-B, B] on a
    cells x axis array of at most SCAN_CELLS entries, and a residual that
    vanishes identically leaves t free.

    Per cell, numpy's overhead outweighs the arithmetic, so masks are
    combined by ``_and``, which skips the broadcast pass when an operand is
    all false or all true, and a mask's cells are its flat indices
    (``_cells``; the scan's hits by one divmod), never a 2-D np.nonzero.
    Coordinates (``_coords``) and entries (``_pick``) are read at those
    indices, in np.nonzero's row-major order, and the scan and the pure
    powers take coordinates only of the cells that have a root.
    """
    axis = np.arange(-B, B + 1, dtype=np.int64)
    scan_rows = max(1, SCAN_CELLS // len(axis))  # cells per residual scan
    # chunks hold rhs = -c_0 and c_1, ..., c_K: sum_{j>0} c_j t^j = rhs
    polys = [-coeffs[0]] + coeffs[1:]
    # One loop body fed by a generator rather than a function per chunk: a
    # chunk's arrays stay alive until the next chunk's replace them, so the
    # allocator reuses their memory instead of trimming it after every
    # chunk and faulting it back in; with a function per tile, page faults
    # doubled the time of the Fermat cubic at B=128.
    for prefix, axes, grids, shape in chunks:
        arrays = [_eval_on_tile(c, prefix, grids) for c in polys]
        rhs = arrays[0]
        # masks stay numpy scalars while the coefficients that decide them
        # are constant on the chunk, or once they hold nowhere
        open_ = np.True_
        for k in range(len(arrays) - 1, 0, -1):
            at = _and(open_, arrays[k] != 0)  # cells of effective degree k
            if not at.any():
                continue
            open_ = _and(open_, ~at)
            ck = arrays[k]
            if np.ndim(ck):
                ck = np.where(at, ck, 1)  # a nonzero divisor everywhere
            if k == 1:
                q = rhs // ck
                good = _and(at, (q * ck == rhs) & (np.abs(q) <= B))
                cells = _cells(shape, good)
                hits.add_solved(prefix, *_coords(axes, shape, cells),
                                _pick(q, cells, shape))
            elif k == 2:
                # quadratic formula; the discriminant's exact square root
                # counts 1 at a double root and 2 at two roots
                b = arrays[1]
                cnt, root = _np_kth_roots(b * b + 4 * ck * rhs, 2,
                                          isqrt(INT64_LIMIT))
                for sign, square in ((1, cnt >= 1), (-1, cnt == 2)):
                    num = -b + sign * root
                    q = num // (2 * ck)
                    good = _and(at, square & (q * 2 * ck == num)
                                & (np.abs(q) <= B))
                    cells = _cells(shape, good)
                    hits.add_solved(prefix, *_coords(axes, shape, cells),
                                    _pick(q, cells, shape))
            else:
                # pure powers c_k t^k = rhs in closed form
                pure = at
                for j in range(1, k):
                    pure = _and(pure, arrays[j] == 0)
                if pure.any():
                    cnt, root = _np_kth_roots(rhs, k, B, ck)
                    for sign, got in ((1, cnt >= 1), (-1, cnt == 2)):
                        cells = _cells(shape, _and(pure, got))
                        hits.add_solved(prefix, *_coords(axes, shape, cells),
                                        sign * _pick(root, cells, shape))
                rest = _and(at, ~pure)
                if rest.any():
                    # scan t over the axis: sum_j c_j t^j - rhs by Horner
                    # on a cells x axis array, a part at a time
                    cells = _cells(shape, rest)
                    cs = [_pick(a, cells, shape) for a in arrays[:k + 1]]
                    for lo in range(0, len(cells), scan_rows):
                        part = slice(lo, lo + scan_rows)
                        val = cs[k][part, None] * axis
                        for j in range(k - 1, 0, -1):
                            val += cs[j][part, None]
                            val *= axis
                        val -= cs[0][part, None]
                        i, t = np.divmod(np.flatnonzero(val == 0), len(axis))
                        hits.add_solved(prefix,
                                        *_coords(axes, shape, cells[part][i]),
                                        axis[t])
        zero = _and(open_, rhs == 0)  # a zero residual leaves t free
        if zero.any():
            hits.add_full_range(prefix,
                                *_coords(axes, shape, _cells(shape, zero)))


# ---------------------------------------------------------------------
# public operations


def _result(count, points, hist, collect, by_height):
    """The count; with ``collect`` and ``by_height``, a tuple that follows
    it with the points, which every caller passes in lexicographic order,
    and the height histogram (a list whose entry h counts the points of
    height h), in that order."""
    extra = (((points,) if collect else ())
             + ((hist,) if by_height else ()))
    return (count,) + extra if extra else count


def count_affine(f: IntPoly, B: int, collect: bool = False,
                 by_height: bool = False):
    """M(f; B): integer zeros of f in the box |t| <= B.

    All but the last coordinate are iterated and the residual in the last
    one is solved exactly.  ``by_height`` appends the histogram of heights
    max |t_i|, from which M(f; b) for every b <= B is a prefix sum.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.num_vars == 0:
        raise ValueError("a polynomial in no variables has no zeros to count")
    if B < 0:
        raise ValueError("B must be >= 0")
    hits = _solve_zeros(f, B, projective=False, collect=collect)
    return _result(hits.count, hits.points, hits.hist.tolist(), collect,
                   by_height)


def count_projective(F: IntPoly, B: int, collect: bool = False,
                     by_height: bool = False):
    """N(F; B): primitive integer zeros of a form with sup-norm at most B.

    x and -x are counted separately, so the projective point count is half
    of this value.  ``by_height`` appends the histogram of sup-norms, as
    in count_affine.
    """
    if F.is_zero():
        raise ValueError("zero form")
    if F.num_vars == 0:
        raise ValueError("a form in no variables has no zeros to count")
    if not F.is_homogeneous():
        raise ValueError("form must be homogeneous")
    if B < 1:
        raise ValueError("B must be >= 1")
    hits = _solve_zeros(F, B, projective=True, collect=collect)
    return _result(hits.count, hits.points, hits.hist.tolist(), collect,
                   by_height)


def slice_form(F: IntPoly, b: int) -> IntPoly:
    """Substitute b for the first variable: the slice F(b, T1, ..., Tn)."""
    if F.num_vars == 0:
        raise ValueError("a form in no variables has no first variable "
                         "to slice")
    return F.substitute_value(0, b)


def verify_slicing(F: IntPoly, B: int):
    """Both sides of the slicing inequality N(F;B) <= sum_b M(f_b;B)."""
    lhs = count_projective(F, B)
    rhs = 0
    for b in range(-B, B + 1):
        fb = slice_form(F, b)
        if fb.is_zero():
            rhs += (2 * B + 1) ** (F.num_vars - 1)
        else:
            rhs += count_affine(fb, B)
    if not lhs <= rhs:
        raise CertificateError(f"slicing inequality violated: {lhs} > {rhs}")
    return lhs, rhs


def count_affine_surface(F: IntPoly, B: int, filters=(), collect: bool = True,
                         by_height: bool = False):
    """Points [1, x1, x2, x3] of height <= B on the surface F = 0.

    ``filters`` is a list of ResidueFilter congruence conditions; with an
    empty list this counts every affine integral point of bounded height.
    ``by_height`` appends the histogram of heights max |x_i|, as in
    count_affine.
    """
    if F.is_zero() or not F.is_homogeneous() or F.degree < 1:
        raise ValueError("need a nonzero homogeneous form of degree >= 1")
    if F.num_vars != 4:
        raise ValueError("affine surface counting expects 4 variables")
    if B < 0:
        raise ValueError("B must be >= 0")
    # nonzero: no two terms of a form merge when x0 = 1
    hits = _solve_zeros(dehomogenize(F), B, projective=False,
                        collect=collect or bool(filters))
    pts = [(1,) + t for t in hits.points]
    if not filters:
        return _result(hits.count, pts, hits.hist.tolist(), collect,
                       by_height)
    pts = [p for p in pts if all(flt.accepts(p) for flt in filters)]
    hist = [0] * (B + 1)
    if by_height:
        for p in pts:
            hist[max(map(abs, p[1:]))] += 1
    return _result(len(pts), pts, hist, collect, by_height)


def count_roots_bounded(p, T: int):
    """Exact #{t in Z : |p(t)| <= T} plus the certified cluster bound, for
    p an integer coefficient sequence, low degree first.

    The bound is delta*(3 + 2*(T/|lead|)^(1/delta)): each of the delta root
    clusters contributes at most 2L+1 integers within distance
    L = (T/|lead|)^(1/delta) of a root, with slack absorbing rounding.
    """
    coeffs = uniroots.trim(p)
    delta = len(coeffs) - 1
    if delta < 1:
        raise ValueError("polynomial must be nonconstant")
    if T < 1:
        raise ValueError("T must be >= 1")
    exact = uniroots.count_abs_le(coeffs, T)
    lead = abs(coeffs[-1])
    # exact <= delta*(3 + 2L), in integers: with r = exact - 3*delta > 0
    # it reads lead * r^delta <= (2*delta)^delta * T
    r = exact - 3 * delta
    if not (r <= 0 or lead * r**delta <= (2 * delta) ** delta * T):
        raise CertificateError(f"cluster bound violated: {exact} points, T={T}")
    try:
        radius = (T / lead) ** (1.0 / delta)
    except OverflowError:  # T/lead is past the float range; ln(float max) > 709
        log_radius = (math.log(T) - math.log(lead)) / delta
        radius = math.exp(log_radius) if log_radius < 709 else math.inf
    return exact, delta * (3.0 + 2.0 * radius)


def _sum_of_squares(polys):
    """A polynomial whose integer zeros are the common zeros of polys."""
    if len(polys) == 1:
        return polys[0]
    return sum((g * g for g in polys[1:]), polys[0] * polys[0])


def enumerate_projective_variety(gens, B: int):
    """All projective points of height <= B on the common zero locus.

    An integer point is a zero of every generator exactly when it is a zero
    of S = sum g_i^2 (of g itself when there is one), so the points are the
    primitive zeros of S, found exactly by the enumeration solvers; S need
    not be homogeneous.  Generators free of the last variable are solved
    first and S only at their zeros, a cell list for the numpy kernel: the
    twisted cubic then takes O(B^2) cells rather than the whole box's
    O(B^3).  Points come back as primitive tuples, first nonzero coordinate
    positive, in lexicographic order; S(-x) = S(x), so of each pair x, -x
    of primitive zeros a mask keeps the one of positive sign.
    """
    gens = list(gens)
    if not gens or any(g.is_zero() for g in gens):
        raise ValueError("generators must be nonzero")
    nv = gens[0].num_vars
    if any(g.num_vars != nv for g in gens):
        raise ValueError("generators must share one variable count")
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("generators must be homogeneous")
    if B < 1:
        raise ValueError("B must be >= 1")
    S = _sum_of_squares(gens)
    # generators free of the last variable, in the other variables
    inner = [c[0] for c in map(_last_var_coefficients, gens) if len(c) == 1]
    if inner and nv > 1:
        # the origin is a zero of every form, so the block is not None
        cells = _solve_zeros(_sum_of_squares(inner), B, projective=False,
                             collect=True).block
        coeffs = _last_var_coefficients(S)
        hits = _Hits(True, B)
        if _fits_int64(S, coeffs, B):
            _solve_tiles(coeffs, B, _cell_slices(cells), hits)
        else:
            _solve_scalar(coeffs, zip(*cells.tolist()), B, hits)
        hits.keep_primitive()
    else:
        hits = _solve_zeros(S, B, projective=True, collect=True)
    # S(-x) = S(x), and every zero held is primitive, so not 0
    hits.keep_positive()
    return hits.points
