"""Exact enumeration of bounded integer points on hypersurfaces.

The driving strategy: iterate over all but the last variable and count the
integer roots of the residual univariate polynomial exactly, falling back
to a full range when the residual vanishes identically.  Two solvers do
this.  The numpy kernel evaluates the residual coefficients on chunks of
cells, tiles over two coordinates or slices of a list of cells, solves
linear, quadratic and pure-power residuals in closed form (divisibility
before the bound; a pure power's rounded float root kept where
c t^k == rhs holds exactly) and scans the rest over the whole box by
Horner.  As in Heath-Brown, Lioen and te Riele (Math. Comp. 1993) it
runs in the narrowest machine word, one code for int32 and int64: int32
when a priori bounds (for the scan, the value bound of the form) keep
every value below 2^31, int64 below 2^63, and past that the pure-Python
big-int reference takes over.  Both are exact, and the tests cross-check
them against each other and against full lattice scans.

A variety of any codimension is enumerated on the same solvers: an
integer point is a zero of every generator g_i exactly when it is a zero
of the single polynomial sum g_i^2.  Generators free of the last variable
are solved first, by the same rule, and the numpy kernel solves the last
variable on their zeros, a cell list, under the box's guard (the big-int
reference past it).  That keeps the twisted cubic at O(B^2) cells.

The solvers count every zero, primitive or not.  The zeros of a form are
a cone, each one d times a primitive zero, so Moebius inversion of the
height histogram gives the primitive ones, and collected points are kept
by their gcd in the same step.

Signs are folded, as by Heath-Brown, Lioen and te Riele: the height does
not change with the sign of a coordinate.  One rule folds a variable x_j
of range [-B, B]: the zeros with 1 <= x_j <= B are solved and mirrored,
and the slice x_j = 0 is solved by recursion.  On the whole box, a form
of one degree parity (every projective caller passes a form, or a sum of
squares of forms) has -x as a zero with x, so x0 folds under x -> -x, in
affine counts too; otherwise x_j folds alone under x_j -> -x_j when its
exponent is even in every term.  The conic x0 x2 = x1^2 is thus tiled on
x0, x1 >= 1.  Free coordinates (the outer loop's, the tile's rows and
columns, the scalar prefixes') start at -B or at 1, and the solved one
spans [-B, B].  The pieces partition the box, so projective zeros are
inverted once, on the whole box's histogram.

A quaternary polynomial that splits as G(x0, xi) - H(xj, xk), every term
inside one of the two pairs, takes a third path instead, after D. J.
Bernstein, "Enumerating solutions to p(a) + q(b) = r(c) + s(d)" (Math.
Comp. 2001): its zeros are the pairs of points of [-B, B]^2 with G = H,
counted off one sorted array of both sides' keys in O(B^2 log B) rather
than the kernel's O(B^3) cells.  The join covers the whole box at once,
so it needs no mirror, fold or slice, and it serves affine and projective
counts alike.  It runs when its int64 keys provably fit, and every other
polynomial takes the paths above.

The numpy kernel runs with a ufunc buffer of 1024 elements rather than
numpy's 8192: a buffer that holds three tile rows joins them in one inner
loop, and a row's division by its scalar coefficient then leaves numpy's
fast path and runs about 9 times slower per cell.

Solved points are tallied as a histogram of heights max |x_i| over
0..B, so one enumeration at B gives the count at every b <= B as a prefix
sum, and the harness samples a whole B-grid from one pass.  Prefixes
completed by every value of the last variable have a histogram of their
own, spread over the first in one O(B) pass at the end.  Collected
coordinates stay in int64 arrays until the points are listed.

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
# keys of one separable-join read chunk, 128 KiB of int64, moved to start
# at the first key of a value: the chunk's temporaries stay in cache, where
# TILE_CELLS keys made the Fermat cubic's join at B = 128 about 1.6 times
# slower; 2^15 keys ran no faster on it and the diagonal cubics and raised
# its traced peak from 2.4 to 3.7 MB
JOIN_KEYS = 1 << 14
KERNEL_BUFFER = 1 << 10  # numpy ufunc buffer elements in _solve_tiles


@dataclass
class CountSeries:
    """A counting function sampled on an increasing grid of bounds."""

    entries: list = field(default_factory=list)  # list of (B, count)

    def __post_init__(self):
        bs = [b for b, _ in self.entries]
        if bs != sorted(set(bs)):
            raise ValueError("bounds must be strictly increasing")
        low = [b for b in bs if b < 1]
        if low:  # the fit takes log B
            raise ValueError(f"bounds must be >= 1, got {low}")
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
    integer arrays or numpy scalars rhs and nonzero c that broadcast
    together: (count, root), each of their broadcast shape, with count 0,
    1 or 2 and root 0 where count is 0; for even k, count 2 means roots
    +-root.  c * B^k must fit in int64, where c t^k is compared.

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
    value bound of the form, which ``_kernel_dtype`` keeps below 2^62, and
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
def _moebius_steps(B: int):
    """The steps of ``_Hits.keep_primitive`` at B, sieved once per B: the
    primes p <= sqrt(B), ascending, and read-only index arrays (p * j, j)
    over the primes p > sqrt(B) and 1 <= j <= B // p."""
    root = isqrt(B)
    prime = np.ones(B + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p::p] = False
    large = np.flatnonzero(prime[root + 1:]) + root + 1
    count = B // large
    # j = 1, ..., B // p for each large prime p in turn
    j = np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count,
                                                  count)
    steps = np.repeat(large, count) * j, j
    for a in steps:
        a.flags.writeable = False
    return tuple(np.flatnonzero(prime[:root + 1]).tolist()), *steps


class _Hits:
    """Accumulates solved zeros as a histogram of heights (the largest
    |coordinate|, 0..B) and, with ``collect``, their coordinates, kept as
    int64 blocks of one column per zero until ``points`` lists them.
    Zeros are counted whether primitive or not, until keep_primitive."""

    def __init__(self, collect: bool, B: int):
        self.collect = collect
        self.B = B
        self._hist = np.zeros(B + 1, dtype=np.int64)
        self._full = np.zeros(B + 1, dtype=np.int64)  # of full-range prefixes
        self._blocks = []  # collected zeros, (num_vars, n) arrays

    def _settle(self):
        """Fold in what is pending: a full-range prefix of height h has
        2h + 1 completions of height h and 2 of each height k > h, and the
        collected zeros merge into one block."""
        n = self._full
        if n.any():
            self._hist += n * np.arange(1, 2 * self.B + 2, 2)
            self._hist += 2 * (np.cumsum(n) - n)
            n[:] = 0
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
        must form a cone, as the zeros of forms do (the entry points check
        that their input is homogeneous): each is d times a primitive zero
        of height h / d, so that Z[h] = sum_{d | h} P[h / d]; Moebius
        inversion recovers P from Z by the steps h[p j] -= h[j] for each
        prime p, which commute.
        The primes p <= sqrt(B) take one slice each.  The primes above take
        one indexed step together, which is exact: two of them multiply
        past B, so no source j <= B // p < p is the target of another, and
        their targets p j are distinct."""
        h = self.hist
        small, targets, sources = _moebius_steps(self.B)
        for p in small:
            h[p::p] -= h[1:self.B // p + 1].copy()
        h[targets] -= h[sources]
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

    def keep_residues(self, filters):
        """Keep and tally only the collected zeros x with x_i = r_i mod p
        for every filter (p, r); [-B, B] meets r's class mod p > 2B at r or
        r - p alone, compared exactly past int64."""
        cols = self.block
        if cols is not None:  # else there is no zero to keep
            cols = cols[:, np.logical_and.reduce([
                (x == r) | (x == r - flt.p) if flt.p > 2 * self.B
                else x % flt.p == r
                for flt in filters for x, r in zip(cols, flt.residues)])]
            self._blocks = [cols]
            self._hist = np.bincount(np.abs(cols).max(axis=0, initial=0),
                                     minlength=self.B + 1)

    def _add_block(self, loop_prefix, cols):
        """Collect loop_prefix + row over the rows of cols, as int64."""
        n = len(cols[0])
        self._blocks.append(np.array([np.full(n, x) for x in loop_prefix]
                                     + list(cols), dtype=np.int64))

    def _tally(self, hist, n, loop_prefix, cols):
        """Add to hist the heights of the n rows loop_prefix + row of
        cols."""
        height = np.full(n, max(map(abs, loop_prefix), default=0),
                         dtype=np.int64)
        for col in cols:
            np.maximum(height, np.abs(col), out=height)
        hist += np.bincount(height, minlength=self.B + 1)

    def add_full_range(self, loop_prefix, *cols):
        """Every v in [-B, B] completes each prefix loop_prefix + row, for
        the rows of the equal-length integer arrays cols (loop_prefix alone
        without them)."""
        n = len(cols[0]) if cols else 1
        self._tally(self._full, n, loop_prefix, cols)
        if self.collect:
            width = 2 * self.B + 1
            self._add_block(loop_prefix, [np.repeat(c, width) for c in cols]
                            + [np.tile(np.arange(-self.B, self.B + 1), n)])

    def add_free_last(self, sub):
        """A free last variable on every point of sub: each is a prefix
        that every v in [-B, B] completes."""
        if not sub.collect:
            self._full += sub.hist
        elif (block := sub.block) is not None:
            self.add_full_range((), *block)

    def add_solved(self, loop_prefix, *cols):
        """cols: equal-length integer arrays, one per solved trailing
        coordinate, each row one point."""
        if len(cols[0]) == 0:
            return
        self._tally(self._hist, len(cols[0]), loop_prefix, cols)
        if self.collect:
            self._add_block(loop_prefix, cols)

    def add_slice(self, sub, j):
        """The points of sub, the zeros of the slice x_j = 0, with x_j = 0
        put back at row j."""
        self._hist += sub.hist
        if self.collect:
            self._blocks += [np.insert(b, j, 0, axis=0) for b in sub._blocks]

    def mirror(self, j=None):
        """Add the image of every point x held under x -> -x, or with j
        under the negation of x_j alone: the points of the half box x0 >= 1
        or x_j >= 1 become those of both halves, at the same heights."""
        self._settle()
        self._hist *= 2
        if self._blocks:  # one block, once settled
            image = self._blocks[0].copy()
            image[slice(None) if j is None else j] *= -1
            self._blocks.append(image)


def _solve_zeros(gens, B: int, collect: bool):
    """The common integer zeros of the polynomials gens, primitive or not,
    in the box |x| <= B, as a _Hits that lists them with ``collect``: the
    zeros of S = sum g_i^2 (of g itself when there is one).

    When some generators, but not all, are free of the last variable, this
    solver finds their common zeros first, and S is solved for the last
    variable on those cells alone.  Otherwise S takes the separable join
    when it splits, and ``_solve_box`` on the whole box when it does not.
    """
    hits = _Hits(collect, B)
    S = _sum_of_squares(gens)
    inner = [c[0] for c in map(_last_var_coefficients, gens) if len(c) == 1]
    if S.num_vars > 1 and 0 < len(inner) < len(gens):
        cells = _solve_zeros(inner, B, True).block
        if cells is None:  # the inner generators have no common zero
            return hits
        coeffs = _last_var_coefficients(S)
        if dtype := _kernel_dtype(S, coeffs, B):
            _solve_tiles(coeffs, B, _cell_slices(cells, dtype), hits)
        else:
            _solve_scalar(coeffs, zip(*cells.tolist()), B, hits)
    elif split := _split_halves(S, B):
        _solve_split(*split, B, hits)
    else:
        _solve_box(S, B, (-B,) * S.num_vars, hits)
    return hits


def _sum_of_squares(polys):
    """A polynomial whose integer zeros are the common zeros of polys."""
    if len(polys) == 1:
        return polys[0]
    return sum((g * g for g in polys[1:]), polys[0] * polys[0])


def _split_halves(f: IntPoly, B: int):
    """(order, G, H) with f(x) = G(x_a, x_b) - H(x_c, x_d) for the variable
    order (a, b, c, d) of a pairing {0, i} | rest that holds every term of
    a quaternary polynomial in one half; None when there is none, or when
    a key value * (B + 1) + height of the join could leave int64.  The
    values are bounded as at B = 1 when B = 0, since every coefficient is
    multiplied into the keys."""
    if f.num_vars != 4:
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
            bound = max(_poly_value_bound(p, max(B, 1)) for p in (G, H))
            if (bound + 1) * (B + 1) >= INT64_LIMIT:
                return None
            return order, G, H
    return None


def _solve_split(order, G, H, B: int, hits):
    """All zeros of G(x_a, x_b) = H(x_c, x_d) in [-B, B]^4, where
    (a, b, c, d) = order, by a sorted meet-in-the-middle join.

    Each cell of [-B, B]^2 of each side has a key value * (B + 1) + height,
    kept as 2 * key + side (left 1, right 0; the guard (bound + 1) * (B + 1)
    < 2^62 keeps it below 2^63) in one array sorted once.  Right keys sort
    first at equal keys, so a left key pairs with the right keys before it
    in its value group (height <= its own), a right key with the left ones
    (height < its own), and every zero is binned once, at its height.
    """
    width = 2 * B + 1
    axis = np.arange(-B, B + 1, dtype=np.int64)
    step = max(1, TILE_CELLS // width)
    keys = np.empty((2, width, width), dtype=np.int64)
    for side, p in enumerate((H, G)):
        for lo in range(0, width, step):
            rows, part = axis[lo:lo + step], keys[side, lo:lo + step]
            part[...] = _eval_on_tile(p, (), np.ix_(rows, axis))
            part *= B + 1
            part += np.maximum.outer(np.abs(rows), np.abs(axis))
            part += part + side  # 2 * key + side
    keys = keys.ravel()
    index = np.argsort(keys) if hits.collect else None
    keys.sort()
    firsts = keys[::JOIN_KEYS] // (2 * B + 2) * (2 * B + 2)  # of values
    cuts = np.unique(np.r_[np.searchsorted(keys, firsts), len(keys)])
    for at in map(slice, cuts[:-1], cuts[1:]):
        near = np.diff(keys[at]) <= 2 * B + 1  # may share a value
        keep = np.r_[near, False] | np.r_[False, near]
        m = keys[at][keep]
        value = m // (2 * B + 2)
        h, sides = (m - value * (2 * B + 2)) >> 1, m & 1
        starts = np.flatnonzero(np.diff(value, prepend=value[:1] - 1))
        size = np.diff(starts, append=len(m))
        g = np.repeat(starts, size)  # the first key of each key's value
        before = np.cumsum(sides) - sides  # left keys before each key
        left = before - before[g]  # ... in its value group
        # int64 counts stay exact, where bincount's float weights would not
        np.add.at(hits._hist, h, left + sides * (
            np.arange(len(m)) - g - 2 * left))
        if hits.collect:  # every left key pairs with its group's right keys
            is_left, ids = sides == 1, index[at][keep]
            n = np.repeat(size - np.add.reduceat(sides, starts), size)[is_left]
            first = (g - before[g])[is_left] - np.cumsum(n) + n
            ri = ids[~is_left][np.arange(n.sum()) + np.repeat(first, n)]
            li = np.repeat(ids[is_left], n) - width * width
            pts = np.array([li // width, li % width, ri // width, ri % width])
            hits._blocks.append(pts[np.argsort(order)] - B)


def _solve_box(f: IntPoly, B: int, lows, hits):
    """Add the zeros of f with lows[i] <= x_i <= B for every i to hits,
    which holds none yet.  Each low is -B, or 1 for a half box; the last
    variable, the one solved for, always starts at -B.

    One variable of range [-B, B] is folded first, by the module's rule: on
    the whole box, x0 under x -> -x when the term degrees of f share one
    parity, else x_j alone when its exponent is even in every term and its
    slice keeps the last variable (the slice's solver would else take an
    earlier variable, which may start at 1).
    """
    nv = f.num_vars
    coeffs = _last_var_coefficients(f)
    if nv == 1:
        _solve_scalar(coeffs, [()], B, hits)
        return
    if len(coeffs) == 1:
        # f does not involve its last variable: solve the smaller problem
        # and let that variable range over the full box
        sub = _Hits(hits.collect, B)
        _solve_box(coeffs[0], B, lows[:-1], sub)
        hits.add_free_last(sub)
        return
    whole = set(lows) == {-B} and len({sum(e) % 2 for e in f.terms}) == 1
    for j in range(nv - 1):
        if lows[j] == -B < 0 and (whole or (
                all(e[j] % 2 == 0 for e in f.terms)
                and any(e[-1] and not e[j] for e in f.terms))):
            _solve_box(f, B, lows[:j] + (1,) + lows[j + 1:], hits)
            hits.mirror(None if whole else j)
            sub = _Hits(hits.collect, B)
            _solve_box(f.substitute_value(j, 0), B, lows[:j] + lows[j + 1:],
                       sub)
            hits.add_slice(sub, j)
            return
    if dtype := _kernel_dtype(f, coeffs, B):
        _solve_tiles(coeffs, B, _tiles(lows[:-1], B, dtype), hits)
    else:
        _solve_scalar(coeffs, _iter_loop(lows[:-1], B), B, hits)


def _kernel_dtype(f: IntPoly, coeffs, B: int):
    """The dtype of the numpy kernel for f, split by its last variable into
    coeffs, on the box |x| <= B (bounded as B = 1 at B = 0, so that every
    coefficient counts): np.int32 when the bound below is under L =
    INT64_LIMIT >> 32 = 2^30, np.int64 under L = INT64_LIMIT = 2^62, and
    None, the big-int path, past that.

    Every value the kernel forms then lies below 2L, in the dtype: the
    coefficients with their partial sums and products, the Horner
    intermediates and the discriminant b^2 + 4 rhs c_2 with its terms are
    below L, 2 c_2 below 2L, the root and -b +- root below sqrt(L), and
    floor(n / d) * d, between n and n - d, at most max(|d|, 2|n|) in
    size.  The pure powers compare c t^k in int64."""
    K = len(coeffs) - 1
    B = max(B, 1)
    bounds = [_poly_value_bound(c, B) for c in coeffs]
    quad_bound = (
        bounds[1] ** 2 + 4 * bounds[2] * bounds[0] if K >= 2 else max(bounds)
    )
    # the kernel scans residuals of degree >= 3 by Horner, whose every
    # intermediate is bounded by sum_j bounds[j] * B^j, the value bound of f
    scan_bound = _poly_value_bound(f, B) if K >= 3 else 0
    bound = max(max(bounds), quad_bound, (B + 1) ** max(K, 1), scan_bound)
    return (np.int32 if bound < INT64_LIMIT >> 32 else
            np.int64 if bound < INT64_LIMIT else None)


def _iter_loop(lows, B: int):
    """Prefixes x with lows[i] <= x_i <= B for every i."""
    return itertools.product(*(range(low, B + 1) for low in lows))


def _solve_scalar(coeffs, prefixes, B, hits):
    """Big-int loop over prefixes, tuples of values of the free variables:
    the exact reference, and the path past the kernel's guard for the
    box and for a variety's prefix cells alike.  The roots of each residual
    and the prefixes whose residual vanishes are gathered and added once."""
    roots, free = [], []
    for prefix in prefixes:
        residual = [c.evaluate(prefix) for c in coeffs]
        if uniroots.degree(residual) == -1:
            free.append(prefix)
        elif uniroots.degree(residual) > 0:
            roots += [prefix + (r,)
                      for r in uniroots.integer_roots_in_box(residual, B)]
    n = coeffs[0].num_vars
    hits.add_solved((), *np.array(roots, dtype=np.int64).reshape(-1, n + 1).T)
    if free:
        hits.add_full_range((), *np.array(free, dtype=np.int64).reshape(
            len(free), n).T)


def _eval_on_tile(c: IntPoly, prefix, grids):
    """c at (prefix..., grids...) in the grids' dtype: an array broadcasting
    to the tile, or a scalar when no term involves the tile variables."""
    acc = grids[0].dtype.type(0)
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


def _tiles(lows, B, dtype):
    """The box lows[i] <= x_i <= B of the free variables as chunks
    (prefix, axes, grids, shape) for _solve_tiles.

    A loop runs over all but the last two free variables, the prefix, and
    each chunk is an np.ix_ tile over those two (over the only one when one
    is free): at most TILE_CELLS cells of dtype, whole rows.
    """
    ntile = min(len(lows), 2)
    axis = np.arange(-B, B + 1, dtype=dtype)
    rows, *cols = (axis[low + B:] for low in lows[-ntile:])
    step = max(1, TILE_CELLS // max(map(len, cols), default=1))
    for prefix in _iter_loop(lows[:-ntile], B):
        for start in range(0, len(rows), step):
            axes = (rows[start:start + step], *cols)
            yield prefix, axes, np.ix_(*axes), tuple(map(len, axes))


def _cell_slices(cells, dtype):
    """A cell list as chunks (prefix, axes, grids, shape) for _solve_tiles.

    cells holds int64 coordinate arrays of equal length, one per free
    variable, a cell in each column.  Each chunk is a slice of at most
    TILE_CELLS of them, with an empty prefix, in the given dtype; its axes,
    which are also its grids, give every cell all of its coordinates.
    """
    for lo in range(0, len(cells[0]), TILE_CELLS):
        axes = tuple(c[lo:lo + TILE_CELLS].astype(dtype) for c in cells)
        yield (), axes, axes, (len(axes[0]),)


def _solve_tiles(coeffs, B, chunks, hits):
    """The numpy kernel: solve every residual sum_j c_j t^j in the dtype of
    the chunks, one chunk of cells at a time.

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

    The loop runs with numpy's ufunc buffer at KERNEL_BUFFER = 1024
    elements, restored on exit.  A tile row of n cells divided by its
    row's scalar, as the linear and quadratic branches do, takes numpy's
    fast scalar-divisor path only while 3n exceeds the buffer size: a
    buffer that holds three rows joins them in one inner loop whose
    divisor is no longer a scalar.  In int32 (numpy 2.4, rows of 33 to
    8193 cells, buffers of 16 to 8192) the fast path took 0.21-0.46 ns a
    cell from 129 cells up, the joined rows 2.0-2.5, and rows of 33 cells
    1.8-2.5 at every size.  So 1024 keeps rows of 342 cells or more fast,
    where the default 8192 needs 2731; buffered casts ran as fast as at
    8192, and 256 slowed the dense cubic's scan by a fifth.
    """
    scan_rows = max(1, SCAN_CELLS // (2 * B + 1))  # cells per residual scan
    # chunks hold rhs = -c_0 and c_1, ..., c_K: sum_{j>0} c_j t^j = rhs
    polys = [-coeffs[0]] + coeffs[1:]
    # One loop body fed by a generator rather than a function per chunk: a
    # chunk's arrays stay alive until the next chunk's replace them, so the
    # allocator reuses their memory instead of trimming it after every
    # chunk and faulting it back in; with a function per tile, page faults
    # doubled the time of the Fermat cubic at B=128.
    old = np.setbufsize(KERNEL_BUFFER)
    try:
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
                if k <= 2:
                    # roots num / den: rhs / c_1, or (-b +- root) / (2 c_2) with
                    # the discriminant's exact root (count 1 double, 2 simple)
                    if k == 1:
                        parts = [(rhs, ck, at)]
                    else:
                        b = arrays[1]
                        cnt, root = _np_kth_roots(b * b + 4 * rhs * ck, 2,
                                                  isqrt(INT64_LIMIT))
                        parts = ((-b + sign * root, 2 * ck, _and(at, square))
                                 for sign, square in ((1, cnt >= 1),
                                                      (-1, cnt == 2)))
                    for num, den, good in parts:
                        # divisibility first, on floor(num / den) * den in place,
                        # freed at once for the next chunk's to reuse unfaulted;
                        # q and |q| <= B only where it equals num
                        prod = num // den
                        prod *= den
                        cells = _cells(shape, _and(good, prod == num))
                        del prod
                        q = _pick(num, cells, shape) // _pick(den, cells, shape)
                        near = np.abs(q) <= B
                        cells, q = cells[near], q[near]
                        hits.add_solved(prefix, *_coords(axes, shape, cells), q)
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
                        axis = np.arange(-B, B + 1, dtype=rhs.dtype)
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
    finally:
        np.setbufsize(old)


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
    hits = _solve_zeros([f], B, collect)
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
    hits = _solve_zeros([F], B, collect)
    hits.keep_primitive()
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
    hits = _solve_zeros([dehomogenize(F)], B, collect or bool(filters))
    if filters:
        hits.keep_residues(filters)
    return _result(hits.count, [(1,) + t for t in hits.points],
                   hits.hist.tolist(), collect, by_height)


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


def enumerate_projective_variety(gens, B: int):
    """All projective points of height <= B on the common zero locus.

    The points are the primitive common zeros of the generators, found
    exactly by ``_solve_zeros``.  They come back as primitive tuples, first
    nonzero coordinate positive, in lexicographic order: forms vanish at x
    and -x together, and of each such pair a mask keeps the one of
    positive sign.
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
    hits = _solve_zeros(gens, B, True)
    hits.keep_primitive()
    # every zero held is primitive, so not 0
    hits.keep_positive()
    return hits.points
