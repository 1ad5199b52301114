"""Exact enumeration of bounded integer points on hypersurfaces.

The driving strategy: iterate over all but the last variable and count the
integer roots of the residual univariate polynomial exactly, falling back
to a full range when the residual vanishes identically.  Two solvers do
this.  The numpy kernel evaluates the residual coefficients on int64 tiles
over two coordinates, solves linear, quadratic and pure-power residuals
in closed form and scans the rest over the whole box by Horner; it runs
whenever an a priori bound proves that no intermediate value can overflow
(for the scan, the value bound of the form itself).  Otherwise the
pure-Python big-int reference takes over.  Both are exact, and the tests
cross-check them against each other and against full lattice scans.

A variety of any codimension is enumerated on the same two solvers: an
integer point is a zero of every generator g_i exactly when it is a zero
of the single polynomial sum g_i^2.  Generators free of the last variable
are solved first and the last variable only at their zeros, which keeps
curves such as the twisted cubic at O(B^2) cells.

Counts of projective zeros include x and -x separately; point lists are
returned in lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import uniroots
from .exact import (CertificateError, ProjPoint, gcd_all, is_prime,
                    normalize_primitive)
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


def _coprime_count_in_box(g0: int, B: int) -> int:
    """#{v in [-B, B] : gcd(g0, v) == 1}; g0 == 0 counts units only."""
    if g0 == 0:
        return 2 if B >= 1 else 0
    if g0 == 1:
        return 2 * B + 1
    primes = []
    n = g0
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    total = 0
    for bits in range(1 << len(primes)):
        d = 1
        sign = 1
        for i, p in enumerate(primes):
            if bits >> i & 1:
                d *= p
                sign = -sign
        total += sign * (2 * (B // d) + 1)
    return total


def _np_kth_roots(rhs, k: int, B: int):
    """Vectorized exact k-th roots: arrays (count, root) with root valid
    where count >= 1; for even k a positive rhs has roots +-root."""
    mag = np.abs(rhs)
    magf = mag.astype(np.float64)
    if k == 2:
        guess = np.rint(np.sqrt(magf)).astype(np.int64)
    elif k == 3:
        guess = np.rint(np.cbrt(magf)).astype(np.int64)
    else:
        guess = np.rint(np.power(magf, 1.0 / k)).astype(np.int64)
    # candidates stay <= B+1 so cand**k cannot overflow the checked bound
    np.clip(guess, 0, B, out=guess)
    best = np.zeros_like(rhs)
    found = np.zeros(rhs.shape, dtype=bool)
    for adj in (-1, 0, 1):
        cand = np.maximum(guess + adj, 0)
        hit = cand**k == mag
        best = np.where(hit & ~found, cand, best)
        found |= hit
    if k % 2 == 1:
        root = np.where(rhs < 0, -best, best)
        ok = found & (np.abs(root) <= B)
        return ok.astype(np.int64), np.where(ok, root, 0)
    ok = found & (rhs >= 0) & (best <= B)
    count = np.where(ok, np.where(best > 0, 2, 1), 0)
    return count.astype(np.int64), np.where(ok, best, 0)


class _Hits:
    """Accumulates solved points; optionally materializes coordinates."""

    def __init__(self, projective: bool, collect: bool, B: int):
        self.projective = projective
        self.collect = collect
        self.B = B
        self.count = 0
        self.points = [] if collect else None

    def add_scalar(self, prefix, v):
        if self.projective:
            if gcd_all(prefix + (v,)) != 1:
                return
        self.count += 1
        if self.collect:
            self.points.append(prefix + (v,))

    def add_full_range(self, prefix):
        """Every v in [-B, B] completes prefix (coprime to it if projective)."""
        g0 = gcd_all(prefix) if self.projective else 1
        if self.collect:
            new = [prefix + (v,) for v in range(-self.B, self.B + 1)
                   if gcd(g0, v) == 1]
            self.count += len(new)
            self.points.extend(new)
        else:
            self.count += _coprime_count_in_box(g0, self.B)

    def add_solved(self, loop_prefix, *cols):
        """cols: equal-length int64 arrays, one per solved trailing
        coordinate, each row one point."""
        if len(cols[0]) == 0:
            return
        if self.projective:
            g = np.full(cols[0].shape, gcd_all(loop_prefix), dtype=np.int64)
            for col in cols:
                g = np.gcd(g, np.abs(col))
            keep = g == 1
            cols = [col[keep] for col in cols]
        self.count += len(cols[0])
        if self.collect:
            self.points.extend(loop_prefix + row
                               for row in zip(*(c.tolist() for c in cols)))


def _solve_zeros(f: IntPoly, B: int, projective: bool, collect: bool):
    """Count (and optionally list) integer zeros of f in the box |x| <= B."""
    nv = f.num_vars
    hits = _Hits(projective, collect, B)
    if nv == 1:
        coeffs = [f.terms.get((j,), 0) for j in range(max(f.degree, 0) + 1)]
        _solve_residual(coeffs, (), B, hits)
        return hits

    coeffs = _last_var_coefficients(f)
    K = len(coeffs) - 1
    if K == 0:
        # f does not involve its last variable: solve the smaller problem
        # and let that variable range over the full box
        sub = _solve_zeros(coeffs[0], B, projective=False,
                           collect=collect or projective)
        if collect or projective:
            for prefix in sub.points:
                hits.add_full_range(prefix)
        else:
            hits.count = sub.count * (2 * B + 1)
        return hits
    bounds = [_poly_value_bound(c, B) for c in coeffs]
    quad_bound = (
        bounds[1] ** 2 + 4 * bounds[2] * bounds[0] if K >= 2 else max(bounds)
    )
    # the kernel scans residuals of degree >= 3 by Horner, whose every
    # intermediate is bounded by sum_j bounds[j] * B^j, the value bound of f
    scan_bound = _poly_value_bound(f, B) if K >= 3 else 0
    npsafe = (
        max(max(bounds), quad_bound, (B + 1) ** max(K, 1), scan_bound)
        < INT64_LIMIT
    )

    if npsafe:
        _solve_tiles(coeffs, B, hits)
    else:
        _solve_scalar(coeffs, _iter_loop(nv - 1, B), B, hits)
    return hits


def _iter_loop(nloop: int, B: int):
    return itertools.product(range(-B, B + 1), repeat=nloop)


def _solve_residual(residual, prefix, B, hits):
    """Solve the last variable once all the others are fixed to prefix."""
    if uniroots.degree(residual) < 1:
        if uniroots.degree(residual) == -1:
            hits.add_full_range(prefix)
        return
    for r in uniroots.integer_roots_in_box(residual, B):
        hits.add_scalar(prefix, r)


def _solve_scalar(coeffs, prefixes, B, hits):
    """Big-int loop over the given values of the free variables: the exact
    reference."""
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
    """x & y for boolean masks, either of which may be a numpy scalar;
    numpy combines an array with a scalar far slower than two arrays."""
    if np.ndim(x) == 0:
        x, y = y, x
    if np.ndim(y) == 0:
        return x if y else np.False_
    return x & y


def _cells(axes, mask):
    """Coordinates of the tile cells where mask holds, one array per axis;
    mask may have any shape that broadcasts to the tile."""
    mask = np.broadcast_to(mask, tuple(map(len, axes)))
    return [ax[i] for ax, i in zip(axes, np.nonzero(mask))]


def _solve_tiles(coeffs, B, hits):
    """The numpy kernel: solve every residual sum_j c_j t^j over int64 tiles.

    A Python loop runs over all but the last two free variables.  The
    coefficients c_j are evaluated on a tile over those two (over the only
    one when one is free), cut into row chunks of at most TILE_CELLS cells.
    Cells are classed by the effective degree of their residual: linear,
    quadratic and pure-power residuals are solved in closed form on the
    whole tile, the rest are evaluated at every t in [-B, B] on a
    cells x axis array of at most SCAN_CELLS entries, and a residual that
    vanishes identically leaves t free.
    """
    nfree = coeffs[0].num_vars
    ntile = min(nfree, 2)
    axis = np.arange(-B, B + 1, dtype=np.int64)
    step = max(1, TILE_CELLS // len(axis) ** (ntile - 1))
    scan_rows = max(1, SCAN_CELLS // len(axis))  # cells per residual scan
    # tiles hold rhs = -c_0 and c_1, ..., c_K: sum_{j>0} c_j t^j = rhs
    polys = [-coeffs[0]] + coeffs[1:]
    # One loop body rather than a function per tile: a tile's arrays stay
    # alive until the next tile's replace them, so the allocator reuses
    # their memory instead of trimming it after every tile and faulting it
    # back in; with a function per tile, page faults doubled the time of
    # the Fermat cubic at B=128.
    for prefix in _iter_loop(nfree - ntile, B):
        for start in range(0, len(axis), step):
            axes = (axis[start:start + step],) + (axis,) * (ntile - 1)
            shape = tuple(map(len, axes))
            arrays = [_eval_on_tile(c, prefix, np.ix_(*axes)) for c in polys]
            rhs = arrays[0]
            # masks stay numpy scalars while the coefficients that decide
            # them are constant on the tile
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
                    q = np.broadcast_to(rhs // ck, shape)
                    good = _and(at, (q * ck == rhs) & (np.abs(q) <= B))
                    hits.add_solved(prefix, *_cells(axes, good), q[good])
                elif k == 2:
                    # quadratic formula with exact square detection
                    b = arrays[1]
                    disc = b * b + 4 * ck * rhs
                    nonneg = _and(at, disc >= 0)
                    s = np.sqrt(np.where(nonneg, disc, 0).astype(np.float64))
                    s = np.rint(s).astype(np.int64)
                    root = np.zeros(shape, dtype=np.int64)
                    is_sq = np.zeros(shape, dtype=bool)
                    for adj in (-1, 0, 1):
                        cand = np.maximum(s + adj, 0)
                        ok = nonneg & (cand * cand == disc)
                        root = np.where(ok & ~is_sq, cand, root)
                        is_sq |= ok
                    for sign in (1, -1):
                        num = -b + sign * root
                        q = num // (2 * ck)
                        good = is_sq & (q * 2 * ck == num) & (np.abs(q) <= B)
                        if sign == -1:
                            good &= root != 0  # avoid double counting double roots
                        hits.add_solved(prefix, *_cells(axes, good), q[good])
                else:
                    # pure powers c_k t^k = rhs in closed form
                    pure = at
                    for j in range(1, k):
                        pure = _and(pure, arrays[j] == 0)
                    if pure.any():
                        q = np.broadcast_to(rhs // ck, shape)
                        divis = _and(pure, (q * ck == rhs) & (np.abs(q) <= B**k))
                        cnt, root = _np_kth_roots(q[divis], k, B)
                        solved = _cells(axes, divis)
                        for sign, got in ((1, cnt >= 1), (-1, cnt == 2)):
                            hits.add_solved(prefix, *(w[got] for w in solved),
                                            sign * root[got])
                    rest = _and(at, ~pure)
                    if rest.any():
                        # scan t over the axis: sum_j c_j t^j - rhs by
                        # Horner on a cells x axis array, a chunk at a time
                        rest = np.broadcast_to(rest, shape)
                        cs = [np.broadcast_to(a, shape)[rest]
                              for a in arrays[:k + 1]]
                        solved = _cells(axes, rest)
                        for lo in range(0, len(cs[0]), scan_rows):
                            part = slice(lo, lo + scan_rows)
                            val = cs[k][part, None] * axis
                            for j in range(k - 1, 0, -1):
                                val += cs[j][part, None]
                                val *= axis
                            val -= cs[0][part, None]
                            i, t = np.nonzero(val == 0)
                            hits.add_solved(prefix, *(w[part][i] for w in solved),
                                            axis[t])
            zero = _and(open_, rhs == 0)  # a zero residual leaves t free
            if zero.any():
                for cell in zip(*(w.tolist() for w in _cells(axes, zero))):
                    hits.add_full_range(prefix + cell)


# ---------------------------------------------------------------------
# public operations


def count_affine(f: IntPoly, B: int, order: str = "solve", collect: bool = False):
    """M(f; B): integer zeros of f in the box |t| <= B.

    ``order`` selects the enumeration strategy: "solve" iterates all but
    the last coordinate and solves the residual exactly, "loop" tests every
    lattice point.  Both are exact; their agreement is a test invariant.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if B < 0:
        raise ValueError("B must be >= 0")
    if order == "solve":
        hits = _solve_zeros(f, B, projective=False, collect=collect)
    elif order == "loop":
        hits = _full_loop(f, B, collect=collect)
    else:
        raise ValueError(f"unknown order {order!r}")
    if collect:
        return hits.count, sorted(hits.points)
    return hits.count


def _full_loop(f: IntPoly, B: int, collect: bool):
    hits = _Hits(False, collect, B)
    nv = f.num_vars
    if nv == 1:
        for t in range(-B, B + 1):
            if f.evaluate((t,)) == 0:
                hits.add_scalar((), t)
        return hits
    u = np.arange(-B, B + 1, dtype=np.int64)
    coeffs = _last_var_coefficients(f)
    npsafe = _poly_value_bound(f, B) < INT64_LIMIT
    for prefix in _iter_loop(nv - 1, B):
        if npsafe:
            vals = np.zeros_like(u)
            power = np.ones_like(u)
            for j, c in enumerate(coeffs):
                if j:
                    power = power * u
                cv = c.evaluate(prefix)
                if cv:
                    vals = vals + cv * power
            zero = np.nonzero(vals == 0)[0]
            for idx in zero:
                hits.add_scalar(prefix, int(u[idx]))
        else:
            for v in range(-B, B + 1):
                if f.evaluate(prefix + (v,)) == 0:
                    hits.add_scalar(prefix, v)
    return hits


def count_projective(F: IntPoly, B: int, collect: bool = False):
    """N(F; B): primitive integer zeros of a form with sup-norm at most B.

    x and -x are counted separately, so the projective point count is half
    of this value.
    """
    if F.is_zero():
        raise ValueError("zero form")
    if not F.is_homogeneous():
        raise ValueError("form must be homogeneous")
    if B < 1:
        raise ValueError("B must be >= 1")
    hits = _solve_zeros(F, B, projective=True, collect=collect)
    if collect:
        return hits.count, sorted(hits.points)
    return hits.count


def slice_form(F: IntPoly, b: int) -> IntPoly:
    """Substitute b for the first variable: the slice F(b, T1, ..., Tn)."""
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


def count_affine_surface(F: IntPoly, B: int, filters=(), collect: bool = True):
    """Points [1, x1, x2, x3] of height <= B on the surface F = 0.

    ``filters`` is a list of ResidueFilter congruence conditions; with an
    empty list this counts every affine integral point of bounded height.
    """
    if F.is_zero() or not F.is_homogeneous() or F.degree < 1:
        raise ValueError("need a nonzero homogeneous form of degree >= 1")
    if F.num_vars != 4:
        raise ValueError("affine surface counting expects 4 variables")
    f = dehomogenize(F)
    if f.is_zero():
        # the whole affine chart lies on the surface
        pts = [
            (1,) + t for t in _iter_loop(3, B)
        ]
    else:
        _, pts3 = count_affine(f, B, collect=True)
        pts = [(1,) + t for t in pts3]
    pts = [p for p in pts if all(flt.accepts(p) for flt in filters)]
    pts.sort()
    if collect:
        return len(pts), pts
    return len(pts)


def count_roots_bounded(p, T: int):
    """Exact #{t in Z : |p(t)| <= T} plus the certified cluster bound.

    The bound is delta*(3 + 2*(T/|lead|)^(1/delta)): each of the delta root
    clusters contributes at most 2L+1 integers within distance
    L = (T/|lead|)^(1/delta) of a root, with slack absorbing rounding.
    """
    if isinstance(p, IntPoly):
        coeffs = p.univariate_coeffs()
    else:
        coeffs = list(p)
    coeffs = uniroots.trim(coeffs)
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
    first and S only at their zeros: the twisted cubic then takes O(B^2)
    cells rather than the whole box's O(B^3).  Points come back as
    normalized ProjPoint values in lexicographic order.
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
        prefixes = _solve_zeros(_sum_of_squares(inner), B, projective=False,
                                collect=True).points
        hits = _Hits(True, True, B)
        _solve_scalar(_last_var_coefficients(S), prefixes, B, hits)
    else:
        hits = _solve_zeros(S, B, projective=True, collect=True)
    found = {normalize_primitive(x).coords for x in hits.points}
    return [ProjPoint(c) for c in sorted(found)]
