"""Exact enumeration of bounded integer points on hypersurfaces.

The driving strategy: iterate over all but the last variable and count the
integer roots of the residual univariate polynomial exactly, falling back
to a full range when the residual vanishes identically.  Inner loops are
vectorized with numpy int64 whenever an a priori bound proves that no
intermediate value can overflow; otherwise a pure-Python big-int path takes
over.  Both paths are exact and they are cross-checked against each other
and against full lattice scans in the tests.

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
from .exact import gcd_all, is_prime, normalize_primitive
from .poly import IntPoly

INT64_LIMIT = 1 << 62


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
        if self.projective:
            g0 = gcd_all(prefix)
            if self.collect or g0 > 1:
                if self.collect:
                    for v in range(-self.B, self.B + 1):
                        if gcd(g0, v) == 1:
                            self.count += 1
                            self.points.append(prefix + (v,))
                else:
                    self.count += _coprime_count_in_box(g0, self.B)
            else:
                self.count += _coprime_count_in_box(g0, self.B)
        else:
            self.count += 2 * self.B + 1
            if self.collect:
                self.points.extend(prefix + (v,) for v in range(-self.B, self.B + 1))

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
    npsafe = (
        max(max(bounds), quad_bound, (B + 1) ** max(K, 1)) < INT64_LIMIT
    )

    grid_ok = (
        npsafe
        and nv >= 3
        and all(
            max(c.variables_used(), default=-1) < nv - 3 for c in coeffs[1:]
        )
        and (K <= 1 or all(c.is_zero() for c in coeffs[1:K]))
    )

    if grid_ok:
        _solve_grid(coeffs, B, hits)
    elif npsafe:
        _solve_vector(coeffs, B, hits)
    else:
        _solve_scalar(coeffs, B, hits)
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


def _solve_scalar(coeffs, B, hits, outer=()):
    """Big-int loop over the free variables not already fixed in outer."""
    for rest in _iter_loop(coeffs[0].num_vars - len(outer), B):
        prefix = outer + rest
        _solve_residual([c.evaluate(prefix) for c in coeffs], prefix, B, hits)


def _eval_on_vector(c: IntPoly, prefix, u: np.ndarray):
    """Evaluate a polynomial at (prefix..., u) for a numpy vector u."""
    acc = np.zeros_like(u)
    for e, coeff in c.terms.items():
        v = coeff
        for x, p in zip(prefix, e):
            if p:
                v *= x**p
        if v == 0:
            continue
        pu = e[-1] if len(e) > len(prefix) else 0
        acc = acc + v * (u**pu if pu else 1)
    return acc


def _solve_vector(coeffs, B, hits):
    """Python loop over all but the last free variable, numpy over that one."""
    nfree = coeffs[0].num_vars
    nloop = nfree - 1
    u = np.arange(-B, B + 1, dtype=np.int64)
    K = len(coeffs) - 1
    for prefix in _iter_loop(nloop, B):
        arrays = [_eval_on_vector(c, prefix, u) for c in coeffs]
        handled = np.zeros(u.shape, dtype=bool)
        # effective degree of the residual at each u
        eff = np.zeros(u.shape, dtype=np.int64)
        for j in range(1, K + 1):
            eff = np.where(arrays[j] != 0, j, eff)
        # degree 0: zero residual means the solved variable is free
        deg0 = ~handled & (eff == 0)
        if deg0.any():
            zero_res = deg0 & (arrays[0] == 0)
            for uu in u[zero_res]:
                hits.add_full_range(prefix + (int(uu),))
            handled |= deg0
        # degree 1: exact divisibility
        deg1 = ~handled & (eff == 1)
        if deg1.any():
            c1 = arrays[1]
            c0 = arrays[0]
            safe = np.where(deg1, c1, 1)
            q = -c0 // safe
            good = deg1 & (q * safe == -c0) & (np.abs(q) <= B)
            hits.add_solved(prefix, u[good], q[good])
            handled |= deg1
        # degree 2: quadratic formula with exact square detection
        if K >= 2:
            deg2 = ~handled & (eff == 2)
            if deg2.any():
                a = np.where(deg2, arrays[2], 1)
                b = arrays[1]
                c = arrays[0]
                disc = b * b - 4 * a * c
                nonneg = deg2 & (disc >= 0)
                root = np.zeros_like(disc)
                s = np.rint(np.sqrt(np.where(nonneg, disc, 0).astype(np.float64))).astype(np.int64)
                is_sq = np.zeros(u.shape, dtype=bool)
                for adj in (-1, 0, 1):
                    cand = np.maximum(s + adj, 0)
                    ok = nonneg & (cand * cand == disc)
                    root = np.where(ok & ~is_sq, cand, root)
                    is_sq |= ok
                for sign in (1, -1):
                    num = -b + sign * root
                    den = 2 * a
                    q = num // np.where(deg2, den, 1)
                    good = is_sq & (q * den == num) & (np.abs(q) <= B)
                    if sign == -1:
                        good &= root != 0  # avoid double counting double roots
                    hits.add_solved(prefix, u[good], q[good])
                handled |= deg2
        # higher degrees: pure powers vectorize, the rest drop to scalar
        for k in range(3, K + 1):
            degk = ~handled & (eff == k)
            if not degk.any():
                continue
            middle_zero = degk
            for j in range(1, k):
                middle_zero = middle_zero & (arrays[j] == 0)
            pure = middle_zero
            if pure.any():
                ck = np.where(pure, arrays[k], 1)
                c0 = arrays[0]
                q = -c0 // ck
                divis = pure & (q * ck == -c0)
                cnt, root = _np_kth_roots(np.where(divis, q, 1), k, B)
                cnt = np.where(divis, cnt, 0)
                one = divis & (cnt >= 1)
                hits.add_solved(prefix, u[one], root[one])
                if k % 2 == 0:
                    two = divis & (cnt == 2)
                    hits.add_solved(prefix, u[two], -root[two])
                handled |= pure
            rest = degk & ~pure
            for uu in u[rest]:
                residual = [int(arr[uu + B]) for arr in arrays]
                for r in uniroots.integer_roots_in_box(residual, B):
                    hits.add_scalar(prefix + (int(uu),), r)
            handled |= degk


def _solve_grid(coeffs, B, hits):
    """Python loop over all but the last two free variables, 2-D numpy grid
    over those, for residuals whose positive-degree coefficients do not
    involve the grid variables."""
    nfree = coeffs[0].num_vars
    nloop = nfree - 2
    K = len(coeffs) - 1
    axis = np.arange(-B, B + 1, dtype=np.int64)
    apow = {0: None, 1: axis[:, None]}
    bpow = {0: None, 1: axis[None, :]}

    def _pow(cache, e):
        if e not in cache:
            cache[e] = cache[1] ** e
        return cache[e]

    def eval_grid(c: IntPoly, prefix):
        acc = np.zeros((len(axis), len(axis)), dtype=np.int64)
        for e, coeff in c.terms.items():
            v = coeff
            for x, p in zip(prefix, e):
                if p:
                    v *= x**p
            if v == 0:
                continue
            ea, eb = e[nloop], e[nloop + 1]
            if ea and eb:
                acc += v * (_pow(apow, ea) * _pow(bpow, eb))
            elif ea:
                acc += v * _pow(apow, ea)
            elif eb:
                acc += v * _pow(bpow, eb)
            else:
                acc += v
        return acc

    max_rhs = (B + 1) ** K if K else 0
    for prefix in _iter_loop(nloop, B):
        top = coeffs[K].evaluate(prefix + (0, 0)) if K else 0
        if K == 0 or top == 0:
            _solve_scalar(coeffs, B, hits, prefix)
            continue
        c0 = eval_grid(coeffs[0], prefix)
        q = -c0 // top
        divis = q * top == -c0
        if K == 1:
            good = divis & (np.abs(q) <= B)
            ai, bi = np.nonzero(good)
            hits.add_solved(prefix, axis[ai], axis[bi], q[good])
        else:
            divis &= np.abs(q) <= max_rhs
            ai, bi = np.nonzero(divis)
            if len(ai) == 0:
                continue
            cnt, root = _np_kth_roots(q[divis], K, B)
            one = cnt >= 1
            hits.add_solved(prefix, axis[ai][one], axis[bi][one], root[one])
            if K % 2 == 0:
                two = cnt == 2
                hits.add_solved(prefix, axis[ai][two], axis[bi][two], -root[two])


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
    return F.substitute_value(0, b, drop=True)


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
    assert lhs <= rhs, f"slicing inequality violated: {lhs} > {rhs}"
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
    f = F.substitute_value(0, 1, drop=True)
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
    assert r <= 0 or lead * r**delta <= (2 * delta) ** delta * T, \
        f"cluster bound violated: {exact} points, T={T}"
    try:
        radius = (T / lead) ** (1.0 / delta)
    except OverflowError:  # T/lead is past the float range; ln(float max) > 709
        log_radius = (math.log(T) - math.log(lead)) / delta
        radius = math.exp(log_radius) if log_radius < 709 else math.inf
    return exact, delta * (3.0 + 2.0 * radius)


def enumerate_projective_variety(gens, B: int):
    """All projective points of height <= B on the common zero locus.

    Solves one generator for one variable whenever a specialization becomes
    univariate, otherwise scans a coordinate; every candidate is verified
    against every generator, so the output is exact.  Points come back as
    normalized ProjPoint values in lexicographic order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    nv = gens[0].num_vars
    if any(g.num_vars != nv for g in gens):
        raise ValueError("generators must share one variable count")
    found = set()

    def admissible(assign):
        return all(g.evaluate(assign) == 0 for g in gens)

    def recurse(idx_values):
        missing = [i for i in range(nv) if i not in idx_values]
        if not missing:
            full = tuple(idx_values[i] for i in range(nv))
            if any(full) and admissible(full):
                found.add(normalize_primitive(full).coords)
            return
        # look for a generator that is univariate in one missing variable
        for g in gens:
            spec = g
            # substitute known values without dropping slots
            for i, v in idx_values.items():
                spec = spec.substitute_value(i, v, drop=False)
            used = spec.variables_used()
            if len(used) == 1 and used[0] in idx_values:
                continue
            if len(used) == 0:
                if not spec.is_zero():
                    return  # contradiction: prune this branch
                continue
            if len(used) == 1:
                var = used[0]
                coeffs = [0] * (spec.degree + 1)
                for e, c in spec.terms.items():
                    coeffs[e[var]] += c
                if uniroots.degree(coeffs) < 1:
                    if uniroots.degree(coeffs) == -1:
                        continue
                    return
                for r in uniroots.integer_roots_in_box(coeffs, B):
                    nxt = dict(idx_values)
                    nxt[var] = r
                    recurse(nxt)
                return
        var = missing[0]
        for v in range(-B, B + 1):
            nxt = dict(idx_values)
            nxt[var] = v
            recurse(nxt)

    recurse({})
    return [normalize_primitive(c) for c in sorted(found)]
