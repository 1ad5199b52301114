"""Exact point counting on tangent conics inside a surface.

A conic cut out by a plane a0*X0 = a1*X1 + a2*X2 + a3*X3 and a quadric is
eliminated to a ternary quadratic q; when q(0, Y, Z) has rank 1 the affine
integral points are covered by finitely many integer parameterizations
t -> (1, R1(t), R2(t), R3(t)), one per residue class of a denominator D.  The classes are built from the rank-1 factorization, a
unimodular change of variables, a base integer solution, and congruence
solving modulo the divisors of D; completeness of the union is exact and
is tested against brute-force enumeration.

The base solution is the smallest |Y| <= (|alpha| + |beta|)*B, found in
integers: the coordinates are N_i(Y)/L, integral only on the residues r mod
L with every N_i(r) = 0 (mod L), and |N_i(Y)| <= L*B is solved exactly by
`uniroots.abs_le_intervals` as at most two intervals, as is each class's
|R_i(t)| <= B.  Certificates raise CertificateError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, log

from .exact import CertificateError, primitive_vector, unimodular_complete
from .linalg import det_bareiss
from .poly import IntPoly, gram_matrix, pad_vars, substitute_linear
from .uniroots import abs_le_intervals, evaluate


# ---------------------------------------------------------------------
# congruences


def _merge_congruence(cls, coeff, rhs, modulus):
    """Intersect cls: w = r mod m with coeff*w = rhs (mod modulus); None
    when they share no w.  Putting w = r + m*k gives a*k = rhs - coeff*r
    (mod modulus) with a = coeff*m, solvable exactly when g = gcd(a,
    modulus) divides the right side, and then k is one class mod
    modulus/g."""
    r, m = cls
    g = gcd(coeff * m, modulus)
    b = rhs - coeff * r
    if b % g:
        return None
    n = modulus // g
    k = b // g * pow(coeff * m // g, -1, n) % n
    return (r + m * k) % (m * n), m * n


# ---------------------------------------------------------------------
# plane sections and conics


@dataclass
class PlaneConicData:
    """A conic as plane section of a quadric, eliminated to a ternary q."""

    plane: tuple          # (a0, a1, a2, a3): a0*X0 = a1*X1 + a2*X2 + a3*X3
    elim_index: int       # which of X1..X3 was eliminated
    kept: tuple           # the two kept spatial variable indices, ascending
    q: IntPoly            # ternary quadratic in (X0, kept[0], kept[1])
    gram_det: int = 0

    @property
    def is_integral(self) -> bool:
        return self.gram_det != 0


def plane_eliminate(plane, Q: IntPoly) -> PlaneConicData:
    """Eliminate one spatial variable of the quadric using the plane.

    The returned ternary quadratic q vanishes exactly on the images of the
    common zeros of the plane and Q; its 3x3 symmetric-matrix determinant
    decides integrality of the conic.
    """
    a = tuple(int(v) for v in plane)
    if len(a) != 4:
        raise ValueError("plane needs four coefficients")
    if not any(a):
        raise ValueError("plane is the zero vector, which defines no plane")
    if a[1] == 0 and a[2] == 0 and a[3] == 0:
        raise ValueError("plane is X0=0; conic lies at infinity")
    a = primitive_vector(a)
    if Q.num_vars < 4:
        Q = pad_vars(Q, 4)
    if Q.num_vars != 4 or Q.degree != 2 or not Q.is_homogeneous():
        raise ValueError("need a homogeneous quadratic in four variables")
    elim = max(i for i in (1, 2, 3) if a[i] != 0)
    kept = tuple(i for i in (1, 2, 3) if i != elim)
    ai = a[elim]
    # scale the kept variables by a_elim and substitute the linear form
    z0 = IntPoly.variable(3, 0)
    z1 = IntPoly.variable(3, 1)
    z2 = IntPoly.variable(3, 2)
    images = [ai * z0, None, None, None]
    images[kept[0]] = ai * z1
    images[kept[1]] = ai * z2
    images[elim] = a[0] * z0 - a[kept[0]] * z1 - a[kept[1]] * z2
    # the scaling contributes a_elim^2 to the content
    q = substitute_linear(Q, images).primitive_part()
    return PlaneConicData(plane=a, elim_index=elim, kept=kept, q=q,
                          gram_det=det_bareiss(gram_matrix(q)))


def tangency_rank(q: IntPoly) -> int:
    """Rank of the binary form q(0, Y, Z): 1 means tangent to X0 = 0."""
    if q.is_zero():
        raise ValueError("zero quadratic")
    b11 = q.terms.get((0, 2, 0), 0)
    b12 = q.terms.get((0, 1, 1), 0)
    b22 = q.terms.get((0, 0, 2), 0)
    det = 4 * b11 * b22 - b12 * b12
    if det != 0:
        return 2
    if b11 or b12 or b22:
        return 1
    return 0


@dataclass
class ConicClass:
    """One residue class of the parameterization: t -> Q(Z_lam + D_lam*t).

    double_r holds 2*R_1, 2*R_2, 2*R_3, each a coefficient triple
    (c0, c1, c2) in t, low degree first, zeros kept.
    """

    lam: int
    modulus: int          # D_lam
    base: int             # Z_lam
    double_r: tuple


@dataclass
class ConicParam:
    """Complete integer parameterization data for a tangent conic."""

    denominator: int
    base_y: int
    classes: list
    kappa_empirical: float


@dataclass
class EmptyParam:
    """No affine integral point of height <= B exists on the conic."""

    search_window: int


def conic_parameterize(data: PlaneConicData, B: int):
    """Build the residue-class parameterizations of a tangent conic.

    Requires q nonsingular with q(0, Y, Z) of rank 1.  Returns a ConicParam
    whose classes cover exactly the affine integral points of the conic, or
    EmptyParam when no integral point of height <= B exists.
    """
    if not data.is_integral:
        raise ValueError("conic is not integral: singular ternary form")
    if tangency_rank(data.q) != 1:
        raise ValueError("conic is not tangent to the plane at infinity")
    q = data.q
    b11 = q.terms.get((0, 2, 0), 0)
    b12 = q.terms.get((0, 1, 1), 0)
    b22 = q.terms.get((0, 0, 2), 0)
    g = gcd(b11, b12, b22)
    ref = b11 if b11 else b22
    a = g if ref > 0 else -g
    alpha = isqrt(b11 // a)
    if alpha:
        beta = b12 // (2 * a * alpha)
    else:
        beta = isqrt(b22 // a)
    if (a * alpha * alpha, 2 * a * alpha * beta, a * beta * beta) != (
            b11, b12, b22) or gcd(alpha, beta) != 1:
        raise CertificateError("q(0, Y, Z) is not a*(alpha*Y + beta*Z)^2")
    gamma, delta = unimodular_complete(alpha, beta)

    b = q.terms.get((1, 1, 0), 0)
    c = q.terms.get((1, 0, 1), 0)
    d = q.terms.get((2, 0, 0), 0)
    e = b * delta - c * gamma
    f = c * alpha - b * beta
    if f == 0:
        raise ValueError("degenerate conic: pair of lines")

    # substitution identity: q(Y0, delta*Y1 - beta*Y2, alpha*Y2 - gamma*Y1)
    Y0 = IntPoly.variable(3, 0)
    Y1 = IntPoly.variable(3, 1)
    Y2 = IntPoly.variable(3, 2)
    qprime = a * Y1**2 + e * Y0 * Y1 + f * Y0 * Y2 + d * Y0**2
    subbed = substitute_linear(q, [Y0, delta * Y1 - beta * Y2,
                                   alpha * Y2 - gamma * Y1])
    if subbed != qprime:
        raise CertificateError("unimodular substitution identity failed")

    # affine parameterization by Y = Y1: Y2 = -(a*Y^2 + e*Y + d)/f, so
    # f*X_kept = these integer quadratics (const, lin, quad) in Y
    p0 = (beta * d, beta * e + f * delta, beta * a)
    p1 = (-alpha * d, -alpha * e - f * gamma, -alpha * a)
    aa = data.plane
    ae = aa[data.elim_index]
    by_coord = {
        data.kept[0]: tuple(ae * c for c in p0),
        data.kept[1]: tuple(ae * c for c in p1),
        data.elim_index: tuple(
            f * aa[0] * (k == 0) - aa[data.kept[0]] * u - aa[data.kept[1]] * v
            for k, (u, v) in enumerate(zip(p0, p1))),
    }
    # X_i = N_i(Y)/L with L the least common denominator
    M = f * ae
    g = gcd(M, *(c for p in by_coord.values() for c in p))
    L = abs(M) // g
    nums = [tuple(c * L // M for c in by_coord[i]) for i in (1, 2, 3)]

    # base integer solution: |Y| <= (|alpha| + |beta|) * B covers every
    # affine integral point of height <= B since Y = alpha*x_k1 + beta*x_k2
    window = (abs(alpha) + abs(beta)) * B
    star = _base_point(nums, L, B, window)
    if star is None:
        return EmptyParam(search_window=window)

    # shift to X_i = N_i(Y* + Z)/L = A_i + (B_i Z + C_i Z^2)/D.  D = L:
    # the N_i have coefficient gcd 1 with L, the shift keeps that gcd, and
    # every N_i(Y*) = 0 (mod L)
    A = [evaluate(p, star) for p in nums]
    if any(v % L for v in A):
        raise CertificateError("base point is not integral")
    A = [v // L for v in A]
    D = L
    Bc = [2 * p[2] * star + p[1] for p in nums]
    Cc = [p[2] for p in nums]

    classes = []
    for lam in _divisors(D):
        mu = D // lam
        cls = (0, 1)
        for i in range(3):
            cls = _merge_congruence(cls, Cc[i] * lam, -Bc[i], mu)
            if cls is None:
                break
        if cls is None:
            continue
        w, mprime = cls
        z_lam = lam * w
        d_lam = lam * mprime
        two_r = []
        for i in range(3):
            coeffs = (2 * (A[i] * D + Bc[i] * z_lam + Cc[i] * z_lam * z_lam),
                      2 * (Bc[i] + 2 * Cc[i] * z_lam) * d_lam,
                      2 * Cc[i] * d_lam * d_lam)
            if any(c % D for c in coeffs):
                raise CertificateError("2R not integral")
            two_r.append(tuple(c // D for c in coeffs))
        classes.append(ConicClass(lam=lam, modulus=d_lam, base=z_lam,
                                  double_r=tuple(two_r)))

    kappa = log(D) / log(B) if D > 1 and B > 1 else 0.0
    return ConicParam(denominator=D, base_y=star, classes=classes,
                      kappa_empirical=kappa)


def _base_point(nums, L, B, window):
    """Smallest |y| <= window, +y before -y, with every N_i(y)/L an integer
    of absolute value <= B; None when there is none."""
    ys = range(L) if L <= window else range(-window, window + 1)
    good = {y % L for y in ys if all(evaluate(p, y) % L == 0 for p in nums)}
    pieces = _abs_le_pieces(nums, L * B, [(-window, window)]) if good else []
    found = []
    for lo, hi in pieces:
        up, down = max(lo, 0), min(hi, 0)
        for r in good:
            # the y = r (mod L) nearest 0 in [up, hi] and in [lo, down]
            found += [y for y in (up + (r - up) % L, down - (down - r) % L)
                      if lo <= y <= hi]
    return min(found, key=lambda y: (abs(y), y < 0), default=None)


def _abs_le_pieces(polys, K, pieces=None):
    """The integers y of pieces (sorted disjoint intervals, None for all of
    Z) with |p(y)| <= K for every quadratic p = (c0, c1, c2), low degree
    first, as sorted disjoint intervals; None when no p bounds y and pieces
    is None."""
    for p in polys:
        if not any(p[1:]):
            if abs(p[0]) <= K:
                continue
            return []
        new = abs_le_intervals(p, K)
        pieces = new if pieces is None else [
            (max(lo, lo2), min(hi, hi2)) for lo, hi in pieces
            for lo2, hi2 in new if max(lo, lo2) <= min(hi, hi2)]
    return pieces


def _divisors(n: int):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def class_r_values(cls: ConicClass, t: int):
    """(R1, R2, R3) at t; exact, the stored polynomials are 2*R."""
    vals = []
    for two_r in cls.double_r:
        v = evaluate(two_r, t)
        if v % 2:
            raise CertificateError("R value not integral")
        vals.append(v // 2)
    return tuple(vals)


def count_class_points(cls_or_r, B: int) -> int:
    """Exact number of t with all three |R_i(t)| <= B for one class.

    All-constant classes count a single point (the parameterization is a
    constant map), guarded to the height condition.
    """
    return len(certified_class_points(cls_or_r, B))


def certified_class_points(cls: ConicClass, B: int):
    """class_points behind the certified cluster bound from the quadratic
    of largest leading term: count <= 2*(3 + 2*sqrt(2B/lead)), in integers."""
    pts = class_points(cls, B)
    count = len(pts)
    lead = max(abs(two_r[2]) for two_r in cls.double_r)
    if lead and count > 6 and (count - 6) ** 2 * lead > 32 * B:
        raise CertificateError(f"class count {count} above the cluster bound")
    return pts


def class_points(cls: ConicClass, B: int):
    """The parameterized points of height <= B for one class, sorted by t:
    the t with every |2*R_i(t)| <= 2*B, or t = 0 for a constant class."""
    pieces = _abs_le_pieces(cls.double_r, 2 * B)
    ts = (0,) if pieces is None else [
        t for lo, hi in pieces for t in range(lo, hi + 1)]
    return [(1,) + class_r_values(cls, t) for t in ts]


def conic_points(param: ConicParam, B: int, per_class=None):
    """Union of the class parameterizations, deduplicated and sorted.

    ``per_class``, when given, holds each class's class_points, already
    computed, in the order of param.classes.
    """
    if per_class is None:
        per_class = [class_points(cls, B) for cls in param.classes]
    return sorted(set().union(*per_class))
