"""Exact point counting on lines and conics inside a surface.

Lines: the affine integral points of a rational line form an arithmetic
progression (1, t + n*s) with a minimal step s, found by solving the
coordinate congruences exactly.

Tangent conics: a conic cut out by a plane a0*X0 = a1*X1 + a2*X2 + a3*X3
and a quadric is eliminated to a ternary quadratic q; when q(0, Y, Z) has
rank 1 the affine integral points are covered by finitely many integer
parameterizations t -> (1, R1(t), R2(t), R3(t)), one per residue class of
a denominator D.  The classes are built from the rank-1 factorization, a
unimodular change of variables, a base integer solution, and congruence
solving modulo the divisors of D; completeness of the union is exact and
is tested against brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, log

from .exact import ProjPoint, gcd_all, primitive_vector, unimodular_complete
from .linalg import det_bareiss
from .poly import IntPoly, pad_vars, substitute_linear


# ---------------------------------------------------------------------
# lines


@dataclass(frozen=True)
class LineParam:
    """Affine integral points (1, base + n*step) of a line, n in Z."""

    base: tuple
    step: tuple


@dataclass
class LinePointsResult:
    param: LineParam | None
    points: list
    count: int
    bound_constant: int = 2
    bound_value: float = 0.0


def line_points(p1, p2, B: int) -> LinePointsResult:
    """S(L;B): affine integral points of height <= B on the line p1 p2.

    The points, when there are at least two, are exactly an arithmetic
    progression with minimal step; the count obeys
    count <= 2 * (1 + B/|step|).
    """
    c1 = tuple(p1.coords if isinstance(p1, ProjPoint) else p1)
    c2 = tuple(p2.coords if isinstance(p2, ProjPoint) else p2)
    if len(c1) != 4 or len(c2) != 4:
        raise ValueError("line points live in P^3")
    n1 = primitive_vector(c1)
    n2 = primitive_vector(c2)
    if n1 == n2:
        raise ValueError("need two distinct points to span a line")
    if c1[0] == 0 and c2[0] == 0:
        return LinePointsResult(None, [], 0)  # line at infinity
    raw = tuple(c2[0] * a - c1[0] * b for a, b in zip(c1, c2))
    if all(v == 0 for v in raw):
        raise ValueError("need two distinct points to span a line")
    q = c1 if c1[0] != 0 else c2
    q0 = q[0]
    s = primitive_vector(raw[1:])
    # integral points: t = (q_sp + w*s)/q0 with s_i*w = -q_i (mod q0), w in Z
    cls = (0, 1)  # residue, modulus
    for i in range(3):
        cls = _merge_congruence(cls, s[i], -q[i + 1], abs(q0))
        if cls is None:
            return LinePointsResult(None, [], 0)
    w0, m = cls
    base = tuple((q[i + 1] + w0 * s[i]) // q0 for i in range(3))
    step = tuple(m * s[i] // q0 for i in range(3))
    assert all((q[i + 1] + w0 * s[i]) % q0 == 0 for i in range(3))
    assert all(m * s[i] % q0 == 0 for i in range(3))
    step = primitive_step(step)
    lo, hi = _progression_range(base, step, B)
    if lo is None:
        return LinePointsResult(None, [], 0)
    pts = [
        (1,) + tuple(b + n * st for b, st in zip(base, step))
        for n in range(lo, hi + 1)
    ]
    count = len(pts)
    snorm = max(abs(v) for v in step)
    bound = 2.0 * (1.0 + B / snorm)
    assert count <= bound
    param = None
    if count >= 2:
        param = LineParam(base=pts[0][1:], step=step)
    return LinePointsResult(param, pts, count, 2, bound)


def primitive_step(step):
    """Canonical sign for a progression step: first nonzero positive."""
    for v in step:
        if v:
            return step if v > 0 else tuple(-x for x in step)
    raise ValueError("zero step")


def _merge_congruence(cls, coeff, rhs, modulus):
    """Intersect cls: w = cls[0] mod cls[1] with coeff*w = rhs (mod modulus)."""
    if modulus == 1:
        return cls
    c = coeff % modulus
    d = gcd(c, modulus)
    if rhs % d:
        return None
    m2 = modulus // d
    if m2 == 1:
        return cls
    w2 = (rhs // d) * pow((c // d) % m2, -1, m2) % m2
    return _crt(cls, (w2, m2))


def _frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _crt(a, b):
    """Merge residue classes (r1, m1), (r2, m2); None when incompatible."""
    r1, m1 = a
    r2, m2 = b
    g = gcd(m1, m2)
    if (r1 - r2) % g:
        return None
    lcm = m1 // g * m2
    # solve r1 + m1*k = r2 (mod m2)
    k = ((r2 - r1) // g) * pow(m1 // g, -1, m2 // g) % (m2 // g) if m2 // g > 1 else 0
    return ((r1 + m1 * k) % lcm, lcm)


def _progression_range(base, step, B: int):
    """Integer n-range with |base + n*step| <= B in every coordinate."""
    lo, hi = None, None
    for b, s in zip(base, step):
        if s == 0:
            if abs(b) > B:
                return None, None
            continue
        # -B <= b + n*s <= B
        nlo = -Fraction(B + b, s)
        nhi = Fraction(B - b, s)
        if s < 0:
            nlo, nhi = nhi, nlo
        nlo = _frac_ceil(nlo)
        nhi = _frac_floor(nhi)
        lo = nlo if lo is None else max(lo, nlo)
        hi = nhi if hi is None else min(hi, nhi)
    if lo is None:
        # step is zero in all coordinates: impossible for a primitive step
        raise AssertionError("degenerate step")
    if lo > hi:
        return None, None
    return lo, hi


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


def plane_from_three_points(points):
    """Plane a0*X0 = a1*X1 + a2*X2 + a3*X3 through three points of P^3.

    Coefficients are exact 3x3 minors of the point matrix, made primitive;
    returns None when the points are collinear (no unique plane).
    """
    pts = [tuple(p.coords if isinstance(p, ProjPoint) else p) for p in points]
    if len(pts) != 3 or any(len(p) != 4 for p in pts):
        raise ValueError("need three points of P^3")
    cof = []
    for j in range(4):
        minor = [[p[k] for k in range(4) if k != j] for p in pts]
        cof.append((-1) ** j * det_bareiss(minor))
    if all(c == 0 for c in cof):
        return None
    a = primitive_vector((cof[0], -cof[1], -cof[2], -cof[3]))
    return a


def plane_eliminate(plane, Q: IntPoly) -> PlaneConicData:
    """Eliminate one spatial variable of the quadric using the plane.

    The returned ternary quadratic q vanishes exactly on the images of the
    common zeros of the plane and Q; its 3x3 symmetric-matrix determinant
    decides integrality of the conic.
    """
    a = tuple(int(v) for v in plane)
    if len(a) != 4:
        raise ValueError("plane needs four coefficients")
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
    gram = _ternary_gram(q)
    return PlaneConicData(plane=a, elim_index=elim, kept=kept, q=q,
                          gram_det=det_bareiss(gram))


def _ternary_gram(q: IntPoly):
    c = {e: v for e, v in q.terms.items()}
    def cf(i, j):
        e = [0, 0, 0]
        e[i] += 1
        e[j] += 1
        return c.get(tuple(e), 0)
    return [
        [2 * cf(0, 0), cf(0, 1), cf(0, 2)],
        [cf(0, 1), 2 * cf(1, 1), cf(1, 2)],
        [cf(0, 2), cf(1, 2), 2 * cf(2, 2)],
    ]


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
    """One residue class of the parameterization: t -> Q(Z_lam + D_lam*t)."""

    lam: int
    modulus: int          # D_lam
    base: int             # Z_lam
    double_r: tuple       # three univariate IntPoly equal to 2*R_i


@dataclass
class ConicParam:
    """Complete integer parameterization data for a tangent conic."""

    plane: tuple
    alpha: int
    beta: int
    gamma: int
    delta: int
    a: int
    e: int
    f: int
    d: int
    base_y: int
    denominator: int
    classes: list = field(default_factory=list)
    kappa_empirical: float = 0.0


@dataclass
class EmptyParam:
    """No affine integral point of height <= B exists on the conic."""

    search_window: int
    reason: str = "no integer base point in the search window"


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
    g = gcd_all((b11, b12, b22))
    ref = b11 if b11 else b22
    a = g if ref > 0 else -g
    alpha = isqrt(b11 // a)
    if alpha:
        beta = b12 // (2 * a * alpha)
    else:
        beta = isqrt(b22 // a)
    assert a * alpha * alpha == b11 and a * beta * beta == b22
    assert 2 * a * alpha * beta == b12
    assert gcd(alpha, beta) == 1
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
    assert subbed == qprime, "unimodular substitution identity failed"

    # affine parameterization by Y = Y1: Y2 = -(a*Y^2 + e*Y + d)/f
    num = (Fraction(a), Fraction(e), Fraction(d))  # quad, lin, const
    kept1 = _quad_scale(num, Fraction(beta, f), extra_lin=Fraction(delta))
    kept2 = _quad_scale(num, Fraction(-alpha, f), extra_lin=Fraction(-gamma))
    aa = data.plane
    elim_quad = tuple(
        (Fraction(aa[0]) * (1 if k == 2 else 0)
         - aa[data.kept[0]] * kept1[k] - aa[data.kept[1]] * kept2[k])
        / aa[data.elim_index]
        for k in range(3)
    )
    by_coord = {data.kept[0]: kept1, data.kept[1]: kept2,
                data.elim_index: elim_quad}
    coord_polys = [by_coord[i] for i in (1, 2, 3)]

    # base integer solution: |Y| <= (|alpha| + |beta|) * B covers every
    # affine integral point of height <= B since Y = alpha*x_k1 + beta*x_k2
    window = (abs(alpha) + abs(beta)) * B
    star = None
    for mag in range(window + 1):
        for y in ((mag,) if mag == 0 else (mag, -mag)):
            vals = [_quad_eval(p, y) for p in coord_polys]
            if all(v.denominator == 1 and abs(v) <= B for v in vals):
                star = y
                break
        if star is not None:
            break
    if star is None:
        return EmptyParam(search_window=window)

    # shift to Q_i(Z) = q_i(Y* + Z) = A_i + (B_i Z + C_i Z^2)/D
    shifted = [_quad_shift(p, star) for p in coord_polys]
    D = 1
    for c2, c1, c0 in shifted:
        assert c0.denominator == 1
        for fr in (c1, c2):
            D = D // gcd(D, fr.denominator) * fr.denominator
    A = [int(p[2]) for p in shifted]
    Bc = [int(p[1] * D) for p in shifted]
    Cc = [int(p[0] * D) for p in shifted]

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
            c2 = Fraction(Cc[i] * d_lam * d_lam, D)
            c1 = Fraction(Bc[i] * d_lam + 2 * Cc[i] * z_lam * d_lam, D)
            c0 = Fraction(A[i] * D + Bc[i] * z_lam + Cc[i] * z_lam * z_lam, D)
            coeffs = [2 * c0, 2 * c1, 2 * c2]
            assert all(x.denominator == 1 for x in coeffs), "2R not integral"
            two_r.append(IntPoly(1, {(k,): int(x) for k, x in enumerate(coeffs)}))
        classes.append(ConicClass(lam=lam, modulus=d_lam, base=z_lam,
                                  double_r=tuple(two_r)))

    kappa = log(D) / log(B) if D > 1 and B > 1 else 0.0
    return ConicParam(
        plane=data.plane, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
        a=a, e=e, f=f, d=d, base_y=star, denominator=D, classes=classes,
        kappa_empirical=kappa,
    )


def _quad_scale(num, factor, extra_lin):
    """factor*(a*Y^2 + e*Y + d) + extra_lin*Y as (quad, lin, const)."""
    return (num[0] * factor, num[1] * factor + extra_lin, num[2] * factor)


def _quad_eval(p, y):
    return p[0] * y * y + p[1] * y + p[2]


def _quad_shift(p, s):
    """Coefficients of p(s + Z) as (quad, lin, const)."""
    return (p[0], 2 * p[0] * s + p[1], _quad_eval(p, s))


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
        v = two_r.evaluate((t,))
        assert v % 2 == 0, "R value not integral"
        vals.append(v // 2)
    return tuple(vals)


def class_t_range(cls: ConicClass, B: int):
    """A finite range certainly containing every t with all |R_i(t)| <= B."""
    best = None
    for two_r in cls.double_r:
        c = [two_r.terms.get((k,), 0) for k in range(3)]
        if c[2] != 0:
            m = (2 * abs(c[1]) + isqrt(4 * abs(c[2]) * (2 * B + abs(c[0])))) // (
                2 * abs(c[2])
            ) + 2
        elif c[1] != 0:
            m = (2 * B + abs(c[0])) // abs(c[1]) + 2
        else:
            continue
        best = m if best is None else min(best, m)
    return best


def count_class_points(cls_or_r, B: int) -> int:
    """Exact number of t with all three |R_i(t)| <= B for one class.

    All-constant classes count a single point (the parameterization is a
    constant map), guarded to the height condition.
    """
    cls = cls_or_r
    m = class_t_range(cls, B)
    if m is None:
        vals = class_r_values(cls, 0)
        return 1 if all(abs(v) <= B for v in vals) else 0
    count = 0
    for t in range(-m, m + 1):
        if all(abs(v) <= 2 * B for v in
               (two_r.evaluate((t,)) for two_r in cls.double_r)):
            count += 1
    # certified cluster bound from the quadratic of largest leading term
    lead = max((abs(two_r.terms.get((2,), 0)) for two_r in cls.double_r),
               default=0)
    if lead:
        bound = 2 * (3.0 + 2.0 * (2.0 * B / lead) ** 0.5)
        assert count <= bound, f"class count {count} above bound {bound}"
    return count


def class_points(cls: ConicClass, B: int):
    """The parameterized points of height <= B for one class, sorted by t."""
    m = class_t_range(cls, B)
    if m is None:
        vals = class_r_values(cls, 0)
        return [(1,) + vals] if all(abs(v) <= B for v in vals) else []
    pts = []
    for t in range(-m, m + 1):
        vals = class_r_values(cls, t)
        if all(abs(v) <= B for v in vals):
            pts.append((1,) + vals)
    return pts


def conic_points(param: ConicParam, B: int):
    """Union of the class parameterizations, deduplicated and sorted."""
    pts = set()
    for cls in param.classes:
        pts.update(class_points(cls, B))
    return sorted(pts)
