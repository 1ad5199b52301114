"""Independent answers for the benchmark's output checks.

Nothing here calls ratpoints.  Polynomial texts are read by Python itself
(``^`` becomes ``**``), not by the program's parser, and every count comes
from a plain scan or a closed form.  The scans are numpy-vectorized, so a
full check costs a second or two outside the timed region.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def poly_fn(text: str):
    """A function of x0..x3 (arrays or ints) evaluating the text."""
    code = compile(text.replace("^", "**"), "<poly>", "eval")
    return lambda **xs: eval(code, {"__builtins__": {}}, xs)


def projective_zeros(text: str, bounds) -> dict:
    """N(F; B) for a quaternary form: primitive zeros with sup-norm <= B,
    x and -x counted apart, by evaluating F on the whole box."""
    if not bounds:
        return {}
    top = max(bounds)
    axis = np.arange(-top, top + 1, dtype=np.int64)
    xs = {f"x{i}": axis.reshape([-1 if j == i else 1 for j in range(4)])
          for i in range(4)}
    shape = (axis.size,) * 4
    zero = np.broadcast_to(poly_fn(text)(**xs) == 0, shape)
    g = np.gcd(np.gcd(xs["x0"], xs["x1"]), np.gcd(xs["x2"], xs["x3"]))
    hits = zero & (g == 1)
    sup = np.maximum(np.maximum(abs(xs["x0"]), abs(xs["x1"])),
                     np.maximum(abs(xs["x2"]), abs(xs["x3"])))
    sup = np.broadcast_to(sup, shape)[hits]
    return {b: int(np.count_nonzero(sup <= b)) for b in bounds}


def _primitive_pairs(r: int) -> int:
    """#{(a, b) in [-r, r]^2 : gcd(a, b) = 1}."""
    axis = np.arange(-r, r + 1)
    return int(np.count_nonzero(np.gcd.outer(axis, axis) == 1))


def conic_n_counts(bounds) -> dict:
    """N(x0*x2 - x1^2; B): the primitive zeros are +-(a^2, ab, b^2) with
    gcd(a, b) = 1, and (a, b), (-a, -b) give the same zero."""
    return {b: _primitive_pairs(isqrt(b)) for b in bounds}


def parabola_m_counts(bounds) -> dict:
    """M(t1 - t2^2; B) = #{t2 : t2^2 <= B}."""
    return {b: 2 * isqrt(b) + 1 for b in bounds}


def twisted_cubic_points(bound: int) -> int:
    """Projective points of height <= B on the twisted cubic: the points
    (a^3, a^2 b, a b^2, b^3) with gcd(a, b) = 1, up to sign."""
    r = 0
    while (r + 1) ** 3 <= bound:
        r += 1
    return _primitive_pairs(r) // 2


def diagonal_affine(coeffs, bounds, residue_filter=None) -> dict:
    """Points [1, x1, x2, x3] of height <= B on sum c_i x_i^3 = 0, by a scan
    over (x1, x2) that solves for x3, optionally only x = r mod p."""
    c0, c1, c2, c3 = coeffs
    top = max(bounds)
    axis = np.arange(-top, top + 1, dtype=np.int64)
    x1, x2 = axis[:, None], axis[None, :]
    rhs = -(c0 + c1 * x1 ** 3 + c2 * x2 ** 3)
    rhs = np.broadcast_to(rhs, (axis.size, axis.size))
    ok = rhs % c3 == 0
    cube = np.where(ok, rhs // c3, 0)
    x3 = np.rint(np.cbrt(cube.astype(np.float64))).astype(np.int64)
    ok &= x3 ** 3 == cube
    i, j = np.nonzero(ok)
    pts = np.stack([axis[i], axis[j], x3[i, j]], axis=1)
    if residue_filter is not None:
        p, residues = residue_filter
        pts = pts[np.all(pts % p == np.array(residues), axis=1)]
    height = np.abs(pts).max(axis=1) if len(pts) else np.zeros(0, np.int64)
    return {b: int(np.count_nonzero(height <= b)) for b in bounds}


def count_abs_le(coeffs, T: int) -> int:
    """#{t in Z : |p(t)| <= T}, scanning t up to the Cauchy bound of p +- T,
    beyond which p - T and p + T share the sign of the leading term."""
    *low, lead = coeffs
    radius = 1 + -(-(max(map(abs, low), default=0) + T) // abs(lead))
    exact = sum(abs(c) * radius ** i for i, c in enumerate(coeffs)) >= 2 ** 62
    t = np.arange(-radius, radius + 1, dtype=np.int64)
    if exact:
        t = t.astype(object)
    acc = np.zeros_like(t)
    for c in reversed(coeffs):
        acc = acc * t + c
    return int(np.count_nonzero(abs(acc) <= T))


def conic_points(plane, text: str, bound: int) -> int:
    """Affine integral points [1, x1, x2, x3] of height <= B on the plane
    a0 = a1 x1 + a2 x2 + a3 x3 and the quadric.

    The first coordinate k with a_k != 0 is eliminated, the next one, u,
    is scanned, and the last, v, solved from a_k^2 Q = A v^2 + B v + C,
    which is integral because Q is homogeneous of degree 2.
    """
    k = next(i for i in (1, 2, 3) if plane[i])
    ui, vi = [i for i in (1, 2, 3) if i != k]
    q = poly_fn(text)
    u = np.arange(-bound, bound + 1).astype(object)

    def g(v):
        x = {0: plane[k], ui: plane[k] * u, vi: plane[k] * v,
             k: plane[0] - plane[ui] * u - plane[vi] * v}
        return np.broadcast_to(q(**{f"x{i}": x[i] for i in range(4)}),
                               u.shape)
    c0, gp, gm = g(0), g(1), g(-1)
    qa, qb = (gp + gm) // 2 - c0, (gp - gm) // 2
    if np.any((qa == 0) & (qb == 0) & (c0 == 0)):
        raise ValueError("the conic contains a line")
    cands = set()
    disc = qb * qb - 4 * qa * c0
    for idx in np.nonzero((qa != 0) & (disc >= 0))[0]:
        s = isqrt(disc[idx])
        if s * s == disc[idx]:
            for num in (-qb[idx] + s, -qb[idx] - s):
                if num % (2 * qa[idx]) == 0:
                    cands.add((u[idx], num // (2 * qa[idx])))
    for idx in np.nonzero((qa == 0) & (qb != 0))[0]:
        if c0[idx] % qb[idx] == 0:
            cands.add((u[idx], -c0[idx] // qb[idx]))
    count = 0
    for uu, v in cands:
        num = plane[0] - plane[ui] * uu - plane[vi] * v
        if abs(v) <= bound and num % plane[k] == 0 \
                and abs(num // plane[k]) <= bound:
            count += 1
    return count
