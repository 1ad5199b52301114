"""Independent brute-force oracles used across the test suite.

These deliberately avoid the solver machinery they check: everything here
is a plain scan with exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from math import gcd

from ratpoints.uniroots import quadratic_integer_roots


def brute_projective_points(F, B):
    """Primitive zeros of F with sup norm <= B by scanning every tuple, in
    lexicographic order."""
    points = []
    for x in itertools.product(range(-B, B + 1), repeat=F.num_vars):
        g = 0
        for c in x:
            g = gcd(g, c)
        if g == 1 and F.evaluate(x) == 0:
            points.append(x)
    return points


def brute_projective(F, B):
    """The number of primitive zeros of F with sup norm <= B."""
    return len(brute_projective_points(F, B))


def brute_affine(f, B):
    count = 0
    for t in itertools.product(range(-B, B + 1), repeat=f.num_vars):
        if f.evaluate(t) == 0:
            count += 1
    return count


def conic_affine_points(data, B):
    """Affine integral points of a plane section conic by direct scan.

    Walks the first kept coordinate, solves the resulting quadratic for
    the second exactly, then recovers the eliminated coordinate from the
    plane equation.  Independent of the parameterization pipeline.
    """
    a = data.plane
    k1, k2 = data.kept
    elim = data.elim_index
    # coefficients of q(1, u, v) as a quadratic in v
    coeff_by_vdeg = {0: {}, 1: {}, 2: {}}
    for (e0, e1, e2), c in data.q.terms.items():
        coeff_by_vdeg[e2][e1] = coeff_by_vdeg[e2].get(e1, 0) + c
    def poly_at(table, u):
        return sum(c * u**e for e, c in table.items())
    pts = []
    for u in range(-B, B + 1):
        c2 = poly_at(coeff_by_vdeg[2], u)
        c1 = poly_at(coeff_by_vdeg[1], u)
        c0 = poly_at(coeff_by_vdeg[0], u)
        if c2 == 0 and c1 == 0:
            roots = range(-B, B + 1) if c0 == 0 else []
        elif c2 == 0:
            roots = [-c0 // c1] if c0 % c1 == 0 else []
        else:
            roots = quadratic_integer_roots(c2, c1, c0)
        for v in roots:
            if abs(v) > B:
                continue
            num = a[0] - a[k1] * u - a[k2] * v
            if num % a[elim]:
                continue
            w = num // a[elim]
            if abs(w) > B:
                continue
            coord = {k1: u, k2: v, elim: w}
            pts.append((1, coord[1], coord[2], coord[3]))
    return sorted(set(pts))
