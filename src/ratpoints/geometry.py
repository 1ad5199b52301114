"""Tangent-plane classification, small-height searches, and projections.

A surface point is classified by the quadratic term of the local expansion
restricted to the tangent plane: Singular (zero gradient), InU (some
tangent vector sees a nonzero quadratic value, multiplicity at most 2 on
the tangent section), or NotInU.  The quadratic coefficients come from
second-order divided derivatives, so the same code runs verbatim over any
prime field.  Points are classified in batches, one numpy pass each:
int64 residues below 2^31 reduced after every product, or exact Python
ints in object arrays over Q and for larger primes.

Projections of a variety away from a small-height point h map x to
h_j*x - x_j*h on the hyperplane x_j = 0, for the first j with h_j != 0;
the recorded constant c bounds the height inflation of every projected
point, and fiber sizes are sample-checked.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exact import CertificateError, primitive_vector
from .poly import IntPoly


class Classification(Enum):
    SINGULAR = "singular"
    IN_U = "in_U"
    NOT_IN_U = "not_in_U"


@functools.lru_cache(maxsize=16)
def _derivatives(F: IntPoly):
    """The partials of a quaternary F and its divided second derivatives
    with their index pairs i <= j, built once per F; tuples, since every
    caller shares them."""
    return (tuple(F.partial(i) for i in range(4)),
            tuple(((i, j), F.hasse_second(i, j)) for i in range(4)
                  for j in range(i, 4)))


def classify_point(F: IntPoly, x, p: int | None = None) -> Classification:
    """Classify a surface point; with p given, work over the prime field.
    The one-point case of classify_points."""
    return classify_points(F, [x], p)[0]


def classify_points(F: IntPoly, points, p: int | None = None) -> list:
    """The Classification of each surface point, in one batch; with p
    given, over the prime field.

    The quadratic term Q of F(x + t*y) is evaluated on a spanning set of
    the tangent plane together with its pairwise sums, which decides
    whether Q restricts to zero in any characteristic.  With g the
    gradient and m its first nonzero index, the tangent vectors
    v_j = g_m e_j - g_j e_m, j != m, span the plane (v_m is 0).

    F, its 4 partials and its 10 divided second derivatives are evaluated
    once on arrays of the coordinates: int64 residues reduced mod p after
    every product when p < 2^31, so no product of two residues leaves
    int64, and exact Python ints in object arrays otherwise (over Q, and
    for larger p).
    """
    xs = [tuple(x) for x in points]
    if not xs:
        return []
    if F.num_vars != 4 or any(len(x) != 4 for x in xs):
        raise ValueError("classification lives on surfaces in P^3")
    if p and p < 2**31:
        try:
            cols = np.array(xs, dtype=np.int64).T % p
        except OverflowError:
            cols = (np.array(xs, dtype=object).T % p).astype(np.int64)
    else:
        cols = np.array(xs, dtype=object).T
        if p:
            cols = cols % p

    def red(a):
        return a % p if p else a

    powers = [[np.ones_like(col), col] for col in cols]
    for pw in powers:
        while len(pw) <= F.degree:
            pw.append(red(pw[-1] * pw[1]))

    def ev(poly):
        total = np.zeros_like(cols[0])
        for e, c in poly.terms.items():
            v = red(c)
            for pw, k in zip(powers, e):
                if k:
                    v = red(v * pw[k])
            total = red(total + v)
        return total

    if (ev(F) != 0).any():
        raise ValueError("point not on surface")
    partials, seconds = _derivatives(F)
    g = np.array([ev(d) for d in partials])
    # quadratic Taylor coefficients via divided second derivatives
    c = [(ij, ev(d)) for ij, d in seconds if not d.is_zero()]

    def qval(v):
        total = np.zeros_like(cols[0])
        for (i, j), cij in c:
            total = red(total + red(red(cij * v[i]) * v[j]))
        return total

    n = len(xs)
    nonzero = g != 0
    m = nonzero.argmax(axis=0)
    gm = g[m, np.arange(n)]
    is_m = [m == i for i in range(4)]
    basis = [[red(np.where(i == j, gm, 0) - np.where(is_m[i], g[j], 0))
              for i in range(4)] for j in range(4)]
    in_u = np.zeros(n, dtype=bool)
    for v in basis:
        in_u |= qval(v) != 0
    for a, b in itertools.combinations(basis, 2):
        in_u |= qval([red(u + w) for u, w in zip(a, b)]) != 0
    singular = ~nonzero.any(axis=0)
    return [Classification.SINGULAR if s else
            Classification.IN_U if u else Classification.NOT_IN_U
            for s, u in zip(singular.tolist(), in_u.tolist())]


def scan_projective_points(num_vars: int, height: int):
    """Canonical primitive tuples of exact height ``height`` >= 1, lex
    order."""
    for t in itertools.product(range(-height, height + 1), repeat=num_vars):
        if max(abs(v) for v in t) == height and primitive_vector(t) == t:
            yield t


# ---------------------------------------------------------------------
# projections


@dataclass
class ProjectionSetup:
    """Projection away from the point h onto the hyperplane x_j = 0."""

    h: tuple                  # primitive center
    j: int                    # first index with h_j != 0
    c: int                    # height inflation constant


def build_projection_setup(h) -> ProjectionSetup:
    """The center made primitive, its first nonzero index, and the
    height-inflation constant c = h_j + (N + 1) * H(h)."""
    h = primitive_vector(h)
    j = next(i for i, v in enumerate(h) if v)
    return ProjectionSetup(h=h, j=j, c=h[j] + len(h) * max(map(abs, h)))


def project_point(setup: ProjectionSetup, x) -> tuple:
    """Image h_j*x - x_j*h of x, made primitive; exact, with the height
    contract H(image) <= c * H(x) checked per point."""
    xs = tuple(x)
    h, j = setup.h, setup.j
    v = [h[j] * xi - xs[j] * hi for xi, hi in zip(xs, h)]
    if not any(v):
        raise ValueError("center of projection")
    image = primitive_vector(v)
    if image[j] != 0:
        raise CertificateError("image lies off the target plane")
    hx = max(abs(val) for val in xs)
    height = max(abs(val) for val in image)
    if height > setup.c * hx:
        raise CertificateError(f"image height {height} above {setup.c} * {hx}")
    return image


@dataclass
class BirationalityReport:
    passed: bool
    fiber_histogram: dict
    images: list              # the distinct images, sorted


def sample_birationality_check(setup: ProjectionSetup, points, d: int
                               ) -> BirationalityReport:
    """Group source points by projected image and check fibers stay <= d."""
    fibers = Counter(project_point(setup, x) for x in points)
    hist = Counter(fibers.values())
    return BirationalityReport(passed=all(n <= d for n in hist),
                               fiber_histogram=dict(sorted(hist.items())),
                               images=sorted(fibers))


def find_projection_center(gens, d: int, height_cap: int, points):
    """Scan small-height points off the variety until one projects every
    sampled point with fibers of size at most d.

    Centers are single points, as suits codimension-2 varieties such as
    space curves; returns (setup, report) or None when the cap runs out.
    """
    gens = list(gens)
    for h in range(1, height_cap + 1):
        for t in scan_projective_points(gens[0].num_vars, h):
            if all(g.evaluate(t) == 0 for g in gens):
                continue  # center must avoid the variety
            setup = build_projection_setup(t)
            report = sample_birationality_check(setup, points, d)
            if report.passed:
                return setup, report
    return None

