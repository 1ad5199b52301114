"""Tangent-plane classification, small-height searches, and projections.

A surface point is classified by the quadratic term of the local expansion
restricted to the tangent plane: Singular (zero gradient), InU (some
tangent vector sees a nonzero quadratic value, multiplicity at most 2 on
the tangent section), or NotInU.  The quadratic coefficients come from
second-order divided derivatives, so the same code runs verbatim over any
prime field.

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

    The quadratic term Q of F(x + t*y) is evaluated on a spanning set of
    the tangent plane together with its pairwise sums, which decides
    whether Q restricts to zero in any characteristic.
    """
    xs = tuple(x)
    if F.num_vars != 4 or len(xs) != 4:
        raise ValueError("classification lives on surfaces in P^3")

    def ev(poly):
        return poly.evaluate(xs) % p if p else poly.evaluate(xs)

    if ev(F) != 0:
        raise ValueError("point not on surface")
    partials, seconds = _derivatives(F)
    g = [ev(d) for d in partials]
    if all(v == 0 for v in g):
        return Classification.SINGULAR
    # quadratic Taylor coefficients via divided second derivatives
    c = {ij: ev(d) for ij, d in seconds}

    def qval(y):
        total = 0
        for (i, j), cij in c.items():
            total += cij * y[i] * y[j]
        return total % p if p else total

    m = next(i for i in range(4) if g[i] != 0)
    basis = []
    for j in range(4):
        if j == m:
            continue
        v = [0, 0, 0, 0]
        v[j] = g[m]
        v[m] = -g[j] % p if p else -g[j]
        basis.append(tuple(v))
    for v in basis:
        if qval(v) != 0:
            return Classification.IN_U
    for a, b in itertools.combinations(basis, 2):
        if qval(tuple(u + w for u, w in zip(a, b))) != 0:
            return Classification.IN_U
    return Classification.NOT_IN_U


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

