"""Tangent-plane classification, small-height searches, and projections.

A surface point is classified by the quadratic term of the local expansion
restricted to the tangent plane: Singular (zero gradient), InU (some
tangent vector sees a nonzero quadratic value, multiplicity at most 2 on
the tangent section), or NotInU.  The quadratic coefficients come from
second-order divided derivatives, so the same code runs verbatim over any
prime field.

Projections of a variety away from a small-height linear center are built
from exact integer nullspaces; the recorded constant c bounds the height
inflation of every projected point, and fiber sizes are sample-checked.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum

from .exact import (CertificateError, ProjPoint, gcd_all, normalize_primitive,
                    primitive_vector, xgcd)
from .irreducibility import Irreducibility, is_absolutely_irreducible
from .linalg import invert_unimodular, nullspace_int, rank_dense
from .poly import IntPoly, substitute_linear


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
        return poly.evaluate_mod(xs, p) if p else poly.evaluate(xs)

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
    """Canonical primitive tuples of exact height ``height``, lex order."""
    for t in itertools.product(range(-height, height + 1), repeat=num_vars):
        if max(abs(v) for v in t) != height:
            continue
        if gcd_all(t) != 1:
            continue
        first = next(v for v in t if v != 0)
        if first < 0:
            continue
        yield t


def find_U_point(F: IntPoly, height_cap: int):
    """First canonical point of the surface classified InU, scanning
    heights 1..cap in lexicographic order; None when the cap is exhausted
    (an honest NotFound: small rational points in U need not exist)."""
    if F.degree < 2:
        raise ValueError("surface must have degree >= 2")
    for h in range(1, height_cap + 1):
        for t in scan_projective_points(4, h):
            if F.evaluate(t) != 0:
                continue
            if classify_point(F, t) is Classification.IN_U:
                return normalize_primitive(t)
    return None


# ---------------------------------------------------------------------
# hyperplane sections


def _column_reduce(a):
    """Unimodular U with a U = (0, ..., 0, 1) for the primitive vector of a,
    by column gcd reduction; U^-1 then has last row a."""
    a = primitive_vector(a)
    n = len(a)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = list(a)
    for i in range(n - 1):
        if w[i] == 0:
            continue
        g, x, y = xgcd(w[n - 1], w[i])
        wi_g = w[i] // g
        wn_g = w[n - 1] // g
        for row in U:
            ci, cn = row[i], row[n - 1]
            row[n - 1] = x * cn + y * ci
            row[i] = -wi_g * cn + wn_g * ci
        w[i], w[n - 1] = 0, g
    if w != [0] * (n - 1) + [1]:
        raise CertificateError("column reduction did not reach e_n")
    return U


def complete_to_unimodular(a):
    """Integer matrix with determinant +-1 whose last row is the primitive
    vector a (column gcd reduction, then an exact inverse)."""
    return invert_unimodular(_column_reduce(a))


@dataclass
class SectionResult:
    direction: tuple | None   # None means not found within the cap
    change_of_coords: list | None  # unimodular, last row = direction
    section: IntPoly | None   # restriction to the hyperplane, new coords
    tried: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.direction is not None


def restrict_to_hyperplane(F: IntPoly, a):
    """F in the coordinates y = M x with the hyperplane a.x = 0 at y_n = 0.

    Returns (M, section) where section is F(M^-1 (y, 0)) in n variables.
    """
    n = F.num_vars
    Minv = _column_reduce(a)
    M = invert_unimodular(Minv)
    images = []
    for i in range(n):
        terms = {}
        for j in range(n - 1):
            if Minv[i][j]:
                e = [0] * (n - 1)
                e[j] = 1
                terms[tuple(e)] = Minv[i][j]
        images.append(IntPoly(n - 1, terms))
    return M, substitute_linear(F, images)


def find_integral_section(F: IntPoly, height_cap: int = 3,
                          irr_tries: int = 12):
    """Search directions a of increasing height until the hyperplane
    section of F is certified absolutely irreducible.

    Returns a SectionResult, or None with the tried diagnostics attached
    when every candidate up to the cap was No or Unknown.
    """
    if F.degree < 2:
        raise ValueError("sections of a plane are not meaningful here")
    tried = []
    for h in range(1, height_cap + 1):
        for a in scan_projective_points(F.num_vars, h):
            M, section = restrict_to_hyperplane(F, a)
            if section.is_zero():
                tried.append((a, "hyperplane inside the surface"))
                continue
            verdict = is_absolutely_irreducible(section, max_tries=irr_tries)
            tried.append((a, verdict.value))
            if verdict is Irreducibility.YES:
                return SectionResult(direction=a, change_of_coords=M,
                                     section=section, tried=tried)
    return SectionResult(direction=None, change_of_coords=None,
                         section=None, tried=tried)


# ---------------------------------------------------------------------
# projections


@dataclass
class ProjectionSetup:
    """Projection away from the span of h_1..h_k onto g_1.x = ... = 0."""

    ambient_dim: int          # N
    h_list: list              # spanning points of the center
    g_list: list              # dual vectors cutting out the target plane
    lam: int                  # product of g_i . h_i
    lam_partial: list         # products leaving out one factor
    c: int                    # height inflation constant


def build_projection_setup(h_list) -> ProjectionSetup:
    """Dual vectors by exact nullspace: g_i . h_j = 0 for i != j and
    g_i . h_i != 0, then the height-inflation constant."""
    hs = [primitive_vector(tuple(h)) for h in h_list]
    if not hs:
        raise ValueError("need at least one spanning point")
    ncols = len(hs[0])
    if any(len(h) != ncols for h in hs):
        raise ValueError("spanning points of mixed dimension")
    if rank_dense(hs) != len(hs):
        raise ValueError("spanning points are linearly dependent")
    gs = []
    for i in range(len(hs)):
        others = [hs[j] for j in range(len(hs)) if j != i]
        if others:
            basis = nullspace_int(others, ncols)
        else:
            basis = [tuple(1 if k == j else 0 for k in range(ncols))
                     for j in range(ncols)]
        g = next((v for v in basis if _dot(v, hs[i]) != 0), None)
        if g is None:
            raise ValueError("no dual vector: spanning points degenerate")
        gs.append(primitive_vector(g))
    diag = [_dot(g, h) for g, h in zip(gs, hs)]
    if any(d == 0 for d in diag) or any(
            _dot(g, h) != 0 for i, g in enumerate(gs)
            for j, h in enumerate(hs) if i != j):
        raise CertificateError("dual vectors are not dual to the center")
    lam = 1
    for d in diag:
        lam *= d
    lam_partial = [lam // d for d in diag]
    N = ncols - 1
    c = abs(lam) + (N + 1) * sum(
        abs(lp) * max(abs(v) for v in g) * max(abs(v) for v in h)
        for lp, g, h in zip(lam_partial, gs, hs)
    )
    return ProjectionSetup(ambient_dim=N, h_list=hs, g_list=gs, lam=lam,
                           lam_partial=lam_partial, c=c)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def project_point(setup: ProjectionSetup, x) -> ProjPoint:
    """Image of x under the projection; exact, with the height contract
    H(image) <= c * H(x) asserted per point."""
    xs = tuple(x)
    v = [setup.lam * xi for xi in xs]
    for lp, g, h in zip(setup.lam_partial, setup.g_list, setup.h_list):
        gx = _dot(g, xs)
        for k in range(len(v)):
            v[k] -= lp * gx * h[k]
    if all(val == 0 for val in v):
        raise ValueError("center of projection")
    image = normalize_primitive(v)
    if any(_dot(g, image.coords) != 0 for g in setup.g_list):
        raise CertificateError("image lies off the target plane")
    hx = max(abs(val) for val in xs)
    if image.height > setup.c * hx:
        raise CertificateError(
            f"image height {image.height} above {setup.c} * {hx}")
    return image


@dataclass
class BirationalityReport:
    passed: bool
    fiber_histogram: dict
    offending: list
    fiber_bound: int
    total_points: int


def sample_birationality_check(setup: ProjectionSetup, points, d: int
                               ) -> BirationalityReport:
    """Group source points by projected image and check fibers stay <= d."""
    fibers: dict = {}
    offending = []
    total = 0
    for x in points:
        total += 1
        img = project_point(setup, x).coords
        fibers.setdefault(img, []).append(tuple(x))
    hist: dict = {}
    for img, members in fibers.items():
        n = len(members)
        hist[n] = hist.get(n, 0) + 1
        if n > d:
            offending.append((img, members))
    return BirationalityReport(
        passed=not offending,
        fiber_histogram=dict(sorted(hist.items())),
        offending=offending,
        fiber_bound=d,
        total_points=total,
    )


def find_projection_center(gens, d: int, height_cap: int, points):
    """Scan small-height points off the variety until one projects every
    sampled point with fibers of size at most d.

    Handles centers that are single points (codimension-2 varieties, e.g.
    space curves); returns (setup, report) or None when the cap runs out.
    """
    gens = list(gens)
    for h in range(1, height_cap + 1):
        for t in scan_projective_points(gens[0].num_vars, h):
            if all(g.evaluate(t) == 0 for g in gens):
                continue  # center must avoid the variety
            setup = build_projection_setup([t])
            report = sample_birationality_check(setup, points, d)
            if report.passed:
                return setup, report
    return None


# ---------------------------------------------------------------------
# degenerate varieties


def detect_hyperplane(points):
    """A primitive vector a with a.x = 0 for every sample point, or None."""
    rows = [tuple(p) for p in points]
    if not rows:
        return None
    basis = nullspace_int(rows, len(rows[0]))
    return basis[0] if basis else None


def degenerate_reduction(points):
    """Drop a coordinate when all sample points satisfy one linear form.

    Implements the pre-step of projecting a degenerate variety away from
    the unused coordinate; returns (reduced points, dropped index, form)
    or None when the points span the ambient space.
    """
    a = detect_hyperplane(points)
    if a is None:
        return None
    drop = max(i for i, v in enumerate(a) if v != 0)
    reduced = []
    for p in points:
        xs = tuple(p)
        reduced.append(normalize_primitive(xs[:drop] + xs[drop + 1:]))
    return reduced, drop, a
