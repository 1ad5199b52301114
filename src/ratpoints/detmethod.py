"""The two-prime determinant method on surfaces in P^3.

Pipeline: pick primes p in a window around B^(1/sqrt(d)+eps), partition the
affine points of height <= B by residue class, select monomials that stay
independent modulo the ideal of an auxiliary curve, and form the exact
determinant of monomial values at class points.  Size bounds on the
determinant and divisibility by high prime powers (guaranteed for points
sharing a nonsingular reduction) force the determinant to vanish, which
yields an auxiliary form vanishing on the whole class without being
divisible by the surface form F.  The curve F = G = 0 meets x0 = 0 in
deg F * deg G points, a complete intersection's Hilbert value in closed
form.  Everything here is exact integer or rational arithmetic; the only
floats are in the prime windows.

The per-class work runs in batches: one classification per prime, one
value-matrix build and nullspace batch per degree, one vanishing check per
distinct auxiliary form, and one value-matrix build per monomial
selection for the determinants.  The same numpy code builds every value
matrix, in int64 when an a priori bound keeps every value inside it and
in a numpy object array of exact Python ints past the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, factorial, isfinite

import numpy as np

from .exact import CertificateError, is_prime, valuation
from .geometry import classify_points
from .linalg import annihilates, det_bareiss, echelon_mod, nullspaces_int
from .poly import (IntPoly, graded_piece_basis, monomials_of_degree,
                   poly_divides)


# ---------------------------------------------------------------------
# prime windows


@dataclass
class PrimeWindow:
    primes: list           # the first min_count primes >= low
    window: tuple          # (low, high) actually used


def prime_window(B: int, d: int, epsilon: float, min_count: int) -> PrimeWindow:
    """The first min_count primes p >= low = B^(1/sqrt(d) + epsilon), and
    the window [low, C*low] with C doubled from 2 until int(C*low) + 1
    reaches the last of them."""
    if B < 2 or d < 3:
        raise ValueError("need B >= 2 and degree >= 3")
    if min_count < 1:
        raise ValueError(f"need at least one prime, got {min_count}")
    a = 1.0 / d**0.5 + epsilon
    if not isfinite(a):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    try:
        low = max(float(B) ** a, 2.0)
    except OverflowError:
        raise ValueError(f"epsilon {epsilon} makes B^(1/sqrt(d) + epsilon) "
                         "overflow a float") from None
    primes = []
    n = ceil(low)
    while len(primes) < min_count:
        if is_prime(n):
            primes.append(n)
        n += 1
    C = 2.0
    while int(C * low) + 1 < primes[-1]:
        C *= 2.0
    return PrimeWindow(primes=primes, window=(low, C * low))


# ---------------------------------------------------------------------
# residue classes


def partition_by_residue(points, p: int, F: IntPoly):
    """Partition affine points [1, x1, x2, x3] by reduction mod p.

    Returns an ordered mapping residue -> (points, classification of the
    residue on the reduced surface); the residues are classified in one
    batch.
    """
    classes: dict = {}
    for pt in points:
        if pt[0] != 1:
            raise ValueError("points must be affine, first coordinate 1")
        key = (1, pt[1] % p, pt[2] % p, pt[3] % p)
        classes.setdefault(key, []).append(tuple(pt))
    keys = sorted(classes)
    return {key: (classes[key], verdict) for key, verdict
            in zip(keys, classify_points(F, keys, p))}


# ---------------------------------------------------------------------
# monomial selection


@dataclass
class MonomialSelection:
    """Monomials of one degree D, no combination of which lies in the
    curve ideal, with small affine degree sum."""

    k: int
    monomials: list        # exponent tuples of degree D in four variables
    degree_sum: int        # sum of the degrees with the first variable 1


# the degree past which select_monomials gives up on the Hilbert function
MAX_SELECTION_DEGREE = 400


def select_monomials(J, e: int, k: int) -> MonomialSelection:
    """Greedy selection: for each degree >= stabilization, take the graded
    quotient basis mod (J, X0); stop at the smallest D with enough
    monomials, dropping the surplus from the top degree.  Independence of
    the full selection in degree D is confirmed by exact rank.
    """
    J = list(J)
    if not J:
        raise ValueError("need curve generators")
    if J[0].num_vars != 4:
        raise ValueError("curve ideals live in four variables")
    # the quotient by (J, X0) in degree delta is the quotient of the
    # three-variable ring by the image of J at X0 = 0
    J0 = [g.substitute_value(0, 0) for g in J]
    J0 = [g for g in J0 if not g.is_zero()]
    per_degree = {}
    stable_from = None
    delta = 0
    while True:
        basis = graded_piece_basis(J0, delta, num_vars=3)
        per_degree[delta] = basis.monomials
        if basis.dimension == e:
            if stable_from is None:
                stable_from = delta
        elif stable_from is not None:
            raise ValueError(
                f"Hilbert value left {e} at degree {delta}: the ideal "
                "does not define the expected curve section"
            )
        if stable_from is not None:
            count = sum(len(per_degree[x]) for x in range(stable_from, delta + 1))
            if count >= k:
                break
        delta += 1
        if delta > MAX_SELECTION_DEGREE:
            raise ValueError("wrong dimension: Hilbert function never "
                             f"stabilizes at {e}")
    D = delta
    chosen = []
    for dd in range(stable_from, D + 1):
        for m in per_degree[dd]:
            if len(chosen) < k:
                chosen.append((dd, m))
    if len(chosen) != k:
        raise CertificateError(f"selected {len(chosen)} monomials, need {k}")
    # the basis exponents are in (X1, X2, X3); X0 lifts them to degree D
    monomials = [(D - dd,) + m for dd, m in chosen]
    _confirm_independent(J, monomials, D)
    return MonomialSelection(k=k, monomials=monomials,
                             degree_sum=sum(dd for dd, _ in chosen))


def _confirm_independent(J, monomials, D):
    """Exact rank check: stacking the degree-D ideal piece with the chosen
    monomials (exponent tuples) must add exactly one rank per monomial."""
    base_rank = graded_piece_basis(J, D).ideal_rank
    extra = [IntPoly(len(m), {m: 1}) for m in monomials]
    full_rank = graded_piece_basis([*J, *extra], D).ideal_rank
    if full_rank != base_rank + len(monomials):
        raise CertificateError("selected monomials are dependent mod the ideal")


# ---------------------------------------------------------------------
# determinants


@dataclass
class DetCertificate:
    points: list
    det: int
    beta_required: int     # k(k-1)/2 for k points


def build_determinant(points, sel: MonomialSelection) -> DetCertificate:
    """Exact determinant of affine monomial values at k points; the
    one-class case of build_determinants, raising its error."""
    [cert] = build_determinants([points], sel)
    if isinstance(cert, Exception):
        raise cert
    return cert


def build_determinants(classes, sel: MonomialSelection) -> list:
    """For each class of k points, the exact determinant of the selected
    monomials' values there, or the error saying why there is none.

    Every point has first coordinate 1, so each selected monomial takes
    the value of its affine (dehomogenized) monomial there.  Checks the
    size bound |det| <= k! * B^(degree sum) whenever det != 0, and returns
    the CertificateError when it fails; a class of the wrong size or with
    a point off x0 = 1 gets a ValueError.  The value matrices of all
    classes come from one _value_matrices call.
    """
    classes = [[tuple(pt) for pt in points] for points in classes]
    out = [None] * len(classes)
    good = []
    for i, points in enumerate(classes):
        if len(points) != sel.k:
            out[i] = ValueError(f"need exactly k = {sel.k} points")
        elif any(pt[0] != 1 for pt in points):
            out[i] = ValueError("points must be affine, first coordinate 1")
        else:
            good.append(i)
    D = sum(sel.monomials[0]) if sel.monomials else 0
    matrices = _value_matrices(sel.monomials, [classes[i] for i in good], D)
    k_factorial = factorial(sel.k)
    for i, matrix in zip(good, matrices):
        points = classes[i]
        det = det_bareiss(matrix.tolist())
        B = max((max(map(abs, pt)) for pt in points), default=1)
        bound = k_factorial * max(B, 2) ** sel.degree_sum
        if det != 0 and abs(det) > bound:
            out[i] = CertificateError("determinant exceeded its size bound")
        else:
            out[i] = DetCertificate(points=points, det=det,
                                    beta_required=sel.k * (sel.k - 1) // 2)
    return out


@dataclass
class DivisibilityVerdict:
    applicable: bool       # omega is a nonsingular point of the reduction
    passed: bool


def divisibility_check(cert: DetCertificate, q: int, curve_gens, omega
                       ) -> DivisibilityVerdict:
    """Check q^(k(k-1)/2) | det for points sharing a nonsingular reduction.

    The exponent is the nonsingular-stalk case of the local divisibility
    bound (multiplicities 0, 1, ..., k-1).  When omega is singular on the
    reduced curve the check is not applicable and passes vacuously (the
    alpha regime).
    """
    omega = tuple(x % q for x in omega)
    if omega[0] != 1:
        raise ValueError("omega must be an affine residue point")
    for pt in cert.points:
        if any((a - b) % q for a, b in zip(pt, omega)):
            raise ValueError("certificate points do not reduce to omega")
    gens = list(curve_gens)
    on_curve = all(g.evaluate(omega) % q == 0 for g in gens)
    if not on_curve or _jacobian_rank(gens, omega, q) != 2:
        return DivisibilityVerdict(applicable=False, passed=True)
    passed = cert.det == 0 or valuation(cert.det, q) >= cert.beta_required
    return DivisibilityVerdict(applicable=True, passed=passed)


def _jacobian_rank(gens, omega, q: int) -> int:
    """Rank mod q of the Jacobian of gens at omega.  The entries stay
    Python ints until echelon_mod has rejected a modulus of 2^31 or more."""
    jac = [[g.partial(j).evaluate(omega) % q for j in range(4)]
           for g in gens]
    A = np.array(jac, dtype=object).reshape(1, len(gens), 4)
    return int(echelon_mod(A, q)[0][0])


# ---------------------------------------------------------------------
# auxiliary forms


@dataclass
class AuxiliaryForm:
    form: IntPoly
    degree: int
    rank: int


class RankFull:
    """The value matrix has full column rank: no form of the degree tried
    vanishes on the class."""


def extract_auxiliary_form(classes, D: int, F: IntPoly):
    """One outcome per class, a list of points, from the exact nullspace of
    the class's matrix of degree-D monomial values: an AuxiliaryForm, a
    primitive integer form of degree D vanishing at every class point and
    not divisible by F; RankFull when the matrix has full column rank (the
    basis is too small); or, when every nullspace vector is divisible by F,
    the ValueError saying so.

    All nullspaces come from one nullspaces_int call, and each distinct
    basis is turned into an outcome once.  A form is a nonzero multiple of
    its null vector, so it vanishes at a point exactly when the point's row
    is orthogonal to the vector: each distinct form is checked once, by
    annihilates, against the matrices of every class that shares it.
    """
    classes = list(classes)
    if not all(classes):
        raise ValueError("empty point class")
    basis = monomials_of_degree(4, D)
    matrices = _value_matrices(basis, classes, D)
    index = {}      # nullspace basis -> its position in distinct
    distinct = []   # (outcome, null vector of the form or None)
    which = []
    for vectors in nullspaces_int(matrices, len(basis)):
        key = tuple(vectors)
        if key not in index:
            index[key] = len(distinct)
            distinct.append(_outcome(vectors, basis, D, F))
        which.append(index[key])
    shared = [[] for _ in distinct]
    for matrix, k in zip(matrices, which):
        shared[k].append(matrix)
    for (_, vec), blocks in zip(distinct, shared):
        if vec is not None and not all(annihilates(blocks, [vec])):
            raise CertificateError("auxiliary form misses a class point")
    return [distinct[k][0] for k in which]


def _value_matrices(basis, classes, D: int):
    """Each class's matrix of values of the degree-D monomials basis, one
    row per point: the row blocks of one array of every class's rows.  The
    array is int64 when max|x|^D < 2^63 over every coordinate x, which
    bounds every value, and a numpy object array of exact Python ints
    otherwise."""
    rows = [pt for points in classes for pt in points]
    try:
        pts = np.array(rows, dtype=np.int64)
        fits = max(int(pts.max(initial=0)), -int(pts.min(initial=0))) ** D \
            < 2**63
    except OverflowError:
        fits = False
    if not fits:
        pts = np.array(rows, dtype=object)
    # built a column at a time from each coordinate's powers, so that no
    # temporary is as large as values; each partial product of a
    # monomial's powers is at most max|x|^D
    powers = [[None, x] for x in pts.T]
    for pw in powers:
        for _ in range(2, D + 1):
            pw.append(pw[-1] * pw[1])
    values = np.ones((len(rows), len(basis)), dtype=pts.dtype)
    for column, e in zip(values.T, basis):
        for pw, k in zip(powers, e):
            if k:
                column *= pw[k]
    ends = np.cumsum([len(points) for points in classes], dtype=np.intp)
    return np.split(values, ends)[:-1]


def _outcome(vectors, basis, D: int, F: IntPoly):
    """(outcome, null vector of the form or None) for one nullspace basis."""
    if not vectors:
        return RankFull(), None
    for vec in vectors:
        # vec is primitive with first nonzero entry positive and basis runs
        # grlex-descending, so G is primitive with positive leading term
        G = IntPoly(4, dict(zip(basis, vec)))
        if not poly_divides(F, G):
            return AuxiliaryForm(form=G, degree=D,
                                 rank=len(basis) - len(vectors)), vec
    return ValueError("class lies in a smaller locus than basis captures; "
                      "increase D"), None


def curve_section_degree(F: IntPoly, G: IntPoly) -> int:
    """Degree ab of the curve F = G = 0 at x0 = 0, where F0 and G0, of
    degrees a and b, are F and G there: the Hilbert function h of
    k[x1, x2, x3]/(F0, G0) read at the one degree a + b - 1.

    Coprime F0 and G0 are a complete intersection: h rises strictly up to
    a + b - 2 and equals ab from there on.  With a common factor of degree
    c >= 1, h(a + b - 1) = ab + c(c + 1)/2, never ab."""
    F0, G0 = F.substitute_value(0, 0), G.substitute_value(0, 0)
    if not (F0.is_zero() or G0.is_zero()):
        a, b = F0.degree, G0.degree
        if graded_piece_basis([F0, G0], a + b - 1).dimension == a * b:
            return a * b
    raise ValueError("Hilbert function did not stabilize; not a curve ideal")


def theta_exponent(d: int, n: int) -> int:
    """The coefficient-growth exponent d * C(d + n, n)."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    return d * comb(d + n, n)


def bezout_bound(e: int, deg_g: int) -> int:
    """Maximal intersection count of a degree-e curve with a degree-deg_g
    form sharing no component."""
    if e < 1 or deg_g < 1:
        raise ValueError("need positive degrees")
    return e * deg_g
