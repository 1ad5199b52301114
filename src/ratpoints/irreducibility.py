"""Sound certificates for absolute irreducibility over the rationals.

``Yes`` is returned only with a certificate valid over the algebraic
closure: linear forms, quadratics of Gram rank >= 3, a full-rank Ruppert
differential system for squarefree bivariate inputs, or a degree-preserving
bivariate restriction that is itself certified (a factorization of the
input would restrict to one of the same degrees).  ``No`` is returned only
with a witness: a monomial power, an effectively univariate polynomial of
degree >= 2, a quadratic of Gram rank <= 2, a nontrivial gcd with a partial
derivative, or a nonzero Ruppert solution.  Everything else is ``Unknown``.
"""

from __future__ import annotations

import random
from enum import Enum

from .linalg import rank_dense
from .poly import IntPoly, gram_matrix, homogenize, substitute_linear
from . import uniroots


class Irreducibility(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def is_absolutely_irreducible(F: IntPoly, max_tries: int = 12,
                              seed: int = 1) -> Irreducibility:
    """Three-valued absolute-irreducibility check; Unknown is always sound."""
    if F.is_zero() or F.degree < 1:
        raise ValueError("need a nonzero polynomial of degree >= 1")
    F = F.primitive_part()
    if F.degree == 1:
        return Irreducibility.YES
    if len(F.terms) == 1:
        return Irreducibility.NO  # power of a monomial splits into linear factors
    used = F.variables_used()
    if len(used) == 1:
        return Irreducibility.NO  # univariate of degree >= 2 splits over the closure
    if F.degree == 2:
        return _quadratic_verdict(F)
    if len(used) == 2:
        return bivariate_absolutely_irreducible(_project_to(F, used))

    rng = random.Random(seed)
    d = F.degree
    for _ in range(max_tries):
        rows = [
            (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
            for _ in range(F.num_vars)
        ]
        # x_i = a_i*s + b_i*u + c_i, a polynomial in (s, u)
        images = [IntPoly(2, {(1, 0): a, (0, 1): b, (0, 0): c})
                  for a, b, c in rows]
        restricted = substitute_linear(F, images)
        if restricted.degree != d or len(restricted.variables_used()) < 2:
            continue
        if bivariate_absolutely_irreducible(restricted) is Irreducibility.YES:
            # a factorization of F would restrict, degrees intact, to a
            # factorization of the restriction
            return Irreducibility.YES
    return Irreducibility.UNKNOWN


def _project_to(F: IntPoly, used):
    out = {}
    for e, c in F.terms.items():
        out[tuple(e[i] for i in used)] = c
    return IntPoly(len(used), out)


def _quadratic_verdict(F: IntPoly) -> Irreducibility:
    """Gram-rank criterion: a quadric is absolutely irreducible iff the
    symmetric matrix of its homogenization has rank at least 3."""
    G = F if F.is_homogeneous() else homogenize(F, 2)
    rank = rank_dense(gram_matrix(G))
    return Irreducibility.YES if rank >= 3 else Irreducibility.NO


# -- bivariate machinery -------------------------------------------------


def _x_coeffs(f: IntPoly):
    """View a 2-variable polynomial as x-coefficient list of y-polynomials."""
    m = max((e[0] for e in f.terms), default=0)
    n = max((e[1] for e in f.terms), default=0)
    out = [[0] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in f.terms.items():
        out[i][j] = c
    return [uniroots.trim(c) for c in out]


def _swap_vars(f: IntPoly) -> IntPoly:
    return IntPoly(2, {(e[1], e[0]): c for e, c in f.terms.items()})


def _biv_gcd_with_dx_nontrivial(f: IntPoly) -> bool:
    """True when gcd(f, df/dx) is nonconstant, a witness of reducibility."""
    fx = f.partial(0)
    if fx.is_zero():
        return f.degree >= 1  # f free of x but marked bivariate upstream
    g = _biv_gcd(f, fx)
    return g.degree >= 1


def _biv_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd in Z[x, y] by a primitive PRS on the x-coefficient view."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    A, B = _x_coeffs(f), _x_coeffs(g)
    if len(A) < len(B):
        A, B = B, A
    cont_a = _content_y(A)
    cont_b = _content_y(B)
    c = uniroots.int_gcd_poly(cont_a, cont_b)
    A = _divide_content(A, cont_a)
    B = _divide_content(B, cont_b)
    while any(B):
        if len(B) == 1:
            # B is a y-polynomial; it is y-primitive, so the x-part gcd is 1
            B = [[1]] if uniroots.trim(B[0]) else B
            A = [[1]]
            break
        R = _pseudo_rem(A, B)
        A, B = B, _divide_content(R, _content_y(R)) if any(R) else [[] for _ in R]
        if not any(B):
            break
    gcd_pp = A
    result = _from_x_coeffs([uniroots.poly_mul(c, col) for col in gcd_pp])
    return result


def _content_y(A):
    cont = []
    for col in A:
        cont = uniroots.int_gcd_poly(cont, col)
        if cont == [1]:
            break
    return cont if cont else [1]


def _divide_content(A, cont):
    if cont == [1] or not any(A):
        return [uniroots.trim(c) for c in A]
    return [uniroots.divexact_poly(col, cont) for col in A]


def _pseudo_rem(A, B):
    """Pseudo-remainder of A by B in (Z[y])[x]; both nonzero, deg A >= deg B."""
    A = [list(c) for c in A]
    B = [list(c) for c in B]
    da, db = len(A) - 1, len(B) - 1
    lead_b = B[-1]
    for _ in range(da - db + 1):
        if len(A) - 1 < db or not any(A):
            break
        lead_a = A[-1]
        if not uniroots.trim(lead_a):
            A.pop()
            continue
        shift = len(A) - 1 - db
        A = [uniroots.poly_mul(c, lead_b) for c in A]
        for i, bc in enumerate(B):
            prod = uniroots.poly_mul(bc, lead_a)
            col = [x - y for x, y in
                   _zip_pad(A[i + shift], prod)]
            A[i + shift] = col
        A[-1] = []
        while A and not uniroots.trim(A[-1]):
            A.pop()
    return A if A else [[]]


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return zip(a, b)


def _from_x_coeffs(A) -> IntPoly:
    out = {}
    for i, col in enumerate(A):
        for j, c in enumerate(col):
            if c:
                out[(i, j)] = c
    return IntPoly(2, out)


def bivariate_absolutely_irreducible(f: IntPoly) -> Irreducibility:
    """Decide absolute irreducibility of a genuinely bivariate polynomial.

    Linear-in-one-variable inputs reduce to a content computation; the
    general case checks squarefreeness through derivative gcds and then
    runs the Ruppert differential criterion, which is an if-and-only-if
    for squarefree inputs in characteristic zero.
    """
    if f.num_vars != 2:
        raise ValueError("expected a 2-variable polynomial")
    f = f.primitive_part()
    if f.degree == 1:
        return Irreducibility.YES
    if len(f.terms) == 1:
        return Irreducibility.NO
    if f.degree == 2:
        return _quadratic_verdict(f)
    m = max(e[0] for e in f.terms)
    n = max(e[1] for e in f.terms)
    if m == 0 or n == 0:
        return Irreducibility.NO  # univariate of degree >= 2
    if m == 1 or n == 1:
        g = f if n == 1 else _swap_vars(f)
        cols = _x_coeffs(_swap_vars(g))  # coefficients of y^0, y^1 as x-polys
        content = uniroots.int_gcd_poly(cols[0] if len(cols) > 0 else [],
                             cols[1] if len(cols) > 1 else [])
        return (Irreducibility.YES if uniroots.degree(content) < 1
                else Irreducibility.NO)
    if _biv_gcd_with_dx_nontrivial(f) or _biv_gcd_with_dx_nontrivial(_swap_vars(f)):
        return Irreducibility.NO
    return _ruppert_verdict(f, m, n)


def _ruppert_verdict(f: IntPoly, m: int, n: int) -> Irreducibility:
    """Ruppert's criterion: f squarefree is absolutely irreducible iff
    g_y*f - g*f_y = h_x*f - h*f_x has no nonzero solution with
    deg g <= (m-1, n) and deg h <= (m, n-2)."""
    fx = f.partial(0)
    fy = f.partial(1)
    rows = []
    for i in range(m):
        for j in range(n + 1):
            mono = IntPoly(2, {(i, j): 1})
            dmono = IntPoly(2, {(i, j - 1): j}) if j else IntPoly.zero(2)
            rows.append(dmono * f - mono * fy)
    for i in range(m + 1):
        for j in range(n - 1):
            mono = IntPoly(2, {(i, j): 1})
            dmono = IntPoly(2, {(i - 1, j): i}) if i else IntPoly.zero(2)
            rows.append(mono * fx - dmono * f)
    cols = sorted({e for r in rows for e in r.terms})
    col_index = {e: k for k, e in enumerate(cols)}
    matrix = []
    for r in rows:
        vec = [0] * len(cols)
        for e, c in r.terms.items():
            vec[col_index[e]] = c
        matrix.append(vec)
    rank = rank_dense(matrix)
    return Irreducibility.YES if rank == len(rows) else Irreducibility.NO
