"""Exact root machinery for univariate integer polynomials.

Coefficient lists run low degree to high.  Every question asked here is
which integers t satisfy |p(t)| <= T (T = 0 for the integer roots), and
`abs_le_intervals` answers it once, as integer intervals: in closed form
for degrees 1 and 2, and above that by Sturm's theorem, which counts the
roots in an integer interval (a, b], and bisection at integer midpoints,
which cuts the interval of Fujiwara's root bound into pieces that either
hold no root or hold one integer.  Chain members are rescaled to primitive
integer coefficients (a positive rescaling, which preserves sign
variations), so every sign decision is an exact integer comparison.
The one chain run per polynomial q also finds its multiple roots: the last
member is gcd(q, q') up to a constant (Collins and Loos, "Real zeros of
polynomials", 1982), so the squarefree chain is read off that member.
"""

from __future__ import annotations

from math import isqrt

from .exact import CertificateError, divide_content


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(coeffs) -> int:
    """Degree of the trimmed polynomial; -1 for the zero polynomial."""
    c = trim(coeffs)
    return len(c) - 1


def evaluate(coeffs, x):
    acc = 0
    for a in reversed(list(coeffs)):
        acc = acc * x + a
    return acc


def derivative(coeffs):
    return [i * a for i, a in enumerate(coeffs)][1:]


def divexact_poly(a, b):
    """The quotient a / b in Z[t]; CertificateError if b does not divide a."""
    a, b, q = trim(a), trim(b), []
    while len(a) >= len(b):
        f, r = divmod(a[-1], b[-1])
        if r:
            break
        q.append(f)
        a = [x - f * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)][:-1]
    if any(a):
        raise CertificateError("inexact polynomial division")
    return q[::-1]


def _pseudo_rem_positive(a, b):
    """A positive multiple of rem(a, b), primitive when a is: each
    reduction step scales by the square of b's leading coefficient and then
    divides out the (positive) content, so no sign flips accumulate and no
    coefficients explode."""
    a = trim(a)
    b = trim(b)
    db = len(b) - 1
    lb = b[-1]
    lb2 = lb * lb
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [lb2 * x for x in a]
        for i, bc in enumerate(b):
            a[i + shift] -= lb * la * bc
        a = divide_content(trim(a))
    return a


def sturm_chain(coeffs):
    """Sturm chain with every member primitive integer (positive scaling
    of the classical chain, which leaves sign variations unchanged); the
    last member is gcd(chain[0], chain[0]') up to sign."""
    chain = [divide_content(trim(coeffs))]
    d = divide_content(derivative(chain[0]))
    if d:
        chain.append(d)
        while True:
            r = _pseudo_rem_positive(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
    return chain


def sign_variations(chain, x: int) -> int:
    signs = [v > 0 for v in (evaluate(p, x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ceil_root(n: int, k: int) -> int:
    """The least r >= 0 with r**k >= n, for n >= 0, in integers."""
    if n <= 1:
        return n
    r = 1 << -(-n.bit_length() // k)  # r**k > n
    while True:  # Newton's step from above settles on the floor root
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == n else r + 1


def root_bound(coeffs) -> int:
    """Integer M with every real root strictly inside (-M, M).

    Fujiwara's bound: every complex root has modulus at most
    2 * max_i |a_{d-i} / a_d|^(1/i), which the exact integer ceilings here
    only raise, and M exceeds it by one.
    """
    c = trim(coeffs)
    lead = abs(c[-1])
    d = len(c) - 1
    return 2 * max((_ceil_root(-(-abs(c[d - i]) // lead), i)
                    for i in range(1, d + 1)), default=0) + 1


def _integer_pieces(chain, M):
    """Cut (-M, M] into integer pieces (a, b], in increasing order.

    Each piece holds no root of chain[0] or is a single integer b.  For a
    squarefree chain[0], V(a) - V(b) counts its distinct roots in (a, b],
    also when a or b is a root, so a piece with V(a) == V(b) is root-free.
    The stack replaces recursion: a huge M splits about log2(M) deep.
    """
    pieces = []
    stack = [(-M, M, sign_variations(chain, -M), sign_variations(chain, M))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb or b - a == 1:
            pieces.append((a, b))
            continue
        mid = (a + b) // 2
        vm = sign_variations(chain, mid)
        stack.append((mid, b, vm, vb))
        stack.append((a, mid, va, vm))
    return pieces


def abs_le_intervals(coeffs, T):
    """The integers t with |p(t)| <= T, for a nonconstant integer polynomial
    p, as sorted intervals (lo, hi) with lo <= hi and at least one integer
    between any two; [] when T < 0.

    Degrees 1 and 2 are solved in closed form.  Above that, the integer
    pieces of the real roots of q = (p - T)(p + T), or of q = p when T = 0,
    each hold |p| <= T throughout or nowhere.  They are cut by the chain of
    q's squarefree part: q's own chain when its last member is constant,
    else the chain of q divided by that member, a second chain.
    """
    c = trim(coeffs)
    if len(c) <= 1:
        raise ValueError("polynomial must be nonconstant")
    if T < 0:
        return []
    if c[-1] < 0:
        c = [-x for x in c]  # |p| = |-p|
    if len(c) == 2:
        lo, hi = -((T + c[0]) // c[1]), (T - c[0]) // c[1]
        return [(lo, hi)] if lo <= hi else []
    if len(c) == 3:
        below, hole = _le_interval(c, T), _le_interval(c, -T - 1)  # p < -T
        if hole is None:
            return [] if below is None else [below]
        return [(lo, hi) for lo, hi in ((below[0], hole[0] - 1),
                                        (hole[1] + 1, below[1])) if lo <= hi]
    chain = sturm_chain(poly_mul([c[0] - T] + c[1:], [c[0] + T] + c[1:])
                        if T else c)
    if len(chain[-1]) > 1:  # a multiple root: divide out gcd(q, q')
        chain = sturm_chain(divexact_poly(chain[0], chain[-1]))
    M = root_bound(chain[0])
    # p^2 - T^2 keeps one sign on t <= -M and on t >= M, which the pieces
    # leave out; |p| <= T there would hold for infinitely many t
    if abs(evaluate(c, -M)) <= T or abs(evaluate(c, M)) <= T:
        raise CertificateError("p stays within T outside the root bound of p^2 - T^2")
    # p^2 - T^2 keeps one sign on a root-free piece, and a unit piece is
    # its one integer b, so each piece is decided at b
    out = []
    for a, b in _integer_pieces(chain, M):
        if abs(evaluate(c, b)) <= T:
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a + 1, b))
    return out


def _le_interval(p, K):
    """The integer interval {y : p(y) <= K} for a quadratic p with a positive
    leading coefficient, or None when it is empty."""
    c0, c1, c2 = p
    disc = c1 * c1 - 4 * c2 * (c0 - K)
    if disc < 0:
        return None
    # for integer y: p(y) <= K iff (2*c2*y + c1)^2 <= disc iff
    # |2*c2*y + c1| <= isqrt(disc)
    s = isqrt(disc)
    lo, hi = -((c1 + s) // (2 * c2)), (s - c1) // (2 * c2)
    return (lo, hi) if lo <= hi else None


def integer_roots(coeffs):
    """All integer roots of a nonconstant integer polynomial, sorted."""
    return [t for lo, hi in abs_le_intervals(coeffs, 0)
            for t in range(lo, hi + 1)]


def integer_roots_in_box(coeffs, B):
    """Integer roots r with |r| <= B; scans when that is cheaper.  Per call
    on big-int residuals of degrees 3, 4, 6 (2-core Xeon), the scan took 44-68
    us against 74-157 for Sturm at B = 64, 95-147 against 95-184 at 128,
    and 179-295 against 89-201 at 255: the cut-off sits at 2B + 1 = 256."""
    c = trim(coeffs)
    if len(c) > 3 and 2 * B + 1 <= 256:
        return [t for t in range(-B, B + 1) if evaluate(c, t) == 0]
    return [r for r in integer_roots(c) if abs(r) <= B]


def count_abs_le(coeffs, T) -> int:
    """Exact #{t in Z : |p(t)| <= T} for a nonconstant integer polynomial."""
    return sum(hi - lo + 1 for lo, hi in abs_le_intervals(coeffs, T))


def poly_mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
