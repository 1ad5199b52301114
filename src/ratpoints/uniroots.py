"""Exact root machinery for univariate integer polynomials.

Coefficient lists run low degree to high.  Real roots are isolated with
Sturm chains and refined by bisection; every sign decision is an exact
integer comparison.  Chain members are rescaled to primitive integer
coefficients (a positive rescaling, which preserves sign variations), and
signs at a rational n/d are read off the homogenized integer value
sum a_i n^i d^(deg-i), so no Fraction arithmetic survives into the hot
evaluation loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .exact import gcd_all


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


def _primitive(coeffs):
    """Divide by the content; sign of the leading coefficient is kept."""
    c = trim(coeffs)
    if not c:
        return []
    g = gcd_all(c)
    return [x // g for x in c]


def _pseudo_rem(a, b):
    """A nonzero multiple of rem(a, b) over Z (content-reduced steps);
    only used where the overall sign is irrelevant."""
    a = trim(a)
    b = trim(b)
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        la = a[-1]
        a = [lb * x for x in a]
        for i, bc in enumerate(b):
            a[i + shift] -= la * bc
        a = trim(a)
        if a:
            g = gcd_all(a)
            if g > 1:
                a = [x // g for x in a]
    return a


def int_gcd_poly(a, b):
    """Primitive gcd of two integer polynomials by a primitive PRS."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def divexact_poly(a, b):
    """Exact quotient a / b in Z[t]; ValueError when b does not divide a."""
    a, b = trim(a), trim(b)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        f, r = divmod(a[-1], b[-1])
        if r:
            break
        q[shift] = f
        for i, bc in enumerate(b):
            a[i + shift] -= f * bc
        a = trim(a)
    if a:
        raise ValueError("inexact polynomial division")
    return q


def squarefree_part(coeffs):
    """coeffs / gcd(coeffs, coeffs'), primitive integer coefficients."""
    c = _primitive(coeffs)
    if len(c) <= 1:
        return c
    g = int_gcd_poly(c, derivative(c))
    if len(g) <= 1:
        return c
    return _primitive(divexact_poly(c, g))


def _pseudo_rem_positive(a, b):
    """A positive multiple of rem(a, b): each reduction step scales by the
    square of b's leading coefficient and then divides out the (positive)
    content, so no sign flips accumulate and no coefficients explode."""
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
        a = trim(a)
        if a:
            g = gcd_all(a)
            if g > 1:
                a = [x // g for x in a]
    return a


def sturm_chain(coeffs):
    """Sturm chain with every member primitive integer (positive scaling
    of the classical chain, which leaves sign variations unchanged)."""
    chain = [_primitive(coeffs)]
    d = _primitive(derivative(chain[0]))
    if d:
        chain.append(d)
        while True:
            r = _pseudo_rem_positive(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_primitive([-x for x in r]))
    return chain


def _sign_at(coeffs, num: int, den: int) -> int:
    """Sign of p(num/den) for den >= 1, via the homogenized integer value."""
    d = len(coeffs) - 1
    acc = 0
    dp = 1
    for i in range(d, -1, -1):
        acc = acc * num + coeffs[i] * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def sign_variations(chain, x) -> int:
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    signs = []
    for p in chain:
        s = _sign_at(p, num, den)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(coeffs) -> int:
    """Integer M with every real root strictly inside (-M, M)."""
    c = trim(coeffs)
    lead = abs(c[-1])
    m = max(abs(x) for x in c[:-1]) if len(c) > 1 else 0
    return 1 + (m + lead - 1) // lead + 1


def isolate_real_roots(coeffs):
    """Isolating records for the real roots of a nonzero polynomial.

    Returns a sorted list of ("exact", r) with r a Fraction, or
    ("bracket", lo, hi) with exactly one simple root strictly inside
    (lo, hi) and a nonzero value at the upper endpoint.
    """
    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return []
    return _isolate(sf, sturm_chain(sf))


def _isolate(sf, chain):
    """isolate_real_roots for a nonconstant squarefree sf and its chain."""
    M = root_bound(sf)
    records = []

    def value_sign(x: Fraction):
        return _sign_at(sf, x.numerator, x.denominator)

    def recurse(a, b, va, vb):
        n = va - vb
        if n == 0:
            return
        if value_sign(b) == 0:
            if n == 1:
                records.append(("exact", Fraction(b)))
                return
        elif n == 1:
            records.append(("bracket", Fraction(a), Fraction(b)))
            return
        mid = (Fraction(a) + Fraction(b)) / 2
        vm = sign_variations(chain, mid)
        recurse(a, mid, va, vm)
        recurse(mid, b, vm, vb)

    recurse(Fraction(-M), Fraction(M),
            sign_variations(chain, -M), sign_variations(chain, M))
    records.sort(key=lambda r: r[1])
    return records


def _refine_bracket(chain, lo, hi, v_lo, v_hi):
    """One Sturm-certified bisection step; the root stays in (lo, hi]."""
    mid = (lo + hi) / 2
    vm = sign_variations(chain, mid)
    if v_lo - vm == 1:
        return lo, mid, v_lo, vm
    return mid, hi, vm, v_hi


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _root_integer_neighbourhood(sf, chain, rec):
    """(floor_strict, ceil_strict, integer_value) around one isolated root.

    floor_strict is the largest integer strictly below the root and
    ceil_strict the smallest strictly above; integer_value is the root
    itself when it is an integer, else None.
    """
    if rec[0] == "exact":
        r = rec[1]
        if r.denominator == 1:
            k = int(r)
            return k - 1, k + 1, k
        return _floor(r), _floor(r) + 1, None
    lo, hi = rec[1], rec[2]
    v_lo = sign_variations(chain, lo)
    v_hi = sign_variations(chain, hi)
    # shrink below unit width: then (lo, hi] holds at most one integer
    while hi - lo >= 1:
        lo, hi, v_lo, v_hi = _refine_bracket(chain, lo, hi, v_lo, v_hi)
    k = _floor(hi)
    if lo < k <= hi and evaluate(sf, k) == 0:
        return k - 1, k + 1, k
    # the root is not an integer, so this terminates
    while _floor(lo) != _floor(hi):
        lo, hi, v_lo, v_hi = _refine_bracket(chain, lo, hi, v_lo, v_hi)
    k = _floor(lo)
    return k, k + 1, None


def integer_roots(coeffs):
    """All integer roots of a nonzero integer polynomial, sorted."""
    c = trim(coeffs)
    if not c:
        raise ValueError("zero polynomial")
    roots = set()
    # factor out t^v
    v = 0
    while c[v] == 0:
        v += 1
    if v > 0:
        roots.add(0)
        c = c[v:]
    if len(c) > 1:
        d = len(c) - 1
        if d == 1:
            if c[0] % c[1] == 0:
                roots.add(-c[0] // c[1])
        elif d == 2:
            roots.update(quadratic_integer_roots(c[2], c[1], c[0]))
        else:
            sf = squarefree_part(c)
            chain = sturm_chain(sf)
            for rec in _isolate(sf, chain):
                k = _root_integer_neighbourhood(sf, chain, rec)[2]
                if k is not None and evaluate(c, k) == 0:
                    roots.add(k)
    return sorted(roots)


def quadratic_integer_roots(a, b, c):
    """Integer roots of a*t^2 + b*t + c with a != 0."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    roots = []
    for sign in (s, -s) if s else (0,):
        num = -b + sign
        if num % (2 * a) == 0:
            roots.append(num // (2 * a))
    return sorted(set(roots))


def integer_roots_in_box(coeffs, B):
    """Integer roots r with |r| <= B; scans when that is cheaper."""
    c = trim(coeffs)
    if not c:
        raise ValueError("zero polynomial")
    d = len(c) - 1
    if d > 2 and 2 * B + 1 <= 512:
        return [t for t in range(-B, B + 1) if evaluate(c, t) == 0]
    return [r for r in integer_roots(c) if abs(r) <= B]


def _sample_between(chain, rec_a, rec_b):
    """A rational point strictly between the roots of consecutive records."""
    hi_a = rec_a[1] if rec_a[0] == "exact" else rec_a[2]
    lo_b = rec_b[1]
    if hi_a < lo_b:
        return (hi_a + lo_b) / 2
    if rec_a[0] == "bracket":
        # bracket upper endpoints are never roots, the shared point works
        return hi_a
    # exact root r = hi_a = lo_b: bisect towards r until no root of the
    # squarefree part lies in (r, q], certified by Sturm variations
    r = hi_a
    q = rec_b[2] if rec_b[0] == "bracket" else rec_b[1]
    v_r = sign_variations(chain, r)
    while True:
        q = (r + q) / 2
        if v_r - sign_variations(chain, q) == 0:
            return q


def count_abs_le(coeffs, T) -> int:
    """Exact #{t in Z : |p(t)| <= T} for a nonconstant integer polynomial."""
    c = trim(coeffs)
    if len(c) <= 1:
        raise ValueError("polynomial must be nonconstant")
    if T < 0:
        return 0
    # boundary points are the real roots of (p - T)(p + T) = p^2 - T^2
    minus = list(c)
    minus[0] -= T
    plus = list(c)
    plus[0] += T
    g = poly_mul(minus, plus)
    sf = squarefree_part(g)
    chain = sturm_chain(sf)
    records = _isolate(sf, chain)

    def inside(x) -> bool:
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        deg = len(c) - 1
        acc = 0
        dp = 1
        for i in range(deg, -1, -1):
            acc = acc * n + c[i] * dp
            dp *= d
        return abs(acc) <= T * d**deg

    if not records:
        if inside(0):
            raise AssertionError("a nonconstant polynomial escapes every bound")
        return 0

    neigh = [_root_integer_neighbourhood(sf, chain, rec) for rec in records]
    # every boundary root satisfies |p| = T, so integer roots count
    count = sum(1 for n in neigh if n[2] is not None)

    samples = [Fraction(records[0][1]) - 1]
    for a, b in zip(records, records[1:]):
        samples.append(_sample_between(chain, a, b))
    last = records[-1][1] if records[-1][0] == "exact" else records[-1][2]
    samples.append(Fraction(last) + 1)

    if inside(samples[0]) or inside(samples[-1]):
        raise AssertionError("p stays within T past its outermost boundary roots")
    for j in range(1, len(records)):
        if inside(samples[j]):
            lo = neigh[j - 1][1]  # smallest integer strictly above left root
            hi = neigh[j][0]      # largest integer strictly below right root
            if hi >= lo:
                count += hi - lo + 1
    return count


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
