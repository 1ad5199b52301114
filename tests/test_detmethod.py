import hashlib
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from oracles import monomial_rows

import ratpoints
from ratpoints import cli, detmethod, linalg
from ratpoints.detmethod import (AuxiliaryForm, DetCertificate, RankFull,
                                 bezout_bound, build_determinant,
                                 curve_section_degree, divisibility_check,
                                 extract_auxiliary_form, partition_by_residue,
                                 prime_window, select_monomials,
                                 theta_exponent)
from ratpoints.enumeration import count_affine_surface
from ratpoints.geometry import Classification
from ratpoints.exact import CertificateError, is_prime, valuation
from ratpoints.linalg import det_bareiss, nullspace_int
from ratpoints.poly import (IntPoly, format_poly, graded_piece_basis,
                            grlex_key, monomials_of_degree, parse_poly,
                            poly_divides)

X = [IntPoly.variable(4, i) for i in range(4)]
LINE = [X[2], X[3]]
CONIC = [X[3], X[0] * X[2] - X[1] ** 2]
TWISTED = [X[0] * X[2] - X[1] ** 2, X[0] * X[3] - X[1] * X[2],
           X[1] * X[3] - X[2] ** 2]
FERMAT = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")


def test_prime_window_examples():
    w = prime_window(10**4, 4, 0.0, 3)
    assert w.window == (100.0, 200.0)
    assert w.primes == [101, 103, 107]

    tiny = prime_window(2, 3, 0.0, 4)
    assert len(tiny.primes) == 4

    w9 = prime_window(512, 9, 0.0, 1)
    assert w9.primes == [11]  # window starts at 512^(1/3) = 8

    # a window of 1.4e7 numbers: only the first three primes are tested
    far = prime_window(100, 3, 3.0, 3)
    assert far.primes == [14279093, 14279119, 14279123]

    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one prime"):
            prime_window(100, 3, 0.05, count)


def _prime_window_scan(B, d, epsilon, min_count):
    """The primes of [low, C*low], C doubled from 2 until min_count of
    them appear: a scan of the whole window."""
    low = max(float(B) ** (1.0 / d**0.5 + epsilon), 2.0)
    C = 2.0
    while True:
        primes = [p for p in range(math.ceil(low), int(C * low) + 2)
                  if is_prime(p)]
        if len(primes) >= min_count:
            return primes, (low, C * low)
        C *= 2.0


def test_prime_window_matches_window_scan():
    rng = random.Random(12)
    for _ in range(150):
        args = (rng.randint(2, 2000), rng.randint(3, 6),
                rng.choice((0.0, 0.05, 0.2, rng.random() / 2)),
                rng.randint(1, 9))
        w = prime_window(*args)
        primes, window = _prime_window_scan(*args)
        assert (w.primes, w.window) == (primes[:args[3]], window), args


def test_partition_by_residue():
    quadric = parse_poly("x0*x3 - x1*x2")
    pts = [(1, 2, 3, 6), (1, 7, 3, 21)]  # differ by 5 in two coordinates
    assert all(quadric.evaluate(p) == 0 for p in pts)
    part = partition_by_residue(pts, 5, quadric)
    assert len(part) == 1  # both reduce to the same residue point
    key = (1, 2, 3, 1)
    assert part[key][0] == pts

    # p beyond 2B+1 separates everything
    _, surface_pts = count_affine_surface(FERMAT, 5)
    big = partition_by_residue(surface_pts, 13, FERMAT)
    assert all(len(v[0]) == 1 for v in big.values())

    assert partition_by_residue([], 7, FERMAT) == {}


def test_partition_carries_classification():
    _, pts = count_affine_surface(FERMAT, 10)
    part = partition_by_residue(pts, 19, FERMAT)
    assert sum(len(v[0]) for v in part.values()) == len(pts)
    assert all(isinstance(v[1], Classification) for v in part.values())


def test_select_monomials_line():
    sel = select_monomials(LINE, 1, 5)
    assert [sum(m[1:]) for m in sel.monomials] == [0, 1, 2, 3, 4]
    assert sel.degree_sum == 10  # k(k-1)/2 for the line
    # x0^4, x0^3*x1, x0^2*x1^2, x0*x1^3, x1^4
    assert sel.monomials == [(4, 0, 0, 0), (3, 1, 0, 0), (2, 2, 0, 0),
                             (1, 3, 0, 0), (0, 4, 0, 0)]


def test_confirm_independent_rejects_dependent_monomials():
    from ratpoints.detmethod import _confirm_independent

    # x0^2, x0*x1, x1^2
    _confirm_independent(LINE, [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 2)
    # x0*x2 lies in the ideal, and x1^2 repeated adds one rank, not two
    for monos in ([(1, 0, 1, 0)], [(0, 2, 0, 0), (0, 2, 0, 0)]):
        with pytest.raises(AssertionError):
            _confirm_independent(LINE, monos, 2)


def test_select_monomials_conic():
    # the Hilbert value of the conic's section is 2 from degree 1 on
    sel = select_monomials(CONIC, 2, 4)
    assert [sum(m[1:]) for m in sel.monomials] == [1, 1, 2, 2]
    assert {sum(m) for m in sel.monomials} == {2}
    assert sel.degree_sum == 6
    sel1 = select_monomials(CONIC, 2, 1)
    assert len(sel1.monomials) == 1
    assert sel1.degree_sum == 1


def test_select_monomials_surplus_drop():
    # k = 5 with e = 3: the top degree contributes only two monomials
    sel = select_monomials(TWISTED, 3, 5)
    assert [sum(m[1:]) for m in sel.monomials] == [1, 1, 1, 2, 2]
    assert {sum(m) for m in sel.monomials} == {2}
    again = select_monomials(TWISTED, 3, 5)
    assert again.monomials == sel.monomials  # deterministic choice


def _hilbert_scan(J, max_degree=40):
    """The stabilized Hilbert value of the section x0 = 0 of the curve
    ideal J: the graded quotient by (J, x0) is scanned degree by degree
    until two consecutive values agree."""
    J0 = [g.substitute_value(0, 0) for g in J]
    J0 = [g for g in J0 if not g.is_zero()]
    prev = None
    for delta in range(max_degree + 1):
        h = graded_piece_basis(J0, delta, num_vars=3).dimension
        if h == prev:
            return h
        prev = h
    raise ValueError("Hilbert function did not stabilize; not a curve ideal")


def _section_or_error(section, *args):
    try:
        return section(*args)
    except ValueError as err:
        return str(err)


def test_curve_section_degree():
    assert _hilbert_scan(LINE) == 1
    assert _hilbert_scan(CONIC) == 2
    assert _hilbert_scan(TWISTED) == 3
    assert curve_section_degree(*LINE) == 1
    assert curve_section_degree(*CONIC) == 2
    # two of the twisted cubic's quadrics also hold the line x0 = x1 = 0,
    # so at x0 = 0 both are multiples of x1
    with pytest.raises(ValueError, match="^Hilbert function did not "
                       "stabilize; not a curve ideal$"):
        curve_section_degree(*TWISTED[:2])


def _random_form(rng, degree):
    """A form of the degree with nonzero coefficients in [-3, 3] on a
    random nonempty subset of its monomials."""
    basis = monomials_of_degree(4, degree)
    chosen = rng.sample(basis, rng.randint(1, len(basis)))
    return IntPoly(4, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen})


def test_curve_section_degree_matches_the_hilbert_scan():
    # the closed form returns ab exactly when the scan stabilizes, at ab,
    # and raises the scan's error otherwise; the scan looks four degrees
    # past the closed form's a + b - 1.  A common factor of degree 1 reads
    # ab at a + b - 2, so a check there fails the planted c = 1 pairs
    rng = random.Random(2027)
    x0 = X[0]
    finite = 0
    common = {1: 0, 2: 0}   # pairs with F0 and G0 nonzero, by c
    for trial in range(120):
        c = trial % 3       # the degree of a planted common factor
        H = _random_form(rng, c)
        a, b = rng.randint(c + 1, 4), rng.randint(c + 1, 4)
        F = H * _random_form(rng, a - c)
        G = H * _random_form(rng, b - c)
        want = _section_or_error(_hilbert_scan, [F, G], a + b + 3)
        got = _section_or_error(curve_section_degree, F, G)
        assert got == want, (format_poly(F), format_poly(G))
        if isinstance(got, int):
            assert got == a * b and c == 0
            finite += 1
        elif c and not any(g.substitute_value(0, 0).is_zero()
                           for g in (F, G)):
            common[c] += 1
    assert finite >= 25 and min(common.values()) >= 25, (finite, common)
    # F0 = 0 or G0 = 0: the section is not finite
    for F, G in ((x0 * X[1], X[2] ** 2 + X[3] ** 2),
                 (X[1] ** 3 + X[2] ** 3, x0 ** 2 - x0 * X[3]),
                 (x0, x0 * X[1])):
        assert _section_or_error(curve_section_degree, F, G) == \
            _section_or_error(_hilbert_scan, [F, G], 12) == \
            "Hilbert function did not stabilize; not a curve ideal"


def test_select_monomials_wrong_dimension(monkeypatch):
    # a surface ideal never stabilizes at a curve degree: the plane's
    # Hilbert function passes 1 and leaves it, and the double plane's
    # takes odd values only, so the scan gives up past its top degree
    with pytest.raises(ValueError, match="^Hilbert value left 1 at degree 1"):
        select_monomials([X[3]], 1, 4)
    monkeypatch.setattr(detmethod, "MAX_SELECTION_DEGREE", 12)
    with pytest.raises(ValueError, match="^wrong dimension: Hilbert "
                                         "function never stabilizes at 2$"):
        select_monomials([X[3] ** 2], 2, 4)


def test_build_determinant_examples():
    sel1 = select_monomials(LINE, 1, 1)
    c1 = build_determinant([(1, 1, 0, 0)], sel1)
    assert c1.det == 1  # the constant monomial at any point

    sel2 = select_monomials(LINE, 1, 2)
    dup = build_determinant([(1, 3, 0, 0), (1, 3, 0, 0)], sel2)
    assert dup.det == 0  # two equal rows

    sel3 = select_monomials(LINE, 1, 3)
    pts = [(1, 1, 0, 0), (1, 2, 0, 0), (1, 4, 0, 0)]
    cert = build_determinant(pts, sel3)
    vander = 1
    for i in range(3):
        for j in range(i + 1, 3):
            vander *= pts[j][1] - pts[i][1]
    assert abs(cert.det) == abs(vander)

    with pytest.raises(ValueError):
        build_determinant(pts[:2], sel3)


def test_divisibility_examples():
    sel3 = select_monomials(LINE, 1, 3)
    pts = [(1, 2, 0, 0), (1, 7, 0, 0), (1, 12, 0, 0)]
    cert = build_determinant(pts, sel3)
    verdict = divisibility_check(cert, 5, LINE, (1, 2, 0, 0))
    assert verdict.applicable and verdict.passed
    assert cert.beta_required == 3 and valuation(cert.det, 5) >= 3

    sel1 = select_monomials(LINE, 1, 1)
    k1 = build_determinant([(1, 2, 0, 0)], sel1)
    v1 = divisibility_check(k1, 5, LINE, (1, 2, 0, 0))
    assert v1.passed and k1.beta_required == 0

    sel4 = select_monomials(CONIC, 2, 4)
    cpts = [(1, t, t * t, 0) for t in (1, 8, 15, 22)]
    cert7 = build_determinant(cpts, sel4)
    v7 = divisibility_check(cert7, 7, CONIC, (1, 1, 1, 0))
    assert v7.applicable and v7.passed
    assert cert7.beta_required == 6
    assert cert7.det == 0 or valuation(cert7.det, 7) >= 6

    # a nonzero determinant below the required power of q fails the check
    short = DetCertificate(points=pts, det=5**2 * 7, beta_required=3)
    assert not divisibility_check(short, 5, LINE, (1, 2, 0, 0)).passed

    with pytest.raises(ValueError):
        divisibility_check(cert7, 5, CONIC, (1, 1, 1, 0))


def test_divisibility_needs_a_modulus_below_2_31():
    sel1 = select_monomials(LINE, 1, 1)
    cert = build_determinant([(1, 2, 0, 0)], sel1)
    for q in (2**31 + 11, 2**64 + 13):
        with pytest.raises(ValueError,
                           match=rf"^modulus {q} is not below 2\^31$"):
            divisibility_check(cert, q, LINE, (1, 2, 0, 0))
    # off the curve the rank is not needed, so no modulus is refused
    off = build_determinant([(1, 2, 1, 0)], sel1)
    verdict = divisibility_check(off, 2**64 + 13, LINE, (1, 2, 1, 0))
    assert not verdict.applicable and verdict.passed


def test_divisibility_alpha_regime_reported():
    # points reducing to a singular point of a nodal cubic: not applicable
    nodal = [X[3], X[1] ** 2 * X[0] + X[2] ** 2 * X[0] - X[2] ** 3 * 1]
    # the affine curve x1^2 = x2^3 - x2^2-ish has a singular point at origin
    pts = [(1, 0, 0, 0), (1, 5, 0, 0)]
    sel = select_monomials(LINE, 1, 2)
    cert = build_determinant(pts, sel)
    verdict = divisibility_check(cert, 5, nodal, (1, 0, 0, 0))
    assert not verdict.applicable and verdict.passed


def test_beta_divisibility_acceptance_style():
    rng = random.Random(77)
    curves = {1: (LINE, lambda t: (1, t, 0, 0)),
              2: (CONIC, lambda t: (1, t, t * t, 0)),
              3: (TWISTED, lambda t: (1, t, t * t, t ** 3))}
    for q in (5, 7, 11, 13):
        for e, (gens, param) in curves.items():
            for k in (2, 4, 8):
                t0 = rng.randint(0, q - 1)
                ts = [t0 + q * j for j in range(k)]
                pts = [param(t) for t in ts]
                sel = select_monomials(gens, e, k)
                cert = build_determinant(pts, sel)
                verdict = divisibility_check(cert, q, gens, pts[0])
                assert verdict.applicable, (e, q, k)
                assert verdict.passed, (e, q, k, cert.det, verdict)


def test_extract_auxiliary_form():
    tc_pts = [(1, t, t * t, t ** 3) for t in range(6)]
    rng = random.Random(9)
    generic = [(1, rng.randint(-50, 50), rng.randint(-50, 50),
                rng.randint(-50, 50)) for _ in range(10)]
    aux, full = extract_auxiliary_form([tc_pts, generic], 2, FERMAT)
    assert isinstance(aux, AuxiliaryForm)
    assert all(aux.form.evaluate(p) == 0 for p in tc_pts)
    assert not poly_divides(FERMAT, aux.form)
    assert isinstance(full, RankFull)

    [one] = extract_auxiliary_form([[(1, 2, 3, 4)]], 1, FERMAT)
    assert isinstance(one, AuxiliaryForm) and one.rank == 1

    assert extract_auxiliary_form([], 2, FERMAT) == []
    with pytest.raises(ValueError):
        extract_auxiliary_form([tc_pts, []], 2, FERMAT)


def test_extract_auxiliary_form_returns_the_degenerate_class_error():
    # at D = 1 the nullspace of a class on the plane x0 + x1 + x2 + x3 = 0
    # is that linear form, which the same form as F divides
    plane = parse_poly("x0 + x1 + x2 + x3")
    on_plane = [(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)]
    err, aux = extract_auxiliary_form([on_plane, on_plane[:2]], 1, plane)
    assert isinstance(err, ValueError) and str(err) == (
        "class lies in a smaller locus than basis captures; increase D")
    assert isinstance(aux, AuxiliaryForm) and aux.rank == 2


def test_extract_auxiliary_form_past_the_int64_guard(monkeypatch):
    # the value matrices of points this high are object arrays of exact
    # ints, reduced mod P in nullspaces_int's batch like int64 ones: the
    # class reaches nullspace_int only as its pivot rows, never whole
    made, sent = [], []
    real_values, real_null = detmethod._value_matrices, linalg.nullspace_int

    def values(*args):
        made[:] = real_values(*args)
        return made
    monkeypatch.setattr(detmethod, "_value_matrices", values)
    monkeypatch.setattr(linalg, "nullspace_int",
                        lambda m, n: sent.append(m) or real_null(m, n))
    big = 10**7
    line = [(1, t * big, -t * big, 0) for t in range(1, 4)]
    [aux] = extract_auxiliary_form([line], 3, FERMAT)
    assert made[0].dtype == object and len(sent) == 1
    assert not any(m is made[0] for m in sent)
    assert isinstance(aux, AuxiliaryForm)
    assert all(aux.form.evaluate(p) == 0 for p in line)
    small = [(1, t, -t, 0) for t in range(1, 4)]
    [same] = extract_auxiliary_form([small], 3, FERMAT)
    assert format_poly(aux.form) == format_poly(same.form)


def test_value_matrices_match_monomial_rows():
    # the oracle's products of powers are the referee for the numpy build
    rng = random.Random(9)
    for D in range(7):
        for nv in (1, 3, 4):
            basis = monomials_of_degree(nv, D)
            classes = [[tuple(rng.choice((0, 0, 1, -1, rng.randint(-50, 50)))
                              for _ in range(nv))
                        for _ in range(rng.randint(1, 4))] for _ in range(3)]
            classes[0].append((0,) * nv)
            got = detmethod._value_matrices(basis, classes, D)
            assert [m.dtype for m in got] == [np.int64] * 3
            assert [m.tolist() for m in got] == \
                [monomial_rows(basis, points) for points in classes]
    # at D = 3 the values stay in int64 up to max|x| = 2^21 - 1; at 2^21
    # and -2^21, and past int64, all classes are object arrays of exact
    # ints, though (-2^21)^3 = -2^63 would fit
    basis = monomials_of_degree(4, 3)
    for top, dtype in ((2**21 - 1, np.int64), (-2**21 + 1, np.int64),
                       (2**21, object), (-2**21, object), (2**70, object)):
        classes = [[(1, 2, -3, 4), (1, top, -1, 0)], [(1, 0, 5, 6)],
                   [(1, 0, top, top)]]
        got = detmethod._value_matrices(basis, classes, 3)
        assert [m.dtype for m in got] == [dtype] * 3
        assert [m.tolist() for m in got] == \
            [monomial_rows(basis, points) for points in classes]
    assert detmethod._value_matrices(basis, [], 3) == []


def test_auxiliary_forms_are_normalized():
    # extract_auxiliary_form returns nullspaces_int's vectors unscaled, so
    # each form must already be primitive with a positive leading term
    _, points = count_affine_surface(FERMAT, 20)
    rng = random.Random(31)
    classes = [rng.sample(points, rng.randint(2, 9)) for _ in range(60)]
    forms = 0
    for D in (1, 2, 3):
        for aux in extract_auxiliary_form(classes, D, FERMAT):
            if isinstance(aux, AuxiliaryForm):
                G = aux.form
                assert G.content() == 1, format_poly(G)
                assert G.terms[max(G.terms, key=grlex_key)] > 0, \
                    format_poly(G)
                forms += 1
    assert forms >= 100, forms


def test_theta_and_bezout():
    assert theta_exponent(2, 2) == 12
    assert theta_exponent(3, 3) == 60
    assert theta_exponent(2, 3) == 20
    assert bezout_bound(3, 4) == 12
    assert bezout_bound(1, 1) == 1
    assert bezout_bound(5, 2) == 10
    with pytest.raises(ValueError):
        theta_exponent(1, 2)


def test_degree_sum_asymptotics():
    for gens, e in ((LINE, 1), (CONIC, 2), (TWISTED, 3)):
        for k in (10, 20, 40):
            sel = select_monomials(gens, e, k)
            ratio = sel.degree_sum * 2 * e / k**2
            assert ratio <= 1.6, (e, k, ratio)


def test_detmethod_certificates_survive_python_O():
    # dependent monomials, a determinant above its size bound and an
    # auxiliary form that misses a class point must raise CertificateError
    # also under python -O (the script's own assert fails unless -O has
    # stripped it); the last one comes from a nullspace patched to return
    # 4*x3^2 (x3^2 is the first monomial of degree 2), which misses
    # (1, 0, 0, -1) on the int64 branch, (1, 0, 0, 2^32) on the Python-int
    # branch (its rows leave int64) and (1, 0, 0, 2^31), whose int64 rows
    # fail the product bound: there 4 * 2^62 = 2^64 wraps to 0 in int64
    script = (
        "import ratpoints.detmethod as dm\n"
        "from ratpoints.exact import CertificateError\n"
        "from ratpoints.poly import IntPoly, parse_poly\n"
        "assert False, 'asserts are live'\n"
        "X = [IntPoly.variable(4, i) for i in range(4)]\n"
        "line = [X[2], X[3]]\n"
        "sel = dm.select_monomials(line, 1, 2)\n"
        "sel.degree_sum = 0\n"
        "dm.nullspaces_int = lambda matrices, ncols: [[(4,) + (0,) * (ncols - 1)]\n"
        "                                             for _ in matrices]\n"
        "fermat = parse_poly('x0^3 + x1^3 + x2^3 + x3^3')\n"
        "for check in (\n"
        "        lambda: dm._confirm_independent(line, [(1, 0, 1, 0)], 2),\n"
        "        lambda: dm.build_determinant([(1, 0, 0, 0), (1, 5, 0, 0)],\n"
        "                                     sel),\n"
        "        lambda: dm.extract_auxiliary_form(\n"
        "            [[(1, -1, 0, 0), (1, 0, 0, -1)]], 2, fermat),\n"
        "        lambda: dm.extract_auxiliary_form(\n"
        "            [[(1, 0, 0, 0)], [(1, 0, 0, 2**32)]], 2, fermat),\n"
        "        lambda: dm.extract_auxiliary_form(\n"
        "            [[(1, 0, 0, 0)], [(1, 0, 0, 2**31)]], 2, fermat)):\n"
        "    try:\n"
        "        check()\n"
        "    except CertificateError as exc:\n"
        "        print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == ("raised: selected monomials are dependent mod the ideal\n"
                   "raised: determinant exceeded its size bound\n"
                   + "raised: auxiliary form misses a class point\n" * 3)


def _delta_stats_referee(F, G, members, p, sections):
    """The determinant statistics computed afresh for every class, from a
    value matrix of exact ints and the curve section degree of the Hilbert
    scan; sections caches that degree and the monomial selection by G and
    k."""
    k = min(len(members), 4)
    if (G, k) not in sections:
        try:
            e = _hilbert_scan([F, G])
            sections[G, k] = e, detmethod.select_monomials([F, G], e, k)
        except (ValueError, CertificateError) as err:
            sections[G, k] = err
    if isinstance(sections[G, k], Exception):
        return {"error": str(sections[G, k])}
    e, sel = sections[G, k]
    points = members[:k]
    det = det_bareiss(monomial_rows(sel.monomials, points))
    B = max(2, max(abs(c) for pt in points for c in pt))
    if det and abs(det) > math.factorial(k) * B ** sel.degree_sum:
        return {"error": "determinant exceeded its size bound"}
    return {"k": k, "curve_degree": e, "det_zero": det == 0,
            "vp": valuation(det, p), "beta_required": k * (k - 1) // 2}


def test_detmethod_section_computed_once_per_aux_form(monkeypatch, capsys):
    # Fermat at epsilon 0.35: the primes are 73, 79 and 83, so the points
    # of x0 + x1 = x2 + x3 = 0 fall into classes of 2 and 3 with one aux
    # form, and every determinant row fits an int64.  At primes 3, 5 and 7
    # most classes hold more than 4 points, with nonzero determinants.
    # The cone over 1 + x1^8 = 2*x2^8 holds the four lines
    # (1, +-1, +-1, s): classes of collinear points, whose determinant
    # rows, values of monomials of degree 8 at points with |s| > 235,
    # leave int64.
    fermat = ["detmethod", "--form", "x0^3 + x1^3 + x2^3 + x3^3",
              "--bound", "100", "--epsilon", "0.35"]
    small_primes = ["detmethod", "--form", "x0^3 + x1^3 + x2^3 + x3^3",
                    "--bound", "200", "--epsilon", "-0.4",
                    "--max-aux-degree", "3"]
    cone = ["detmethod", "--form", "x0^8 + x1^8 - 2*x2^8 + 0*x3",
            "--bound", "300"]
    calls = {"curve_section_degree": [], "select_monomials": []}

    def spy(name):
        real = getattr(cli, name)

        # curve_section_degree(F, G) and select_monomials([F, G], e, k)
        def counted(first, second, *rest):
            G = second if name == "curve_section_degree" else first[1]
            calls[name].append((format_poly(G),) + rest)
            return real(first, second, *rest)
        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, spy(name))
    past_int64 = []
    real_values = detmethod._value_matrices

    def values(basis, classes, D):
        matrices = real_values(basis, classes, D)
        past_int64.extend(m for m in matrices if m.dtype != np.int64)
        return matrices
    monkeypatch.setattr(detmethod, "_value_matrices", values)
    for argv in (fermat, small_primes, cone):
        for got in (*calls.values(), past_int64):
            got.clear()
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        classes = out["classes"]
        pairs = {(rec["aux_form"], min(rec["class_size"], 4))
                 for rec in classes if rec.get("aux_form")}
        if argv is fermat:
            assert any((form, 2) in pairs and (form, 3) in pairs
                       for form, _ in pairs)
        assert sorted(calls["select_monomials"]) == sorted(pairs)
        assert len(calls["curve_section_degree"]) == len(pairs)
        assert sorted(set(calls["curve_section_degree"])) == \
            sorted({(form,) for form, _ in pairs})
        assert bool(past_int64) == (argv is cone)

        # every record's statistics against the referee, class by class
        F = parse_poly(out["form"], num_vars=4)
        _, points = count_affine_surface(F, out["bound"])
        checked, sections = 0, {}
        for rec in classes:
            if rec.get("aux_form"):
                p, residue = rec["p"], rec["residue"]
                members = [pt for pt in points
                           if all((x - r) % p == 0
                                  for x, r in zip(pt, residue))]
                G = parse_poly(rec["aux_form"], num_vars=4)
                assert rec["delta"] == \
                    _delta_stats_referee(F, G, members, p, sections), rec
                checked += 1
        assert checked >= 50, checked


def test_detmethod_cusp_sections_take_one_graded_piece(monkeypatch, capsys):
    # F0 = -x3^3, so every auxiliary form whose G0 is a multiple of x3
    # shares a factor with F0, and its group's delta records carry the
    # section error; each curve_section_degree call decides from one
    # graded piece, and the output is the pinned one
    pieces, per_call = [], []
    real_piece = detmethod.graded_piece_basis
    monkeypatch.setattr(detmethod, "graded_piece_basis",
                        lambda *args, **kwargs: pieces.append(args)
                        or real_piece(*args, **kwargs))
    real_section = cli.curve_section_degree

    def counted(F, G):
        before = len(pieces)
        try:
            return real_section(F, G)
        finally:
            per_call.append(len(pieces) - before)
    monkeypatch.setattr(cli, "curve_section_degree", counted)
    assert cli.main(["detmethod", "--form", "x0*x1*x2 - x3^3",
                     "--bound", "300"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8877f770c891f0c6df6d7446233297a75c066b07672944c8beba77eb35350840")
    deltas = [rec["delta"] for rec in json.loads(out)["classes"]
              if "delta" in rec]
    assert len(deltas) == 447 and all(
        delta == {"error": "Hilbert function did not stabilize; not a curve "
                  "ideal"} for delta in deltas)
    assert per_call and set(per_call) == {1}, per_call


@pytest.mark.parametrize("args, top_degree", [
    # primes 3, 5 and 7: some classes are RankFull at D = 2 and get their
    # form at D = 3
    (["--bound", "200", "--epsilon", "-0.4", "--max-aux-degree", "3"], 3),
    (["--bound", "100", "--epsilon", "0.35"], 2),
])
def test_detmethod_matches_a_per_class_referee(monkeypatch, capsys, args,
                                               top_degree):
    # the batched nullspaces against nullspace_int solving each class
    argv = ["detmethod", "--form", "x0^3 + x1^3 + x2^3 + x3^3", *args]
    assert cli.main(argv) == 0
    batched = capsys.readouterr().out
    assert max(rec.get("aux_degree", 0) for rec in
               json.loads(batched)["classes"]) == top_degree
    monkeypatch.setattr(detmethod, "nullspaces_int",
                        lambda matrices, ncols: [nullspace_int(m, ncols)
                                                 for m in matrices])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == batched
