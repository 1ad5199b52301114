import random

import pytest

from ratpoints.enumeration import enumerate_projective_variety
from ratpoints.exact import normalize_primitive
from ratpoints.geometry import (Classification,
                                build_projection_setup, classify_point,
                                complete_to_unimodular, degenerate_reduction,
                                detect_hyperplane, find_integral_section,
                                find_projection_center, find_U_point,
                                project_point, restrict_to_hyperplane,
                                sample_birationality_check,
                                scan_projective_points)
from ratpoints.irreducibility import Irreducibility, is_absolutely_irreducible
from ratpoints.linalg import det_bareiss
from ratpoints.poly import parse_poly

C = Classification
QUADRIC = parse_poly("x0*x3 - x1*x2")
FERMAT = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
TWISTED = [parse_poly(s, num_vars=4)
           for s in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]


def test_classify_examples():
    assert classify_point(QUADRIC, (1, 0, 0, 0)) is C.IN_U
    assert classify_point(parse_poly("x1^2 + x2^2 - x3^2"),
                          (1, 0, 0, 0)) is C.SINGULAR
    assert classify_point(parse_poly("x1*x2*x3 - x0^3"),
                          (0, 1, 1, 0)) is C.NOT_IN_U
    with pytest.raises(ValueError, match="not on surface"):
        classify_point(QUADRIC, (1, 1, 1, 0))


def test_classify_over_prime_field():
    assert classify_point(QUADRIC, (1, 0, 0, 0), p=7) is C.IN_U
    assert classify_point(parse_poly("x1^2 + x2^2 - x3^2"),
                          (1, 0, 0, 0), p=5) is C.SINGULAR
    # reduction of an off-surface point can land on the surface mod p
    assert classify_point(QUADRIC, (1, 7, 7, 0), p=7) is C.IN_U


def test_classification_agrees_with_rationals_for_good_primes():
    rng = random.Random(33)
    surfaces = [QUADRIC, FERMAT, parse_poly("x0*x2^2 - x1^3 + x3^3")]
    checked = 0
    for F in surfaces:
        for t in scan_projective_points(4, 1):
            if F.evaluate(t) != 0:
                continue
            verdict = classify_point(F, t)
            # single big prime: all relevant quantities stay nonzero mod p
            p = 1000003
            assert classify_point(F, t, p=p) is verdict
            checked += 1
    assert checked >= 5


def test_find_u_point_matches_scan_oracle():
    def oracle(F, cap):
        for h in range(1, cap + 1):
            for t in scan_projective_points(4, h):
                if F.evaluate(t) == 0 and classify_point(F, t) is C.IN_U:
                    return t
        return None

    got = find_U_point(QUADRIC, 1)
    assert got is not None and got.coords == oracle(QUADRIC, 1)
    uf = find_U_point(FERMAT, 2)
    assert uf is not None
    assert classify_point(FERMAT, uf) is C.IN_U  # round trip
    with pytest.raises(ValueError):
        find_U_point(parse_poly("x0 + x1 + x2 + x3"), 1)


def test_find_u_point_not_found_is_honest():
    # a surface whose tiny rational points all sit outside U
    F = parse_poly("x1*x2*x3 - x0^3")
    result = find_U_point(F, 1)
    if result is not None:
        assert classify_point(F, result) is C.IN_U


def test_complete_to_unimodular():
    for a in [(0, 0, 0, 1), (1, 0, 0, -1), (2, 3, 5, 7), (4, 9, 2, 15),
              (1, 1), (3, -5, 7)]:
        M = complete_to_unimodular(a)
        assert tuple(M[-1]) == a
        assert abs(det_bareiss(M)) == 1


def test_restrict_to_hyperplane_is_the_section():
    # points of the section pull back to zeros of the restriction
    a = (1, 0, 0, -1)
    M, section = restrict_to_hyperplane(QUADRIC, a)
    from ratpoints.linalg import invert_unimodular

    Minv = invert_unimodular(M)
    rng = random.Random(3)
    for _ in range(50):
        y = [rng.randint(-5, 5) for _ in range(3)] + [0]
        x = [sum(Minv[i][j] * y[j] for j in range(4)) for i in range(4)]
        assert sum(aa * xx for aa, xx in zip(a, x)) == 0
        assert QUADRIC.evaluate(x) == section.evaluate(y[:3])


def test_find_integral_section():
    sec = find_integral_section(QUADRIC, 2)
    assert sec.found
    assert is_absolutely_irreducible(sec.section) is Irreducibility.YES
    verdicts = {tuple(a): v for a, v in sec.tried}
    # the X3 = 0 section -X1*X2 is reducible, so that direction was rejected
    if (0, 0, 0, 1) in verdicts:
        assert verdicts[(0, 0, 0, 1)] in ("no", "unknown")
    with pytest.raises(ValueError):
        find_integral_section(parse_poly("x0 + 2*x1"), 1)


def test_find_integral_section_immediate():
    # X0 = 0 section of the Fermat cubic is already integral
    sec = find_integral_section(FERMAT, 1)
    assert sec.found


def test_projection_setup_examples():
    setup = build_projection_setup([(0, 0, 0, 1)])
    assert setup.c == 5  # |lam| + 4 * 1 * 1 * 1
    assert setup.g_list == [(0, 0, 0, 1)]
    img = project_point(setup, (1, 2, 4, 8))
    assert img.coords == (1, 2, 4, 0)
    assert project_point(setup, (1, 2, 4, 0)).coords == (1, 2, 4, 0)
    with pytest.raises(ValueError, match="center"):
        project_point(setup, (0, 0, 0, 1))


def test_projection_setup_invariants():
    rng = random.Random(8)
    built = 0
    while built < 20:
        hs = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(2)]
        try:
            setup = build_projection_setup(hs)
        except ValueError:
            continue
        built += 1
        for i, g in enumerate(setup.g_list):
            for j, h in enumerate(setup.h_list):
                dot = sum(a * b for a, b in zip(g, h))
                if i == j:
                    assert dot != 0
                else:
                    assert dot == 0
        # images always satisfy the height contract (asserted internally)
        for _ in range(20):
            x = tuple(rng.randint(-9, 9) for _ in range(5))
            if not any(x):
                continue
            try:
                img = project_point(setup, x)
            except ValueError:
                continue
            assert img.height <= setup.c * max(abs(v) for v in x)


def test_twisted_cubic_projection_all_fibers_small():
    pts = enumerate_projective_variety(TWISTED, 10)
    found = find_projection_center(TWISTED, 3, 2, pts)
    assert found is not None
    setup, report = found
    assert report.passed
    assert max(report.fiber_histogram) <= 3


def test_collapsing_projection_flagged():
    conic_pts = enumerate_projective_variety(
        [parse_poly("x0*x2 - x1^2", num_vars=4),
         parse_poly("x3", num_vars=4)], 12)
    # center inside the conic's plane but off the conic: 2-to-1 onto a line
    setup = build_projection_setup([(0, 1, 0, 0)])
    report = sample_birationality_check(setup, conic_pts, 1)
    assert not report.passed
    assert 2 in report.fiber_histogram
    assert report.offending


def test_vacuous_birationality():
    setup = build_projection_setup([(0, 0, 0, 1)])
    report = sample_birationality_check(setup, [], 3)
    assert report.passed and report.total_points == 0


def test_degenerate_detection():
    pts = [normalize_primitive((1, a, b, a + b))
           for a in range(-3, 4) for b in range(-3, 4)]
    form = detect_hyperplane(pts)
    assert form is not None
    assert all(sum(f * c for f, c in zip(form, p.coords)) == 0 for p in pts)
    reduced, dropped, _ = degenerate_reduction(pts)
    assert len(reduced) == len(pts)
    assert all(r.height <= p.height for r, p in zip(reduced, pts))
    spanning = [normalize_primitive(v) for v in
                [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]
    assert detect_hyperplane(spanning) is None
