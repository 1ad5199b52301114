import json
import random
from collections import Counter

import pytest

from ratpoints.enumeration import enumerate_projective_variety
from ratpoints.exact import primitive_vector
from ratpoints.geometry import (Classification, build_projection_setup,
                                classify_point, classify_points,
                                find_projection_center,
                                project_point, sample_birationality_check,
                                scan_projective_points)
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


def test_projection_setup_examples():
    setup = build_projection_setup((0, 0, 0, 1))
    assert setup.c == 5  # h_j + 4 * H(h)
    assert (setup.h, setup.j) == ((0, 0, 0, 1), 3)
    img = project_point(setup, (1, 2, 4, 8))
    assert img == (1, 2, 4, 0)
    assert project_point(setup, (1, 2, 4, 0)) == (1, 2, 4, 0)
    with pytest.raises(ValueError, match="center"):
        project_point(setup, (0, 0, 0, 1))
    # the center is made primitive, and j is its first nonzero index
    setup = build_projection_setup((0, -4, 2, 6))
    assert (setup.h, setup.j, setup.c) == ((0, 2, -1, -3), 1, 14)
    with pytest.raises(ValueError, match="zero vector"):
        build_projection_setup((0, 0, 0, 0))


def test_projection_setup_invariants():
    rng = random.Random(8)
    built = 0
    while built < 20:
        h = tuple(rng.randint(-3, 3) for _ in range(5))
        if not any(h):
            continue
        setup = build_projection_setup(h)
        built += 1
        j = setup.j
        assert setup.h[j] > 0 and not any(setup.h[:j])
        # images lie on x_j = 0 and satisfy the height contract (both
        # also checked internally)
        for _ in range(20):
            x = tuple(rng.randint(-9, 9) for _ in range(5))
            if not any(x):
                continue
            try:
                img = project_point(setup, x)
            except ValueError:
                continue
            assert img[j] == 0
            assert img == primitive_vector(img)
            assert max(map(abs, img)) <= setup.c * max(abs(v) for v in x)


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
    setup = build_projection_setup((0, 1, 0, 0))
    report = sample_birationality_check(setup, conic_pts, 1)
    assert not report.passed
    assert 2 in report.fiber_histogram
    assert report.images == sorted({project_point(setup, x)
                                    for x in conic_pts})
    assert len(report.images) < len(conic_pts)


def test_vacuous_birationality():
    setup = build_projection_setup((0, 0, 0, 1))
    report = sample_birationality_check(setup, [], 3)
    assert report.passed and report.images == []


def test_classify_point_cached_derivatives_match_uncached(monkeypatch):
    # every residue mod 5 and mod 7 on seeded cubic surfaces, classified
    # in one batch with the per-form derivative cache and with derivatives
    # rebuilt on every call
    import itertools

    import ratpoints.geometry as geometry
    from ratpoints.poly import IntPoly, monomials_of_degree

    rng = random.Random(57)
    forms = [FERMAT, parse_poly("x0^3 + x1^3 - 2*x2^3 - 2*x3^3")]
    for _ in range(3):
        forms.append(IntPoly(4, {e: rng.randint(-3, 3)
                                 for e in monomials_of_degree(4, 3)}))
    seen = set()
    for F in forms:
        for p in (5, 7):
            on = [x for x in itertools.product(range(p), repeat=4)
                  if F.evaluate(x) % p == 0]
            cached = classify_points(F, on, p)
            with monkeypatch.context() as m:
                m.setattr(geometry, "_derivatives",
                          geometry._derivatives.__wrapped__)
                assert classify_points(F, on, p) == cached, p
            seen.update(cached)
    assert seen == set(C)


_REFEREE_DERIVATIVES = {}


def classify_point_referee(F, x, p=None):
    """The one-point classification that classify_points replaced by a
    batch, kept as a referee: Python ints, one point at a time."""
    import itertools

    xs = tuple(x)

    def ev(poly):
        return poly.evaluate(xs) % p if p else poly.evaluate(xs)

    if ev(F) != 0:
        raise ValueError("point not on surface")
    if F not in _REFEREE_DERIVATIVES:
        _REFEREE_DERIVATIVES[F] = (
            [F.partial(i) for i in range(4)],
            {(i, j): F.hasse_second(i, j)
             for i in range(4) for j in range(i, 4)})
    partials, seconds = _REFEREE_DERIVATIVES[F]
    g = [ev(d) for d in partials]
    if all(v == 0 for v in g):
        return C.SINGULAR
    c = {ij: ev(d) for ij, d in seconds.items()}

    def qval(y):
        total = sum(cij * y[i] * y[j] for (i, j), cij in c.items())
        return total % p if p else total

    m = next(i for i in range(4) if g[i] != 0)
    basis = []
    for j in range(4):
        if j != m:
            v = [0, 0, 0, 0]
            v[j] = g[m]
            v[m] = -g[j] % p if p else -g[j]
            basis.append(v)
    if any(qval(v) for v in basis) or any(
            qval([u + w for u, w in zip(a, b)])
            for a, b in itertools.combinations(basis, 2)):
        return C.IN_U
    return C.NOT_IN_U


def test_batched_classification_matches_the_per_point_referee():
    # every residue point mod 2, 3, 5, 7 and 13 on six surfaces, one
    # batch per prime, against the per-point referee; then integer points
    # over Q, mod 2^31 - 1 and mod a prime past 2^31
    import itertools

    from ratpoints.poly import IntPoly, monomials_of_degree

    rng = random.Random(24)
    surfaces = [FERMAT, QUADRIC, parse_poly("x1^2 + x2^2 - x3^2"),
                parse_poly("x1*x2*x3 - x0^3"),
                parse_poly("x0^3 + x1^3 - 2*x2^3 - 2*x3^3"),
                IntPoly(4, {e: rng.randint(-4, 4)
                            for e in monomials_of_degree(4, 3)})]
    seen = Counter()
    for F in surfaces:
        for p in (2, 3, 5, 7, 13):
            on = [x for x in itertools.product(range(p), repeat=4)
                  if F.evaluate(x) % p == 0]
            got = classify_points(F, on, p)
            assert got == [classify_point_referee(F, x, p) for x in on], p
            seen.update(got)
        big = 2**31 + 11
        pts = [t for h in (1, 2) for t in scan_projective_points(4, h)
               if F.evaluate(t) == 0]
        # below 2^31 the residues are int64, and their products leave it
        # unless each one is reduced
        for q in (None, 2**31 - 1, big):
            assert classify_points(F, pts, q) == \
                [classify_point_referee(F, x, q) for x in pts], q
        # coordinates past int64 are reduced before the batch
        for q in (13, big):
            shifted = [tuple(v + 2**70 * q for v in t) for t in pts]
            assert classify_points(F, shifted, q) == \
                classify_points(F, pts, q), q
    assert set(seen) == set(C), seen
    assert classify_points(FERMAT, [], 7) == []
    with pytest.raises(ValueError, match="not on surface"):
        classify_points(QUADRIC, [(1, 0, 0, 0), (1, 1, 1, 0)], 5)


def test_project_center_output_pinned(capsys):
    # `project --center` on the twisted cubic at B = 10; the center is
    # printed primitive, and its dual is the unit vector at its first
    # nonzero coordinate
    from ratpoints import cli

    twisted = "x0*x2 - x1^2; x0*x3 - x1*x2; x1*x3 - x2^2"
    expected = {
        "0,0,2,0": ([0, 0, 1, 0], [0, 0, 1, 0], 5, [
            [0, 0, 0, 1], [1, -2, 0, -8], [1, -1, 0, -1], [1, 0, 0, 0],
            [1, 1, 0, 1], [1, 2, 0, 8], [8, -4, 0, -1], [8, 4, 0, 1]],
            {"1": 8}),
        "0,-2,1,3": ([0, 2, -1, -3], [0, 1, 0, 0], 14, [
            [0, 0, 0, 1], [1, 0, 0, 0], [1, 0, 3, -11], [1, 0, 5, 11],
            [2, 0, 1, -5], [2, 0, 3, 5], [8, 0, 0, -7], [8, 0, 4, 7]],
            {"1": 8}),
        "1,0,0,1": ([1, 0, 0, 1], [1, 0, 0, 0], 5, [
            [0, 0, 0, 1], [0, 1, -1, 2], [0, 1, 1, 0], [0, 2, -4, 9],
            [0, 2, 4, 7], [0, 4, -2, 9], [0, 4, 2, -7]],
            {"1": 6, "2": 1}),
        "3,1,0,0": ([3, 1, 0, 0], [1, 0, 0, 0], 15, [
            [0, 0, 0, 1], [0, 1, 0, 0], [0, 2, 3, 3], [0, 4, -3, 3],
            [0, 4, 6, 3], [0, 5, 12, 24], [0, 7, -12, 24], [0, 20, -6, 3]],
            {"1": 8}),
    }
    for center, (h, dual, c, images, hist) in expected.items():
        assert cli.main(["project", "--gens", twisted, "--center", center,
                         "--bound", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["center"], out["duals"], out["c"], out["images"],
                out["fiber_histogram"]) == ([h], [dual], c, images, hist), \
            center
