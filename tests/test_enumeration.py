import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import ratpoints
from oracles import brute_affine, brute_projective, brute_variety_points
from ratpoints.enumeration import (CountSeries, ResidueFilter, count_affine,
                                   count_affine_surface, count_projective,
                                   count_roots_bounded,
                                   enumerate_projective_variety, slice_form,
                                   verify_slicing)
from ratpoints.exact import primitive_vector
from ratpoints.poly import IntPoly, monomials_of_degree, pad_vars, parse_poly


def random_form(rng, nv, degree, spread=4):
    terms = {e: rng.randint(-spread, spread)
             for e in monomials_of_degree(nv, degree)}
    return IntPoly(nv, terms)


def test_count_projective_examples():
    assert count_projective(parse_poly("x0^2 + x1^2 + x2^2"), 10) == 0
    conic = parse_poly("x0*x2 - x1^2")
    assert count_projective(conic, 1) == brute_projective(conic, 1)
    # x and -x pair up: counts of sign-symmetric zero sets are even
    for B in (1, 2, 5):
        assert count_projective(conic, B) % 2 == 0


def test_count_projective_errors():
    with pytest.raises(ValueError):
        count_projective(parse_poly("x0^2 + x1"), 5)
    with pytest.raises(ValueError):
        count_projective(IntPoly.zero(3), 5)


def test_count_affine_examples():
    assert count_affine(parse_poly("t1 - t2^2"), 4) == 5
    assert count_affine(parse_poly("t1^2 + t2^2 + 1"), 30) == 0
    assert count_affine(parse_poly("t1 - t2^2", num_vars=3), 4) == 45
    with pytest.raises(ValueError):
        count_affine(IntPoly.zero(2), 3)


def test_enumeration_orders_agree():
    rng = random.Random(17)
    for _ in range(40):
        nv = rng.choice([1, 2, 3])
        f = random_form(rng, nv, rng.randint(1, 3))
        low = random_form(rng, nv, rng.randint(0, 1))
        f = f + low
        if f.is_zero():
            continue
        B = rng.randint(1, 8)
        assert count_affine(f, B) == brute_affine(f, B), (f.to_text(), B)
    # and at the top of the contracted range
    for _ in range(5):
        f = random_form(rng, 2, 3) + random_form(rng, 2, 1)
        if f.is_zero():
            continue
        assert count_affine(f, 20) == brute_affine(f, 20)


def test_point_lists_lexicographic_and_exact():
    f = parse_poly("t1 - t2^2")
    n, pts = count_affine(f, 4, collect=True)
    assert n == len(pts) == 5
    assert pts == sorted(pts)
    assert all(f.evaluate(p) == 0 for p in pts)
    F = parse_poly("x0*x2 - x1^2")
    n2, pts2 = count_projective(F, 3, collect=True)
    assert n2 == len(pts2)
    assert pts2 == sorted(pts2)


def test_projective_matches_brute_on_random_forms():
    rng = random.Random(23)
    for _ in range(25):
        nv = rng.choice([3, 4])
        F = random_form(rng, nv, rng.choice([2, 3]))
        if F.is_zero():
            continue
        B = rng.randint(1, 4 if nv == 4 else 6)
        assert count_projective(F, B) == brute_projective(F, B), F.to_text()


def test_big_coefficients_fall_back_exactly():
    # coefficients beyond the int64 guard exercise the big-int path
    big = 10**19
    f = parse_poly(f"{big}*t1 - t2^2")
    assert count_affine(f, 5) == brute_affine(f, 5) == 1
    g = parse_poly(f"t1 - {big}*t2^2")
    assert count_affine(g, 5) == 1  # only t2 = 0, t1 = 0


def test_grid_path_matches_brute():
    fermat = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
    for B in (1, 2, 3):
        assert count_projective(fermat, B) == brute_projective(fermat, B)
    quart = parse_poly("x0^4 + x1^4 - x2^4 - x3^4")
    for B in (1, 2):
        assert count_projective(quart, B) == brute_projective(quart, B)


def test_slice_examples():
    conic = parse_poly("x0*x2 - x1^2")
    assert slice_form(conic, 1) == parse_poly("t2 - t1^2")
    at_inf = slice_form(conic, 0)
    assert at_inf == parse_poly("-t1^2", num_vars=2)
    cube = parse_poly("x0^3", num_vars=1)
    assert slice_form(cube, 2) == IntPoly.constant(0, 8)


def test_verify_slicing():
    conic = parse_poly("x0*x2 - x1^2")
    lhs, rhs = verify_slicing(conic, 3)
    assert lhs <= rhs
    nowhere = parse_poly("x0^2 + x1^2 + x2^2")
    lhs0, rhs0 = verify_slicing(nowhere, 2)
    assert lhs0 == 0
    rng = random.Random(29)
    for _ in range(10):
        F = random_form(rng, 3, 3)
        if F.is_zero():
            continue
        lhs, rhs = verify_slicing(F, 2)
        assert lhs <= rhs


def test_line_forces_quadratic_growth():
    # X0*F0 - X1*F1 contains the plane X0 = X1 = 0
    F = parse_poly("x0*x2^2 - x1*x3^2")
    for B in (5, 10):
        assert count_projective(F, B) >= B * B


def test_count_affine_surface():
    F = parse_poly("x0*x3 - x1*x2")
    n, pts = count_affine_surface(F, 1)
    # x3 = x1*x2 with all coordinates in {-1, 0, 1}
    assert n == 9 and all(p[3] == p[1] * p[2] for p in pts)
    even = ResidueFilter(2, (0, 0, 0))
    n2, pts2 = count_affine_surface(F, 4, filters=[even])
    assert all(p[1] % 2 == 0 and p[2] % 2 == 0 and p[3] % 2 == 0 for p in pts2)
    # conflicting duplicate-prime filters give the empty set, not an error
    n3, pts3 = count_affine_surface(
        F, 4, filters=[ResidueFilter(3, (0, 0, 0)), ResidueFilter(3, (1, 0, 0))])
    assert n3 == 0 and pts3 == []


def test_count_affine_surface_histogram_matches_brute():
    # heights max |x_i| of the points (1, x1, x2, x3), with and without
    # residue filters, collected or not, against a scan of the whole box
    cases = [("x0*x3 - x1*x2", 4, ()), ("x0*x3 - x1*x2", 4, ((2, (0, 0, 0)),)),
             ("x0^3 + x1^3 + x2^3 + x3^3", 6, ()),
             ("x0^3 + x1^3 - 2*x2^3 - 2*x3^3", 6, ()),
             ("x0^3 + x1^3 + x2^3 + x3^3", 6,
              ((2, (1, 0, 1)), (3, (0, 2, 1)))),
             # moduli past 2B, one of them past int64 too, whose classes
             # meet [-B, B] at r or r - p alone
             ("x0*x3 - x1*x2", 4, ((11, (1, 10, 10)),)),
             ("x0*x3 - x1*x2", 4, ((2**64 - 59, (2, 2**64 - 61, 0)),))]
    for text, B, residues in cases:
        F = parse_poly(text)
        want = [0] * (B + 1)
        for x in itertools.product(range(-B, B + 1), repeat=3):
            if F.evaluate((1,) + x) == 0 and all(
                    v % p == r for p, rs in residues for v, r in zip(x, rs)):
                want[max(map(abs, x))] += 1
        filters = [ResidueFilter(p, rs) for p, rs in residues]
        n, pts, hist = count_affine_surface(F, B, filters=filters,
                                            by_height=True)
        assert hist == want, (text, residues)
        assert n == len(pts) == sum(want), (text, residues)
        assert count_affine_surface(F, B, filters=filters, collect=False,
                                    by_height=True) == (n, hist)
        assert count_affine_surface(F, B, filters=filters,
                                    collect=False) == n


def test_count_roots_bounded_examples():
    exact, bound = count_roots_bounded([0, 0, 1], 100)
    assert exact == 21 and exact <= bound
    exact2, _ = count_roots_bounded([0, 0, 0, 2], 16)
    assert exact2 == 5
    with pytest.raises(ValueError):
        count_roots_bounded([7], 10)


def test_count_roots_bounded_huge_T():
    # T/lead past the float range: the certificate is checked in integers
    T = 10**400
    exact, bound = count_roots_bounded([1, 0, 1], T)
    assert exact == 2 * math.isqrt(T - 1) + 1
    assert math.isclose(bound, 2 * (3.0 + 2.0 * 1e200))
    exact, bound = count_roots_bounded([5, 3], T)
    assert exact == (T - 5) // 3 + (T + 5) // 3 + 1
    assert bound == math.inf

    def icbrt(n):
        # largest r >= 0 with r^3 <= n, by Newton's method from above
        r = 1 << -(-n.bit_length() // 3)
        while True:
            s = (2 * r + n // (r * r)) // 3
            if s >= r:
                return r
            r = s
    # 1 + t^3 in [-T, T] for -icbrt(T + 1) <= t <= icbrt(T - 1)
    exact, _ = count_roots_bounded([1, 0, 0, 1], T)
    assert exact == icbrt(T - 1) + icbrt(T + 1) + 1


def test_cluster_certificate_survives_python_O():
    # under python -O an assert would be stripped; the certificate must
    # still raise on a count the cluster bound rules out (the script's
    # own assert fails unless -O has stripped it)
    script = (
        "import ratpoints.enumeration as en\n"
        "assert False, 'asserts are live'\n"
        "en.uniroots.count_abs_le = lambda coeffs, T: 10**6\n"
        "try:\n"
        "    en.count_roots_bounded([1, 0, 1], 4)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised: cluster bound violated: 1000000 points, T=4\n"


def test_count_roots_bounded_random_certified():
    rng = random.Random(41)
    for _ in range(60):
        d = rng.randint(1, 6)
        coeffs = [rng.randint(-1000, 1000) for _ in range(d)]
        coeffs.append(rng.choice([c for c in range(-1000, 1001) if c]))
        T = rng.randint(1, 10**6)
        exact, bound = count_roots_bounded(coeffs, T)
        assert exact <= bound


def test_count_series_invariants():
    CountSeries([(1, 2), (2, 2), (4, 5)])
    with pytest.raises(ValueError):
        CountSeries([(2, 1), (1, 2)])
    with pytest.raises(ValueError):
        CountSeries([(1, 5), (2, 3)])


def test_monotone_in_B():
    conic = parse_poly("x0*x2 - x1^2")
    counts = [count_projective(conic, B) for B in (1, 2, 4, 8, 16)]
    assert counts == sorted(counts)


def variety_cases():
    """Seeded random generator sets in four variables, many with a generator
    free of x3, then fixed ones whose prefix cells reach each branch of the
    kernel, with their bounds."""
    rng = random.Random(61)
    cases = []
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            spread = rng.choice([1, 4])
            if rng.random() < 0.25:
                # a generator free of the last variable x3
                g = pad_vars(random_form(rng, 3, d, spread), 4)
            else:
                g = random_form(rng, 4, d, spread)
            if not g.is_zero():
                gens.append(g)
        if gens:
            cases.append((gens, rng.randint(1, 4)))
    for texts in (
            # the line with its resultant in x3, 2*x0 + 5*x1 + 3*x2
            "x0 + x1 + x2 + x3; x0 - 2*x1 + 3*x3; 2*x0 + 5*x1 + 3*x2",
            "x0*x2 - x1^2; x0*x3 - x1*x2; x1*x3 - x2^2",
            # x3 free on the prefixes (0, a, a)
            "x1 - x2; x0*x3 - x0*x1",
            # x0^2*x3^4 = 0 where x2 = 0, a non-pure quartic elsewhere
            "x1; x0*x3^2 - x2^3",
            # (x3^2 - x0*x3 - 2*x0^2)^2, non-pure off x0 = 0
            "x1 - x2; x3^2 - x0*x3 - 2*x0^2",
            # the origin is the only prefix
            "x0^2 + x1^2 + x2^2; x0*x3 - x1^2"):
        cases.append(([parse_poly(t, num_vars=4) for t in texts.split(";")],
                      4))
    return cases


def prefix_branches(gens, B):
    """The kernel branches that S = sum g^2 takes on the prefix cells, the
    zeros in [-B, B]^3 of the generators free of x3, each cell classed by
    the effective degree of its residual in x3 as the kernel classes it."""
    S = sum((g * g for g in gens[1:]), gens[0] * gens[0])
    inner = [g for g in gens if all(e[3] == 0 for e in g.terms)]
    branches = set()
    for x in itertools.product(range(-B, B + 1), repeat=3):
        if any(g.evaluate(x + (0,)) for g in inner):
            continue
        residual = S
        for v in x:
            residual = residual.substitute_value(0, v)
        c = [residual.terms.get((j,), 0) for j in range(S.degree + 1)]
        k = max((j for j, cj in enumerate(c) if cj), default=-1)
        branches.add("full range" if k == -1 else "constant" if k == 0
                     else "linear" if k == 1 else "quadratic" if k == 2
                     else "scan" if any(c[1:k]) else "pure power")
    return branches


def test_enumerate_variety_matches_brute_force(monkeypatch):
    # the cell-list kernel, chunks of two cells that end in one-cell chunks
    # on odd cell counts, and the forced big-int path against the oracle
    from ratpoints import enumeration

    chunks = []
    real = enumeration._cell_slices

    def spy(cells, dtype):
        for chunk in real(cells, dtype):
            chunks.append(chunk[3][0])
            yield chunk
    monkeypatch.setattr(enumeration, "_cell_slices", spy)
    cases = variety_cases()
    nonempty = without_x3 = 0
    for gens, B in cases:
        without_x3 += any(all(e[3] == 0 for e in g.terms) for g in gens)
        oracle = brute_variety_points(gens, B)
        assert enumerate_projective_variety(gens, B) == oracle, (
            [g.to_text() for g in gens], B)
        with monkeypatch.context() as m:
            m.setattr(enumeration, "TILE_CELLS", 2)
            assert enumerate_projective_variety(gens, B) == oracle
        with monkeypatch.context() as m:
            m.setattr(enumeration, "INT64_LIMIT", 0)
            assert enumerate_projective_variety(gens, B) == oracle
        nonempty += bool(oracle)
    assert nonempty >= 20 and without_x3 >= 10, (nonempty, without_x3)
    assert 1 in chunks and max(chunks) > 2
    # a sum of squares has even degree in x3 at every prefix, so no
    # variety reaches the linear branch; tests/test_enumeration_paths.py
    # runs it on cell lists directly
    reached = set.union(*(prefix_branches(gens, B) for gens, B in cases[-6:]))
    assert {"quadratic", "pure power", "scan", "full range"} <= reached


def test_enumerate_variety_rejects_bad_input(capsys):
    from ratpoints import cli

    conic = parse_poly("x0*x2 - x1^2", num_vars=4)
    with pytest.raises(ValueError, match="homogeneous"):
        enumerate_projective_variety(
            [conic, parse_poly("x0*x2 - x1", num_vars=4)], 5)
    with pytest.raises(ValueError, match="B must be >= 1"):
        enumerate_projective_variety([conic], 0)
    with pytest.raises(ValueError, match="nonzero"):
        enumerate_projective_variety([conic, IntPoly.zero(4)], 5)
    with pytest.raises(ValueError, match="variable count"):
        enumerate_projective_variety([conic, parse_poly("x0 - x1")], 5)
    twisted = "x0*x2 - x1^2; x0*x3 - x1*x2; x1*x3 - x2^2"
    for args, message in [
        (["--gens", "x0*x2 - x1"], "generators must be homogeneous"),
        (["--gens", twisted, "--center", "1,2"],
         "--center needs 4 coordinates, got 2"),
        (["--gens", twisted, "--center", "1,0,0,0,0"],
         "--center needs 4 coordinates, got 5"),
        (["--gens", twisted, "--center", "1,1,1,1"],
         "--center lies on the variety: every generator vanishes at it"),
    ]:
        assert cli.main(["project", *args, "--bound", "3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"ratpoints: error: {message}"]


def test_enumerate_variety_matches_parameterization():
    tc = [parse_poly(s, num_vars=4)
          for s in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]
    B = 12
    pts = enumerate_projective_variety(tc, B)
    oracle = set()
    for s in range(-B, B + 1):
        for t in range(-B, B + 1):
            v = (s**3, s * s * t, s * t * t, t**3)
            if any(v):
                p = primitive_vector(v)
                if max(map(abs, p)) <= B:
                    oracle.add(p)
    assert pts == sorted(oracle)
    assert all(g.evaluate(p) == 0 for p in pts for g in tc)


def test_enumerate_variety_solves_only_projected_prefixes(monkeypatch):
    # x0*x2 - x1^2 is free of x3, so x3 is solved only at its zeros in the
    # box: at B = 200 the kernel gets them as a cell list, and at B = 1000,
    # past the kernel's int64 bound, the big-int path gets 21377 prefixes
    # rather than the box's 2001^3
    from ratpoints import enumeration

    tc = [parse_poly(s, num_vars=4)
          for s in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]
    cells = []
    slices = enumeration._cell_slices

    def cell_spy(coords, dtype):
        assert coords.shape[0] == 3 and coords.shape[1] < 30 * 200
        cells.extend(zip(*coords.tolist()))
        return slices(coords, dtype)

    solved = []
    solve = enumeration._solve_scalar

    def scalar_spy(coeffs, prefixes, bound, hits):
        def spied():
            for prefix in prefixes:
                solved.append(prefix)
                # fail at once rather than walk the box
                assert len(solved) < 30 * bound
                yield prefix
        # the prefixes of S, not of the generator free of x3
        solve(coeffs, spied() if coeffs[0].num_vars == 3 else prefixes,
              bound, hits)

    monkeypatch.setattr(enumeration, "_cell_slices", cell_spy)
    monkeypatch.setattr(enumeration, "_solve_scalar", scalar_spy)
    for B, prefixes in ((200, cells), (1000, solved)):
        pts = enumerate_projective_variety(tc, B)
        assert prefixes
        assert all(tc[0].evaluate(x + (0,)) == 0 for x in prefixes)
        # the coprime (s, t) with max(|s|, |t|)^3 <= B give every point once
        oracle = {primitive_vector((s**3, s * s * t, s * t * t, t**3))
                  for s in range(-10, 11) for t in range(-10, 11)
                  if math.gcd(s, t) == 1 and max(abs(s), abs(t))**3 <= B}
        assert set(pts) == oracle
    assert len(solved) == 21377 and {len(x) for x in solved} == {3}
