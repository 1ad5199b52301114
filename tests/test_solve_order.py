"""The variable that ``_solve_zeros`` solves for: its rule, level by level,
and that no reordering changes a count, a histogram or a point list."""

import itertools
import random

import pytest

import ratpoints.enumeration as en
from oracles import (brute_affine, brute_projective, brute_projective_points,
                     brute_variety_points)
from ratpoints.enumeration import (ResidueFilter, count_affine,
                                   count_affine_surface, count_projective,
                                   enumerate_projective_variety)
from ratpoints.poly import IntPoly, monomials_of_degree, parse_poly

GENERIC_CUBIC = "x0^3 + 2*x1^3 + 3*x2^2*x3 - x1*x2*x3 + x3^3"


@pytest.fixture
def solved(monkeypatch):
    """The S of every ``_solve_in_order`` call, in call order: the first is
    the top level's, with its chosen variable last."""
    calls = []

    def call(gens, S, *args, _real=en._solve_in_order):
        calls.append(S)
        return _real(gens, S, *args)
    monkeypatch.setattr(en, "_solve_in_order", call)
    return calls


def parse_all(texts, nv):
    return [parse_poly(t, num_vars=nv) for t in texts.split(";")]


def reorder(f, order):
    """f with variable order[i] in slot i: its zeros are the zeros x of f
    read as tuple(x[k] for k in order)."""
    return IntPoly(f.num_vars, {tuple(e[k] for k in order): c
                                for e, c in f.terms.items()})


def positive(x):
    """x or -x, whichever has a positive first nonzero coordinate."""
    return x if next(c for c in x if c) > 0 else tuple(-c for c in x)


def all_zeros(gens, B):
    """The common zeros of gens in [-B, B]^n, lexicographic, and their
    height histogram, by a scan."""
    pts = [x for x in itertools.product(range(-B, B + 1),
                                        repeat=gens[0].num_vars)
           if all(g.evaluate(x) == 0 for g in gens)]
    hist = [0] * (B + 1)
    for x in pts:
        hist[max(map(abs, x), default=0)] += 1
    return pts, hist


def scanned_cells(f, B):
    """The cells of [-B, B]^(n - 1) whose residual in the last variable
    the kernel scans: of effective degree 3 or more, and not a pure
    power."""
    coeffs = en._last_var_coefficients(f)
    n = 0
    for x in itertools.product(range(-B, B + 1), repeat=f.num_vars - 1):
        c = [p.evaluate(x) for p in coeffs]
        k = max((j for j, cj in enumerate(c) if cj), default=-1)
        n += k >= 3 and any(c[1:k])
    return n


def random_form(rng, nv, degree):
    return IntPoly(nv, {e: rng.randint(-3, 3)
                        for e in monomials_of_degree(nv, degree)
                        if rng.random() < 0.5})


def random_generator(rng, nv):
    """A random linear or quadratic form, or a product of two linear forms,
    whose zeros are two hyperplanes and so meet other generators often."""
    kind = rng.randrange(3)
    if kind == 2:
        return random_form(rng, nv, 1) * random_form(rng, nv, 1)
    return random_form(rng, nv, kind + 1)


def test_most_free_generators_rank_first(solved):
    # x0 is the only variable a generator is free of, so it is solved for
    # though S has degree 6 in it and 2 in x1; the cells x0 = x1 come first
    gens = parse_all("x1 - x2; x0^3 - x1*x2^2", 3)
    want = parse_all("x1 - x0; x2^3 - x1*x0^2", 3)
    pts = enumerate_projective_variety(gens, 4)
    assert solved[0] == en._sum_of_squares(want)
    assert pts == brute_variety_points(gens, 4) == [(1, 1, 1)]
    # a variable every generator is free of beats any other, at degree 0
    solved.clear()
    f = parse_poly("t1*t3 - t2^2", num_vars=4)
    assert count_affine(f, 3) == brute_affine(f, 3)
    assert solved[0] is f


def test_least_degree_ranks_next(solved):
    # the generic cubic has degree 2 in x2 and 3 in the rest: solved for x2
    # its residuals are quadratic or less, where in x3 they are scanned
    F = parse_poly(GENERIC_CUBIC)
    assert count_projective(F, 3) == brute_projective(F, 3)
    S = solved[0]
    assert S == parse_poly("x0^3 + 2*x1^3 + 3*x3^2*x2 - x1*x3*x2 + x2^3")
    assert scanned_cells(F, 2) > 0 and scanned_cells(S, 2) == 0
    # the lesser degree wins over a pure power of higher degree in x2
    solved.clear()
    F = parse_poly("x0*x1^2 + x0^3 + x2^3")
    assert count_projective(F, 4) == brute_projective(F, 4)
    assert solved[0] == parse_poly("x0*x2^2 + x0^3 + x1^3")


def test_pure_power_breaks_a_degree_tie(solved):
    # degree 2 in every variable, but only x0^2 is alone in its variable:
    # c t^2 = rhs in every cell, where x1 or x2 leaves a linear term
    F = parse_poly("x0^2 + x1*x2 + x1^2 + x2^2")
    assert count_projective(F, 6, collect=True) == (
        len(brute_projective_points(F, 6)), brute_projective_points(F, 6))
    assert solved[0] == parse_poly("x2^2 + x1*x0 + x1^2 + x0^2")


def test_later_index_breaks_the_last_tie(solved):
    # x0 and x1 tie on every other level: x1, the later, is solved for
    F = parse_poly("x0*x2^2 + x1*x2^2 + x0*x1")
    assert count_affine(F, 5) == brute_affine(F, 5)
    assert solved[0] == parse_poly("x0*x1^2 + x2*x1^2 + x0*x2")
    # a tie that the last variable is in keeps the form as written
    solved.clear()
    F = parse_poly("x0*x1 + x1*x2 + x0*x2")
    assert count_projective(F, 5) == brute_projective(F, 5)
    assert solved == [F] and solved[0] is F


def test_keep_positive_reads_the_user_order(solved):
    # x0 is solved for, so the solver's first coordinate is x3: the signs
    # are kept in the user's order, where (1, 1, 1, -1) leads with x0 > 0
    gens = parse_all("x1^3 - x2*x3^2; x0*x1 - x2^2", 4)
    pts = enumerate_projective_variety(gens, 4)
    assert solved[0] == en._sum_of_squares(
        parse_all("x1^3 - x2*x0^2; x3*x1 - x2^2", 4))
    assert pts == brute_variety_points(gens, 4)
    assert {(0, 0, 0, 1), (1, 1, 1, -1), (1, 1, 1, 1)} <= set(pts)


def test_residue_filters_read_the_user_order(solved):
    # the chart x0 = 1 of the generic cubic is solved for x2, not x3; each
    # filter keeps one of its four points, which swapped x2 and x3 would
    # miss, and p = 13 > 2B meets the residue 12 at -1 alone
    F = parse_poly(GENERIC_CUBIC)
    B = 6
    for flt in ([], [ResidueFilter(3, (2, 1, 2))],
                [ResidueFilter(2, (1, 1, 1)), ResidueFilter(5, (1, 1, 4))],
                [ResidueFilter(13, (12, 0, 1))]):
        solved.clear()
        want = [(1,) + t for t in itertools.product(range(-B, B + 1),
                                                    repeat=3)
                if F.evaluate((1,) + t) == 0
                and all(x % f.p == r for f in flt
                        for x, r in zip(t, f.residues))]
        hist = [0] * (B + 1)
        for t in want:
            hist[max(map(abs, t[1:]))] += 1
        assert len(want) == (4 if not flt else 1), flt
        assert count_affine_surface(F, B, flt, collect=True,
                                    by_height=True) == (len(want), want, hist)
        assert solved[0] == parse_poly(
            "1 + 2*x0^3 + 3*x2^2*x1 - x0*x2*x1 + x1^3")


def test_permuted_forms_match_oracles_and_the_unpermuted_input():
    # every form under a random reordering of its variables: counts,
    # histograms and point lists of M and N against the oracles, against
    # the unpermuted form and against the order-preserving solver
    rng = random.Random(36)
    checked = 0
    for _ in range(30):
        nv = rng.choice((2, 3, 4))
        F = random_form(rng, nv, rng.randint(1, 3))
        if F.is_zero():
            continue
        B = {2: 7, 3: 4, 4: 2}[nv]
        order = rng.sample(range(nv), nv)
        G = reorder(F, order)
        for count, oracle in ((count_affine, brute_affine),
                              (count_projective, brute_projective)):
            n, pts, hist = count(F, B, collect=True, by_height=True)
            assert count(G, B, collect=True, by_height=True) == (
                n, sorted(tuple(x[k] for k in order) for x in pts), hist), (
                F.to_text(), order)
            assert n == oracle(F, B) == oracle(G, B), F.to_text()
        hits = en._solve_in_order([F], F, B, True)
        assert count_affine(F, B, collect=True, by_height=True) == (
            hits.count, hits.points, hits.hist.tolist()), F.to_text()
        checked += 1
    assert checked >= 25


def test_permuted_systems_match_oracles_and_the_unpermuted_input():
    # systems of 2-3 forms under a random reordering: every common zero
    # with its histogram, and the projective points, against scans, the
    # unpermuted system and the order-preserving solver
    rng = random.Random(37)
    points = 0
    for _ in range(30):
        nv = rng.choice((3, 4))
        gens = [random_generator(rng, nv) for _ in range(rng.choice((2, 3)))]
        if any(g.is_zero() for g in gens):
            continue
        B = 4 if nv == 3 else 2
        order = rng.sample(range(nv), nv)
        moved = [reorder(g, order) for g in gens]
        pts, hist = all_zeros(gens, B)
        for system, want in ((gens, pts), (moved, sorted(
                tuple(x[k] for k in order) for x in pts))):
            hits = en._solve_zeros(system, B, True)
            assert (hits.count, hits.points, hits.hist.tolist()) == (
                len(want), want, hist), ([g.to_text() for g in gens], order)
            assert en._solve_zeros(system, B, False).hist.tolist() == hist
        ref = en._solve_in_order(gens, en._sum_of_squares(gens), B, True)
        assert (ref.count, ref.points) == (len(pts), pts)
        if all(g.is_homogeneous() for g in gens):
            want = brute_variety_points(gens, B)
            assert enumerate_projective_variety(moved, B) == sorted(
                positive(tuple(x[k] for k in order)) for x in want)
            assert enumerate_projective_variety(moved, B) == (
                brute_variety_points(moved, B))
            points += len(want)
    assert points >= 20
