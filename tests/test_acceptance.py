"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import random
import time

from oracles import brute_affine, conic_affine_points
from test_curves import corpus as conic_corpus

from ratpoints.curves import EmptyParam, conic_parameterize, conic_points
from ratpoints.detmethod import (AuxiliaryForm, RankFull, bezout_bound,
                                 build_determinant, divisibility_check,
                                 extract_auxiliary_form, partition_by_residue,
                                 prime_window, select_monomials,
                                 theta_exponent)
from ratpoints.enumeration import (CountSeries, count_affine,
                                   count_affine_surface, count_projective,
                                   count_roots_bounded,
                                   enumerate_projective_variety, slice_form,
                                   verify_slicing)
from ratpoints.geometry import find_projection_center, project_point
from ratpoints.harness import ExperimentConfig, fit_exponent, run_experiment
from ratpoints.poly import IntPoly, monomials_of_degree, parse_poly, poly_divides

FERMAT = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
TWISTED = [parse_poly(s, num_vars=4)
           for s in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_root_cluster_bound():
    rng = random.Random(20260810)
    start = time.time()
    for _ in range(500):
        delta = rng.randint(1, 6)
        coeffs = [rng.randint(-1000, 1000) for _ in range(delta)]
        coeffs.append(rng.choice([c for c in range(-1000, 1001) if c]))
        T = rng.randint(1, 10**6)
        exact, bound = count_roots_bounded(coeffs, T)
        assert exact <= bound, (coeffs, T, exact, bound)
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"500 random polynomials certified in {elapsed:.1f}s")


def _random_cubic(rng, nv):
    terms = {e: rng.randint(-5, 5) for e in monomials_of_degree(nv, 3)}
    F = IntPoly(nv, terms)
    return F if not F.is_zero() else IntPoly(nv, {(3,) + (0,) * (nv - 1): 1})


def test_criterion_2_slicing_inequality_and_order_equivalence():
    rng = random.Random(4022)
    checked_forms = 0
    for nv, B in ((3, 12), (4, 8)):
        for _ in range(25):
            F = _random_cubic(rng, nv)
            lhs, rhs = verify_slicing(F, B)
            assert lhs <= rhs
            for b in range(-B, B + 1):
                fb = slice_form(F, b)
                if fb.is_zero():
                    continue
                assert count_affine(fb, B) == brute_affine(fb, B), \
                    (F.to_text(), b)
            checked_forms += 1
    assert checked_forms == 50
    report(2, "50 random cubic forms: N(F;B) <= sum M(f_b;B), "
              "and the solver agrees with the brute-force scan on every slice")


def test_criterion_3_conic_pipeline_completeness():
    start = time.time()
    B = 10**4
    conics = conic_corpus()
    assert len(conics) >= 10
    worked = conics[0]
    param0 = conic_parameterize(worked, 100)
    # 2*R = (2t^2, 2t, 2), each as coefficients low degree first
    assert param0.classes[0].double_r == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    for data in conics:
        param = conic_parameterize(data, B)
        oracle = conic_affine_points(data, B)
        if isinstance(param, EmptyParam):
            assert oracle == []
            continue
        assert conic_points(param, B) == oracle, (data.plane,
                                                  data.q.to_text())
    elapsed = time.time() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(3, f"{len(conics)} tangent conics: parameterized points equal "
              f"brute force exactly at B=10^4 ({elapsed:.1f}s)")


def test_criterion_4_q_divisibility():
    X = [IntPoly.variable(4, i) for i in range(4)]
    curves = {
        1: ([X[2], X[3]], lambda t: (1, t, 0, 0)),
        2: ([X[3], X[0] * X[2] - X[1] ** 2], lambda t: (1, t, t * t, 0)),
        3: (TWISTED, lambda t: (1, t, t * t, t ** 3)),
    }
    rng = random.Random(404)
    instances = 0
    for q in (5, 7, 11, 13):
        for e, (gens, point) in curves.items():
            selections = {k: select_monomials(gens, e, k) for k in (1, 3, 5, 8)}
            for k, sel in selections.items():
                t0 = rng.randint(0, q - 1)
                pts = [point(t0 + q * j) for j in range(k)]
                cert = build_determinant(pts, sel)
                verdict = divisibility_check(cert, q, gens, pts[0])
                assert verdict.applicable
                assert verdict.passed, (e, q, k, cert.det)
                instances += 1
    report(4, f"{instances} determinant instances: det = 0 or "
              "q^(k(k-1)/2) divides det, exactly")


def test_criterion_5_monomial_selection():
    X = [IntPoly.variable(4, i) for i in range(4)]
    ideals = {1: [X[2], X[3]],
              2: [X[3], X[0] * X[2] - X[1] ** 2],
              3: TWISTED}
    ratios = {}
    for e, gens in ideals.items():
        sel = select_monomials(gens, e, 80)  # independence checked exactly
        ratio = sel.degree_sum * 2 * e / 80**2
        assert 0.8 <= ratio <= 1.2, (e, ratio)
        ratios[e] = round(ratio, 3)
    report(5, f"k=80 selections for e in (1,2,3); degree-sum ratios {ratios}")


def test_criterion_6_auxiliary_forms():
    B = 100
    window = prime_window(B, 3, 0.05, 4)
    assert window.primes == [19, 23, 29, 31]
    _, points = count_affine_surface(FERMAT, B)
    classes_done = 0
    for p in window.primes:
        classes = {residue: members for residue, (members, _cls) in
                   partition_by_residue(points, p, FERMAT).items()
                   if len(members) >= 2}
        forms = {}
        todo = list(classes)
        for D in range(2, 7):
            outs = extract_auxiliary_form([classes[r] for r in todo], D,
                                          FERMAT)
            # a degenerate class ends the search, as it ends the CLI's
            assert not any(isinstance(o, ValueError) for o in outs), (p, D)
            forms.update((r, out) for r, out in zip(todo, outs)
                         if isinstance(out, AuxiliaryForm))
            todo = [r for r, out in zip(todo, outs)
                    if isinstance(out, RankFull)]
        for residue, members in classes.items():
            form = forms.get(residue)
            assert form is not None, (p, residue, "no auxiliary form by D=6")
            assert all(form.form.evaluate(pt) == 0 for pt in members)
            assert not poly_divides(FERMAT, form.form)
            classes_done += 1
    assert classes_done > 0
    report(6, f"{classes_done} residue classes over primes {window.primes}: "
              "auxiliary form found at D <= 6, vanishing exactly, F does "
              "not divide it")


def test_criterion_7_theta_exponent():
    assert theta_exponent(2, 2) == 12
    assert bezout_bound(3, 4) == 12
    report(7, "theta_exponent(2,2) = 12")


def test_criterion_8_projection():
    B = 50
    points = enumerate_projective_variety(TWISTED, B)
    assert points
    found = find_projection_center(TWISTED, 3, 2, points)
    assert found is not None
    setup, rep = found
    assert rep.passed
    assert max(rep.fiber_histogram) <= 3
    for x in points:
        img = project_point(setup, x)  # height contract checked inside
        assert img[setup.j] == 0
    report(8, f"twisted cubic projected from {setup.h}: "
              f"{len(points)} points, c = {setup.c}, fibers "
              f"{dict(rep.fiber_histogram)}")


def test_criterion_9_exponent_fits():
    start = time.time()
    fits = {}

    series_a = CountSeries([
        (B, count_projective(FERMAT, B)) for B in (16, 32, 64, 128, 256)])
    slope_a = fit_exponent(series_a).slope
    assert 1.7 <= slope_a <= 2.3, slope_a
    fits["fermat"] = round(slope_a, 3)
    elapsed_a = time.time() - start
    assert elapsed_a < 600, f"took {elapsed_a:.1f}s"

    ext = parse_poly("t1 - t2^2", num_vars=3)
    series_b = CountSeries([
        (B, count_affine(ext, B)) for B in (100, 1000, 10000)])
    slope_b = fit_exponent(series_b).slope
    assert 1.35 <= slope_b <= 1.65, slope_b
    fits["extremal"] = round(slope_b, 3)

    conic = parse_poly("x0*x2 - x1^2")
    series_c = CountSeries([
        (B, count_projective(conic, B)) for B in (100, 1000, 10000)])
    slope_c = fit_exponent(series_c).slope
    assert 0.85 <= slope_c <= 1.15, slope_c
    fits["conic"] = round(slope_c, 3)

    report(9, f"slopes {fits} inside their windows "
              f"({time.time() - start:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        cfg = ExperimentConfig(poly="x0^3 + x1^3 + x2^3 + x3^3",
                               function="N", bmax=32, grid_count=3,
                               out_dir=str(out), seed=7,
                               target_exponent=2.0)
        run_experiment(cfg)
        blobs.append(((out / "series.csv").read_bytes(),
                      (out / "report.json").read_bytes()))
    assert blobs[0] == blobs[1]

    # CLI emission is byte-identical across reruns
    import subprocess
    import sys

    runs = []
    for _ in range(2):
        r = subprocess.run(
            [sys.executable, "-m", "ratpoints.cli", "conic-param",
             "--plane", "1,0,0,1", "--quadric", "x0*x1 - x2^2",
             "--bound", "100"],
            capture_output=True)
        runs.append(r.stdout)
    assert runs[0] == runs[1]
    json.loads(runs[0])
    report(10, "byte-identical CSV/JSON across reruns")
