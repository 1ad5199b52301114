import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, log

import pytest

import ratpoints
from oracles import conic_affine_points
from ratpoints import cli
from ratpoints.curves import (ConicClass, EmptyParam, class_r_values,
                              conic_parameterize, conic_points,
                              count_class_points, plane_eliminate,
                              tangency_rank)
from ratpoints.exact import unimodular_complete
from ratpoints.poly import IntPoly, parse_poly
from ratpoints.uniroots import evaluate


def test_plane_eliminate_examples():
    data = plane_eliminate((1, 0, 0, 1), parse_poly("x0*x1 - x2^2"))
    assert data.q == parse_poly("x0*x1 - x2^2", num_vars=3)
    assert data.is_integral and data.elim_index == 3

    data2 = plane_eliminate((0, 1, 0, -1), parse_poly("x1*x3 - x2^2"))
    # plane X3 = X1 cuts X1*X3 - X2^2 in the line pair X1^2 = X2^2
    assert not data2.is_integral

    with pytest.raises(ValueError, match="infinity"):
        plane_eliminate((1, 0, 0, 0), parse_poly("x0*x1 - x2^2"))


def test_plane_eliminate_resubstitution_identity():
    # q must vanish exactly on plane-section points
    rng = random.Random(5)
    plane = (3, 1, -2, 5)
    Q = parse_poly("x0*x3 - x1*x2 + x2^2 - 2*x0^2")
    data = plane_eliminate(plane, Q)
    a = data.plane
    for _ in range(200):
        u, v = rng.randint(-8, 8), rng.randint(-8, 8)
        x0 = rng.randint(-4, 4)
        # solve the plane for the eliminated coordinate over Q
        num = a[0] * x0 - a[data.kept[0]] * u - a[data.kept[1]] * v
        if num % a[data.elim_index]:
            continue
        w = num // a[data.elim_index]
        coord = {0: x0, data.kept[0]: u, data.kept[1]: v,
                 data.elim_index: w}
        x = tuple(coord[i] for i in range(4))
        assert (Q.evaluate(x) == 0) == (data.q.evaluate((x0, u, v)) == 0)


def test_tangency_rank_examples():
    assert tangency_rank(parse_poly("x0*x1 - x2^2", num_vars=3)) == 1
    assert tangency_rank(parse_poly("x0^2 - x1^2 - x2^2")) == 2
    assert tangency_rank(parse_poly("x0^2", num_vars=3)) == 0


def test_worked_conic_pipeline():
    data = plane_eliminate((1, 0, 0, 1), parse_poly("x0*x1 - x2^2"))
    par = conic_parameterize(data, 100)
    assert par.denominator == 1
    assert len(par.classes) == 1
    cls = par.classes[0]
    assert cls.double_r == ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert count_class_points(cls, 100) == 21


def test_degenerate_pair_of_lines_rejected():
    # binary rank 1 but f = 0: q = (X1)^2 - X0*X1 ... choose pair of lines
    q = parse_poly("x1^2 - x0^2", num_vars=3)  # rank-1 at infinity? check
    # (X1-X0)(X1+X0): tangency rank of x1^2 is 1, f = 0 triggers the error
    data = plane_eliminate((1, 0, 0, 1),
                           parse_poly("x1^2 - x0^2", num_vars=4))
    if data.is_integral:
        with pytest.raises(ValueError):
            conic_parameterize(data, 10)


def test_empty_param():
    far = plane_eliminate((1, 0, 0, 1),
                          parse_poly("x0*x1 - x2^2 - 1000000*x0^2"))
    out = conic_parameterize(far, 100)
    assert isinstance(out, EmptyParam)
    assert conic_affine_points(far, 100) == []


def corpus():
    """Tangent conics as (plane, quadric) pairs, including the worked one."""
    planes_quadrics = [
        ((1, 0, 0, 1), "x0*x1 - x2^2"),
        ((1, 0, 0, 1), "x0*x1 - x2^2 + 3*x0^2"),
        ((1, 0, 0, 1), "x1^2 + x0*x2"),
        ((1, 0, 0, 1), "x1^2 + 2*x1*x2 + x2^2 + x0*x2"),
        ((1, 0, 0, 1), "2*x1^2 - 4*x1*x2 + 2*x2^2 + x0*x1 + x0*x2 + 3*x0^2"),
        ((1, 0, 0, 1), "x1^2 + 4*x1*x2 + 4*x2^2 + 2*x0*x1 - x0*x2 + 5*x0^2"),
        ((1, 0, 0, 1), "x1^2 + 6*x1*x2 + 9*x2^2 + x0*x1 + x0*x2 - 7*x0^2"),
        ((1, 0, 0, 1), "5*x1^2 + 10*x1*x2 + 5*x2^2 + 2*x0*x1 + 4*x0^2"),
        ((1, 0, 0, 1), "-2*x1^2 + 4*x0*x1 + 2*x0*x2 + x0^2"),
        ((0, 1, 0, 2), "x0*x3 - x2^2"),
        ((2, 1, 1, 3), "x0*x1 - x2^2 + x1*x3"),
        ((1, 2, 0, 3), "x0*x3 - x1^2 + x2^2 - 2*x1*x2"),
    ]
    out = []
    for plane, qtext in planes_quadrics:
        data = plane_eliminate(plane, parse_poly(qtext, num_vars=4))
        if data.is_integral and tangency_rank(data.q) == 1:
            out.append(data)
    return out


def test_corpus_is_large_enough():
    assert len(corpus()) >= 10


def test_completeness_on_corpus_small_heights():
    for data in corpus():
        for B in (10, 100):
            param = conic_parameterize(data, B)
            oracle = conic_affine_points(data, B)
            if isinstance(param, EmptyParam):
                assert oracle == [], (data.plane, data.q.to_text())
                continue
            got = conic_points(param, B)
            assert got == oracle, (data.plane, data.q.to_text(), B)


def test_class_invariants():
    for data in corpus():
        param = conic_parameterize(data, 100)
        if isinstance(param, EmptyParam):
            continue
        D = param.denominator
        divisors = [d for d in range(1, D + 1) if D % d == 0]
        assert len(param.classes) <= len(divisors)
        for cls in param.classes:
            assert D % cls.lam == 0
            assert D % cls.modulus == 0
            # integer-valuedness at three consecutive arguments
            for t in (0, 1, 2):
                for two_r in cls.double_r:
                    assert evaluate(two_r, t) % 2 == 0
            # parameterized points satisfy plane and quadric exactly
            a = data.plane
            for t in (-3, 0, 5):
                x = (1,) + class_r_values(cls, t)
                assert a[0] * x[0] == a[1] * x[1] + a[2] * x[2] + a[3] * x[3]
                assert data.q.evaluate(
                    (1, x[data.kept[0]], x[data.kept[1]])) == 0
        if D > 1:
            assert param.kappa_empirical == log(D) / log(100)


def test_elimination_of_other_coordinates():
    # plane X0 = X2 eliminates X2; the conic is X0*X1 = X3^2 on that plane
    data = plane_eliminate((1, 0, 1, 0), parse_poly("x0*x1 - x3^2"))
    assert data.elim_index == 2 and data.kept == (1, 3)
    assert tangency_rank(data.q) == 1 and data.is_integral
    param = conic_parameterize(data, 50)
    got = conic_points(param, 50)
    assert got == conic_affine_points(data, 50)
    assert got and all(p[2] == 1 for p in got)  # x2 = x0 = 1 on the plane

    # plane X0 = 2*X1 eliminates X1 and forces x1 = 1/2 on the affine chart
    data2 = plane_eliminate((1, 2, 0, 0), parse_poly("x1*x2 - x3^2"))
    assert data2.elim_index == 1 and data2.kept == (2, 3)
    if data2.is_integral and tangency_rank(data2.q) == 1:
        out = conic_parameterize(data2, 50)
        assert isinstance(out, EmptyParam)
    assert conic_affine_points(data2, 50) == []


def test_completeness_on_random_tangent_conics():
    # random rank-1-at-infinity quadrics through the X3 = X0 plane
    rng = random.Random(271828)
    from ratpoints.poly import pad_vars

    checked = 0
    while checked < 30:
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        alpha = rng.randint(0, 4)
        beta = rng.randint(-4, 4)
        if gcd(alpha, abs(beta)) != 1:
            continue
        b, c, d = (rng.randint(-5, 5) for _ in range(3))
        q = IntPoly(3, {
            (0, 2, 0): a * alpha * alpha,
            (0, 1, 1): 2 * a * alpha * beta,
            (0, 0, 2): a * beta * beta,
            (1, 1, 0): b,
            (1, 0, 1): c,
            (2, 0, 0): d,
        })
        data = plane_eliminate((1, 0, 0, 1), pad_vars(q, 4))
        if not data.is_integral or tangency_rank(data.q) != 1:
            continue
        checked += 1
        for B in (30, 300):
            param = conic_parameterize(data, B)
            oracle = conic_affine_points(data, B)
            if isinstance(param, EmptyParam):
                assert oracle == [], (q.to_text(), B)
            else:
                assert conic_points(param, B) == oracle, (q.to_text(), B)


def test_count_class_points_examples():
    cls = ConicClass(1, 1, 0, ((0, 0, 2), (0, 2, 0), (2, 0, 0)))
    assert count_class_points(cls, 100) == 21
    cls5 = ConicClass(1, 1, 0, ((0, 0, 10), (0, 2, 0), (2, 0, 0)))
    assert count_class_points(cls5, 100) == 9
    const = ConicClass(1, 1, 0, ((8, 0, 0), (4, 0, 0), (2, 0, 0)))
    assert count_class_points(const, 100) == 1
    assert count_class_points(const, 3) == 0


def window_scan_referee(data, B):
    """The Fraction window scan that conic_parameterize ran before its
    residue-class search, kept as a referee.

    Returns (L, window, result): L is the lcm of the denominators of the
    three coordinate quadratics, and result is (search_window,) for an
    empty conic and (base_y, denominator, records) otherwise.  Each record
    is (lambda, modulus, base, 2R coefficients low to high); the class
    congruences are solved by scanning every residue, not by CRT.
    """
    q = data.q.terms
    b11, b12, b22 = (q.get(e, 0) for e in ((0, 2, 0), (0, 1, 1), (0, 0, 2)))
    g = gcd(gcd(b11, b12), b22)
    a = g if (b11 or b22) > 0 else -g
    alpha = isqrt(b11 // a)
    beta = b12 // (2 * a * alpha) if alpha else isqrt(b22 // a)
    gamma, delta = unimodular_complete(alpha, beta)
    b, c, d = (q.get(e, 0) for e in ((1, 1, 0), (1, 0, 1), (2, 0, 0)))
    e, f = b * delta - c * gamma, c * alpha - b * beta
    # (quad, lin, const) in Y of Y2 = -(a*Y^2 + e*Y + d)/f, then of the
    # kept coordinates delta*Y - beta*Y2 and alpha*Y2 - gamma*Y
    y2 = [Fraction(-a, f), Fraction(-e, f), Fraction(-d, f)]
    k0 = [-beta * y2[0], delta - beta * y2[1], -beta * y2[2]]
    k1 = [alpha * y2[0], alpha * y2[1] - gamma, alpha * y2[2]]
    pl = data.plane
    el = [(pl[0] * (k == 2) - pl[data.kept[0]] * k0[k]
           - pl[data.kept[1]] * k1[k]) / pl[data.elim_index] for k in range(3)]
    by_coord = {data.kept[0]: k0, data.kept[1]: k1, data.elim_index: el}
    polys = [by_coord[i] for i in (1, 2, 3)]
    L = lcm(*(x.denominator for p in polys for x in p))

    def val(p, y):
        return p[0] * y * y + p[1] * y + p[2]

    window = (abs(alpha) + abs(beta)) * B
    for y in sorted(range(-window, window + 1), key=lambda y: (abs(y), y < 0)):
        if all(v.denominator == 1 and abs(v) <= B
               for v in (val(p, y) for p in polys)):
            break
    else:
        return L, window, (window,)
    lin = [2 * p[0] * y + p[1] for p in polys]
    D = lcm(*(x.denominator for x in lin + [p[0] for p in polys]))
    records = []
    for lam in (k for k in range(1, D + 1) if D % k == 0):
        mu = D // lam
        ws = [w for w in range(mu)
              if all((p[0] * lam * w + l) * D % mu == 0
                     for p, l in zip(polys, lin))]
        if not ws:
            continue
        z, step = lam * ws[0], lam * (ws[1] - ws[0] if len(ws) > 1 else mu)
        two_r = tuple(
            tuple(2 * x for x in (val(p, y + z), (2 * p[0] * (y + z) + p[1])
                                  * step, p[0] * step * step))
            for p in polys)
        assert all(x.denominator == 1 for r in two_r for x in r)
        records.append((lam, step, z,
                        tuple(tuple(int(x) for x in r) for r in two_r)))
    return L, window, (y, D, records)


def residue_class_result(data, B):
    """conic_parameterize in the referee's shape, without the leading L."""
    out = conic_parameterize(data, B)
    if isinstance(out, EmptyParam):
        return (out.search_window,)
    records = [(cls.lam, cls.modulus, cls.base, cls.double_r)
               for cls in out.classes]
    return out.base_y, out.denominator, records


def random_tangent_conic(rng):
    """A tangent conic on a random plane, with the eliminated coordinate
    chosen at random so that L picks up the plane's coefficient."""
    while True:
        s = rng.choice([-3, -2, -1, 1, 2, 3])
        alpha, beta = rng.randint(0, 4), rng.randint(-4, 4)
        if gcd(alpha, abs(beta)) != 1:
            continue
        b, c, d = (rng.randint(-9, 9) for _ in range(3))
        elim = rng.randint(1, 3)
        plane = [rng.randint(-4, 4) if i < elim else 0 for i in range(4)]
        plane[elim] = rng.choice([-6, -5, -3, -2, -1, 1, 2, 3, 4, 5, 7])
        k0, k1 = (i for i in (1, 2, 3) if i != elim)
        # q(X0, X_k0, X_k1) = s*(alpha*X_k0 + beta*X_k1)^2 + X0*(b*X_k0 +
        # c*X_k1 + d*X0), placed in the kept variables of P^3
        terms = {}
        for exp, coef in (((0, 2, 0), s * alpha * alpha),
                          ((0, 1, 1), 2 * s * alpha * beta),
                          ((0, 0, 2), s * beta * beta),
                          ((1, 1, 0), b), ((1, 0, 1), c), ((2, 0, 0), d)):
            full = [0, 0, 0, 0]
            full[0], full[k0], full[k1] = exp
            terms[tuple(full)] = coef
        data = plane_eliminate(tuple(plane), IntPoly(4, terms))
        if data.is_integral and tangency_rank(data.q) == 1:
            return data


def test_residue_class_search_matches_window_scan():
    cases = [(data, B) for data in corpus() for B in (1, 10, 100, 1000)]
    rng = random.Random(8128)
    cases += [(random_tangent_conic(rng), rng.choice((1, 1, 2, 7, 60)))
              for _ in range(400)]
    seen = {"empty": 0, "param": 0, "L > window": 0, "B = 1": 0}
    for data, B in cases:
        L, window, want = window_scan_referee(data, B)
        assert residue_class_result(data, B) == want, (
            data.plane, data.q.to_text(), B)
        seen["empty" if len(want) == 1 else "param"] += 1
        seen["L > window"] += L > window
        seen["B = 1"] += B == 1
    assert min(seen.values()) >= 20, seen


def test_curves_and_geometry_certificates_survive_python_O():
    # the script's own assert fails unless -O has stripped it; the
    # certificates must raise CertificateError all the same
    script = (
        "import ratpoints.curves as cv, ratpoints.geometry as geo\n"
        "from ratpoints import cli\n"
        "from ratpoints.exact import CertificateError\n"
        "assert False, 'asserts are live'\n"
        "cv.class_points = lambda cls, B: [(1, 0, 0, 0)] * 100\n"
        "r = (0, 0, 2)\n"
        "cls = cv.ConicClass(1, 1, 0, (r, r, r))\n"
        "setup = geo.build_projection_setup((0, 0, 0, 1))\n"
        "setup.c = 0\n"
        "conic = ['conic-param', '--plane', '1,0,0,1', '--quadric',\n"
        "         'x1^2 + x0*x2', '--bound', '1']\n"
        "off = geo.build_projection_setup((0, 0, 0, 1))\n"
        "def off_plane():\n"
        "    geo.primitive_vector = lambda v: (1, 1, 1, 1)  # not on x3 = 0\n"
        "    geo.project_point(off, (1, 1, 1, 1))\n"
        "odd = cv.ConicClass(1, 1, 0, ((1, 0, 0), r, r))\n"
        "for check in (lambda: cv.count_class_points(cls, 1),\n"
        "              lambda: cli.main(conic),\n"
        "              lambda: geo.project_point(setup, (1, 1, 1, 1)),\n"
        "              off_plane,\n"
        "              lambda: cv.class_r_values(odd, 0)):\n"
        "    try:\n"
        "        check()\n"
        "    except CertificateError as exc:\n"
        "        print('raised:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == ("raised: class count 100 above the cluster bound\n"
                   "raised: class count 100 above the cluster bound\n"
                   "raised: image height 1 above 0 * 1\n"
                   "raised: image lies off the target plane\n"
                   "raised: R value not integral\n")


def test_conic_parameterize_certificates_survive_python_O():
    # one helper at a time returns a wrong value; under -O each of the four
    # conic_parameterize certificates must still raise CertificateError
    script = (
        "import ratpoints.curves as cv\n"
        "from ratpoints.exact import CertificateError\n"
        "from ratpoints.poly import parse_poly\n"
        "assert False, 'asserts are live'\n"
        "data = cv.plane_eliminate((1, 0, 0, 1), parse_poly(\n"
        "    'x1^2 + 4*x1*x2 + 4*x2^2 + 2*x0*x1 - x0*x2 + 5*x0^2'))\n"
        "isqrt = cv.isqrt\n"
        "fakes = (('isqrt', lambda n: isqrt(n) + 1),\n"
        "         ('unimodular_complete', lambda a, b: (0, 0)),\n"
        "         ('_base_point', lambda *args: 1),\n"
        "         ('_merge_congruence', lambda cls, c, r, m: (1, m)))\n"
        "for name, fake in fakes:\n"
        "    real = getattr(cv, name)\n"
        "    setattr(cv, name, fake)\n"
        "    try:\n"
        "        cv.conic_parameterize(data, 100)\n"
        "    except CertificateError as exc:\n"
        "        print('raised:', exc)\n"
        "    setattr(cv, name, real)\n"
    )
    src = os.path.dirname(os.path.dirname(ratpoints.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    # the conic's denominator is 5, so a wrong base point or class shows
    assert out == ("raised: q(0, Y, Z) is not a*(alpha*Y + beta*Z)^2\n"
                   "raised: unimodular substitution identity failed\n"
                   "raised: base point is not integral\n"
                   "raised: 2R not integral\n")


CONIC_PARAM_PINS = [
    # D = 5, two classes
    ("1,0,0,1", "x1^2 + 4*x1*x2 + 4*x2^2 + 2*x0*x1 - x0*x2 + 5*x0^2", """\
{
  "classes": [
    {
      "base": 3,
      "count": 6,
      "double_r": [
        "-20*t1^2 - 22*t1 - 10",
        "10*t1^2 + 16*t1 + 8",
        "2"
      ],
      "lambda": 1,
      "modulus": 5
    },
    {
      "base": 0,
      "count": 7,
      "double_r": [
        "-20*t1^2 + 2*t1 - 4",
        "10*t1^2 + 4*t1 + 2",
        "2"
      ],
      "lambda": 5,
      "modulus": 5
    }
  ],
  "count": 13,
  "denominator": 5,
  "eliminated": 3,
  "gram_det": -50,
  "kappa_empirical": 0.3494850021680094,
  "plane": [
    1,
    0,
    0,
    1
  ],
  "tangency_rank": 1,
  "ternary": "4*x2^2 + 4*x1*x2 - x0*x2 + x1^2 + 2*x0*x1 + 5*x0^2",
  "verdict": "parameterized"
}
"""),
    # D = 2
    ("1,0,0,1", "5*x1^2 + 10*x1*x2 + 5*x2^2 + 2*x0*x1 + 4*x0^2", """\
{
  "classes": [
    {
      "base": 0,
      "count": 7,
      "double_r": [
        "-20*t1^2 - 4",
        "20*t1^2 + 4*t1 + 4",
        "2"
      ],
      "lambda": 1,
      "modulus": 2
    },
    {
      "base": 0,
      "count": 7,
      "double_r": [
        "-20*t1^2 - 4",
        "20*t1^2 + 4*t1 + 4",
        "2"
      ],
      "lambda": 2,
      "modulus": 2
    }
  ],
  "count": 7,
  "denominator": 2,
  "eliminated": 3,
  "gram_det": -40,
  "kappa_empirical": 0.15051499783199057,
  "plane": [
    1,
    0,
    0,
    1
  ],
  "tangency_rank": 1,
  "ternary": "5*x2^2 + 10*x1*x2 + 5*x1^2 + 2*x0*x1 + 4*x0^2",
  "verdict": "parameterized"
}
"""),
    # empty
    ("1,0,0,1", "x1^2 + 6*x1*x2 + 9*x2^2 + x0*x1 + x0*x2 - 7*x0^2", """\
{
  "classes": [],
  "count": 0,
  "eliminated": 3,
  "gram_det": -8,
  "plane": [
    1,
    0,
    0,
    1
  ],
  "search_window": 400,
  "tangency_rank": 1,
  "ternary": "9*x2^2 + 6*x1*x2 + x0*x2 + x1^2 + x0*x1 - 7*x0^2",
  "verdict": "empty"
}
"""),
    # not tangent
    ("2,1,1,3", "x0*x1 - x2^2 + x1*x3", """\
{
  "eliminated": 3,
  "gram_det": 150,
  "plane": [
    2,
    1,
    1,
    3
  ],
  "tangency_rank": 2,
  "ternary": "-3*x2^2 - x1*x2 - x1^2 + 5*x0*x1",
  "verdict": "not tangent to the plane at infinity"
}
"""),
]


@pytest.mark.parametrize("plane, quadric, expected", CONIC_PARAM_PINS)
def test_conic_param_output_pinned(capsys, plane, quadric, expected):
    assert cli.main(["conic-param", "--plane", plane, "--quadric", quadric,
                     "--bound", "100"]) == 0
    assert capsys.readouterr().out == expected
