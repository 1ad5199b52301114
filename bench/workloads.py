"""Seeded inputs of the four benchmark workloads.

A workload is a list of ops.  An op is one CLI invocation (an argv list for
``ratpoints.cli.main``) or one ``count_roots_bounded(coeffs, T)`` call, the
entry point that has no CLI.  The program only ever sees the polynomial
texts and bounds built here; the seed stays on the benchmark's side.

Every op carries a ``check``: a function of the op's output text that
returns None or a one-line reason the output is wrong.  Checks compute
their oracle lazily, so generating the ops stays cheap and set-up time
measures set-up only.  Why each workload exists, and which layers it
should and should not move, is in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import gcd
from typing import Callable

import oracles

WORKLOADS = ("count-closed", "count-generic", "detmethod", "curves")

FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"
GENERIC = "x0^3 + 2*x1^3 + 3*x2^2*x3 - x1*x2*x3 + x3^3"
CONIC_N = "x0*x2 - x1^2"
PARABOLA_M = "t1 - t2^2"
TWISTED = "x0*x2 - x1^2; x0*x3 - x1*x2; x1*x3 - x2^2"

# Counts from the project ROADMAP.  Their inputs do not depend on the seed,
# so every run checks them.
REFERENCE_N = {FERMAT: {64: 31530, 128: 124650}, GENERIC: {16: 62}}
REFERENCE_DETMETHOD_100 = {"points": 612, "classes": 240, "aux_forms": 204}

# The acceptance-corpus (plane, quadric) pairs of the test suite, copied as
# data.  Some are not tangent conics; the CLI reports a verdict for those.
CONIC_CORPUS = (
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
)

# Largest B at which the brute-force oracle scans a quaternary form.
BRUTE_B = 16

# Bounds of the full runs.  The smoke sizes keep every code path and finish
# in a fraction of a second per pass; only the benchmark's test uses them.
SIZES = {
    False: dict(closed_b=128, conic_n_b=2048, m_b=4096, generic_b=16,
                roots=100, det_b=300, conic_b=10**4, project_b=50),
    True: dict(closed_b=16, conic_n_b=64, m_b=256, generic_b=4,
               roots=10, det_b=30, conic_b=100, project_b=10),
}


@dataclass
class Op:
    label: str                          # unique; keys the pinned digests
    argv: list | None = None
    roots: tuple | None = None          # (coeffs, T)
    check: Callable = field(default=lambda out: None, repr=False)
    texts: list = field(default_factory=list)   # polynomial texts it parses
    timed: bool = True                  # False: a check-phase reference op


def render(terms: dict) -> str:
    """Text of a polynomial in x0..xN from exponent -> coefficient."""
    parts = []
    for exp, c in terms.items():
        if c == 0:
            continue
        mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                        for i, e in enumerate(exp) if e)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else sign + body)
    return " ".join(parts)


def _grid(bmax: int):
    """The CLI's default grid: bmax and its first four halvings."""
    return sorted({bmax >> k for k in range(5) if bmax >> k >= 1})


def _series_check(counts_fn, bmax):
    """Every grid point the oracle knows must match the reported series."""
    def check(out):
        series = dict(json.loads(out)["series"])
        for b, want in counts_fn(_grid(bmax)).items():
            if series.get(b) != want:
                return f"count at B={b} is {series.get(b)}, oracle {want}"
        return None
    return check


def count_op(text, function, bmax, counts_fn, filters=()):
    """A ``count`` op whose series is checked by ``counts_fn(grid)``."""
    argv = ["count", "--variety", text, "--function", function,
            "--bmax", str(bmax)]
    for spec in filters:
        argv += ["--filter", spec]
    return Op(label=" ".join(argv), argv=argv, texts=[text],
              check=_series_check(counts_fn, bmax))


def _brute_n(text, reference=None):
    """Oracle counts of N: brute force up to BRUTE_B, then the references."""
    def counts(grid):
        got = oracles.projective_zeros(text, [b for b in grid
                                              if b <= BRUTE_B])
        got.update({b: c for b, c in (reference or {}).items() if b in grid})
        return got
    return counts


def diagonal(coeffs) -> str:
    return render({tuple(3 * (j == i) for j in range(4)): c
                   for i, c in enumerate(coeffs)})


def _count_closed(rng, sz):
    b = sz["closed_b"]
    ops = [count_op(FERMAT, "N", b, _brute_n(FERMAT, REFERENCE_N[FERMAT]))]
    # distinct |a_i|: no pair of coordinates cancels, so the point count
    # hardly depends on the seed.  The grid path solves for x3, and |a_3|
    # sets the share of the grid that passes its divisibility test (a pass
    # took 0.55-0.74 s from |a_3| = 9 to 2), so |a_3| is fixed at 5, where
    # cubing permutes the residues and that share is 1/5 whatever the rest.
    for _ in range(2):
        mags = rng.sample((2, 3, 4, 6, 7, 8, 9), 3) + [5]
        text = diagonal([m * rng.choice((1, -1)) for m in mags])
        ops.append(count_op(text, "N", b, _brute_n(text)))
    ops.append(count_op(CONIC_N, "N", sz["conic_n_b"], oracles.conic_n_counts))
    ops.append(count_op(PARABOLA_M, "M", sz["m_b"], oracles.parabola_m_counts))
    # a residue filter through a real point of the Fermat affine chart
    p = rng.choice((5, 7, 11, 13))
    t = rng.randint(-b, b)
    residues = tuple(v % p for v in rng.choice(
        ((-1, t, -t), (t, -1, -t), (t, -t, -1))))
    spec = f"{p}:" + ",".join(map(str, residues))
    ops.append(count_op(FERMAT, "Naff", b, lambda grid: oracles.diagonal_affine(
        (1, 1, 1, 1), grid, (p, residues)), filters=[spec]))
    return ops


def random_dense_cubic(rng) -> str:
    """A dense quaternary cubic whose residuals in x3 are non-pure cubics."""
    terms = {}
    for combo in combinations_with_replacement(range(4), 3):
        e = [0] * 4
        for i in combo:
            e[i] += 1
        terms[tuple(e)] = rng.randint(-5, 5)
    terms[(0, 0, 0, 3)] = rng.choice((-3, -2, -1, 1, 2, 3))
    for i in range(3):
        e = [0, 0, 0, 2]
        e[i] = 1
        terms[tuple(e)] = rng.choice((-2, -1, 1, 2))
    return render(terms)


def _roots_op(coeffs, T):
    def check(out):
        got, want = int(out.split()[0]), oracles.count_abs_le(coeffs, T)
        return None if got == want else f"count {got}, oracle {want}"
    return Op(label=f"count_roots_bounded {coeffs} {T}", roots=(coeffs, T),
              check=check)


def _count_generic(rng, sz):
    b = sz["generic_b"]
    dense = random_dense_cubic(rng)
    ops = [count_op(GENERIC, "N", b, _brute_n(GENERIC, REFERENCE_N[GENERIC])),
           count_op(dense, "N", b, _brute_n(dense))]
    for _ in range(sz["roots"]):
        delta = rng.randint(1, 6)
        coeffs = [rng.randint(-100, 100) for _ in range(delta)]
        coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
        ops.append(_roots_op(coeffs, rng.randint(1, 10**4)))
    return ops


def detmethod_op(coeffs, bound, reference=None, timed=True):
    """CLI ``detmethod`` on a diagonal cubic surface, checked by the
    oracle's point count at the op's own bound."""
    text = diagonal(coeffs)
    argv = ["detmethod", "--form", text, "--bound", str(bound)]

    def check(out):
        rec = json.loads(out)
        want = oracles.diagonal_affine(coeffs, [bound])[bound]
        if rec["points"] != want:
            return f"points {rec['points']}, oracle {want}"
        for p in rec["primes"]:
            held = sum(c["class_size"] for c in rec["classes"] if c["p"] == p)
            if held != want:
                return f"classes mod {p} hold {held} of {want} points"
        got = {"points": rec["points"], "classes": len(rec["classes"]),
               "aux_forms": sum(1 for c in rec["classes"] if c.get("aux_form"))}
        if reference and got != reference:
            return f"reference {reference}, got {got}"
        return None
    return Op(label=" ".join(argv), argv=argv, texts=[text], check=check,
              timed=timed)


def _detmethod(rng, sz):
    ops = [detmethod_op((1, 1, 1, 1), sz["det_b"])]
    # a*(x0^3 + x1^3) + b*(x2^3 + x3^3) contains lines, so its residue
    # classes stay populated; a != |b| keeps it off the Fermat point count
    for _ in range(2):
        a, b = 1, 1
        while a == b or gcd(a, b) != 1:
            a, b = rng.randint(1, 6), rng.randint(1, 6)
        b *= rng.choice((1, -1))
        ops.append(detmethod_op((a, a, b, b), sz["det_b"]))
    ops.append(detmethod_op((1, 1, 1, 1), 100, REFERENCE_DETMETHOD_100,
                            timed=False))
    return ops


def _tangent(plane, text) -> bool:
    from ratpoints.curves import plane_eliminate, tangency_rank
    from ratpoints.poly import parse_poly

    data = plane_eliminate(plane, parse_poly(text))
    return data.is_integral and tangency_rank(data.q) == 1


def _conic_text(a, alpha, beta, b, c, d) -> str:
    """a*(alpha*x1 + beta*x2)^2 + x0*(b*x1 + c*x2) + d*x0^2."""
    return render({(0, 2, 0): a * alpha * alpha,
                   (0, 1, 1): 2 * a * alpha * beta,
                   (0, 0, 2): a * beta * beta, (1, 1, 0): b, (1, 0, 1): c,
                   (2, 0, 0): d})


def seeded_conics(rng):
    """Quadrics on the plane X0 = X3 that cut tangent conics: four through
    a seeded integral point, whose base search stops early, and one with
    no point mod 2, whose base search runs its whole window."""
    texts = []
    while len(texts) < 4:
        a = rng.choice((-3, -2, -1, 1, 2, 3))
        alpha, beta = rng.randint(0, 4), rng.randint(-4, 4)
        b, c = rng.randint(-5, 5), rng.randint(-5, 5)
        y, z = rng.randint(-20, 20), rng.randint(-20, 20)
        d = -(a * (alpha * y + beta * z) ** 2 + b * y + c * z)
        text = _conic_text(a, alpha, beta, b, c, d)
        if gcd(alpha, beta) == 1 and _tangent((1, 0, 0, 1), text):
            texts.append(text)
    while True:
        # even a, b, c and odd d make q(1, y, z) odd; |alpha| + |beta| = 1
        # fixes the window, and so the work, at 2 * bound + 1 candidates
        alpha, beta = rng.choice(((1, 0), (0, 1)))
        text = _conic_text(rng.choice((-2, 2)), alpha, beta,
                           rng.choice((-4, -2, 2, 4)),
                           rng.choice((-4, -2, 2, 4)),
                           rng.choice((-5, -3, -1, 1, 3, 5)))
        if _tangent((1, 0, 0, 1), text):
            return texts + [text]


def conic_op(plane, text, bound):
    argv = ["conic-param", "--plane", ",".join(map(str, plane)),
            "--quadric", text, "--bound", str(bound)]

    def check(out):
        rec = json.loads(out)
        if "count" not in rec:       # not a tangent conic: a verdict only
            return None
        want = oracles.conic_points(plane, text, bound)
        return None if rec["count"] == want else (
            f"count {rec['count']}, oracle {want}")
    return Op(label=" ".join(argv), argv=argv, texts=[text], check=check)


def _curves(rng, sz):
    bound = sz["conic_b"]
    ops = [conic_op(plane, text, bound) for plane, text in CONIC_CORPUS]
    ops += [conic_op((1, 0, 0, 1), text, bound) for text in seeded_conics(rng)]
    pb = sz["project_b"]
    argv = ["project", "--gens", TWISTED, "--bound", str(pb)]

    def check(out):
        rec = json.loads(out)
        want = oracles.twisted_cubic_points(pb)
        if rec["source_points"] != want:
            return f"source points {rec['source_points']}, oracle {want}"
        return None if rec["passed"] else "birationality check failed"
    ops.append(Op(label=" ".join(argv), argv=argv, check=check,
                  texts=[g.strip() for g in TWISTED.split(";")]))
    return ops


_GENERATORS = {"count-closed": _count_closed, "count-generic": _count_generic,
             "detmethod": _detmethod, "curves": _curves}


def build_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, SIZES[smoke])
