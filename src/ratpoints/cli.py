"""Command line interface.

Subcommands: count, slice, conic-param, project, detmethod, fit.  All
output is CSV or JSON with sorted keys so reruns are byte-identical.
``count --seed`` is a label copied into report.json (nothing is random).
A bad input (an unparsable polynomial, a non-prime filter modulus, ...)
prints one line ``ratpoints: error: <message>`` to stderr and exits with
status 2.  The argument parser is built once per process, at the first
``main`` call, and reused by later calls.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .curves import (EmptyParam, certified_class_points, conic_parameterize,
                     conic_points, plane_eliminate, tangency_rank)
from .detmethod import (RankFull, build_determinants, curve_section_degree,
                        extract_auxiliary_form, partition_by_residue,
                        prime_window, select_monomials)
from .enumeration import (CountSeries, count_affine_surface,
                          enumerate_projective_variety, slice_form)
from .exact import CertificateError, valuation
from .geometry import (build_projection_setup, find_projection_center,
                       sample_birationality_check)
from .harness import (ExperimentConfig, fit_exponent, render_json,
                      run_experiment)
from .poly import IntPoly, format_poly, parse_poly


def _read_poly_arg(text: str) -> str:
    if os.path.exists(text):
        with open(text) as fh:
            return fh.read().strip()
    return text


def _ints(option, form, value, text=None, size=None):
    """The comma-separated integers of text, a part of the value of option
    (the whole value when text is None), size of them when size is given;
    a malformed value is reported by its option and the form it takes."""
    try:
        ints = [int(v) for v in (value if text is None else text).split(",")]
    except ValueError:
        ints = None
    if ints is None or size not in (None, len(ints)):
        raise ValueError(f"{option} takes {form}, not {value!r}")
    return ints


def _emit(obj, out=None):
    sys.stdout.write(render_json(obj, out))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first ``main`` call and reused by
    every later one in the process."""
    parser = argparse.ArgumentParser(prog="ratpoints")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="counting campaign over a B-grid")
    p_count.add_argument("--variety", required=True,
                         help="polynomial text or a file containing it")
    p_count.add_argument("--function", choices=["N", "M", "Naff"], default="N")
    p_count.add_argument("--bmax", type=int, required=True)
    p_count.add_argument("--grid", default="geometric:5",
                         help="geometric:k for k powers of two up to bmax")
    p_count.add_argument("--filter", action="append", default=[],
                         help="p:r1,r2,r3 residue filter (repeatable)")
    p_count.add_argument("--out", default=None)
    p_count.add_argument("--points", action="store_true",
                         help="also write points.csv with the points at bmax")
    p_count.add_argument("--seed", type=int, default=0)
    p_count.add_argument("--target", type=float, default=None)
    p_count.add_argument("--tol", type=float, default=0.25)

    p_slice = sub.add_parser("slice", help="substitute x0 = b")
    p_slice.add_argument("--form", required=True)
    p_slice.add_argument("--b", type=int, required=True)

    p_conic = sub.add_parser("conic-param",
                             help="parameterize a tangent plane conic")
    p_conic.add_argument("--plane", required=True, help="a0,a1,a2,a3")
    p_conic.add_argument("--quadric", required=True)
    p_conic.add_argument("--bound", type=int, default=100)
    p_conic.add_argument("--out", default=None)

    p_proj = sub.add_parser("project", help="project a variety from a center")
    p_proj.add_argument("--gens", required=True,
                        help="semicolon-separated generator polynomials")
    p_proj.add_argument("--center", default=None, help="c0,c1,...")
    p_proj.add_argument("--bound", type=int, default=20)
    p_proj.add_argument("--fiber-bound", type=int, default=3)
    p_proj.add_argument("--out", default=None)

    p_det = sub.add_parser("detmethod", help="residue classes and auxiliary forms")
    p_det.add_argument("--form", required=True)
    p_det.add_argument("--bound", type=int, required=True)
    p_det.add_argument("--epsilon", type=float, default=0.05)
    p_det.add_argument("--min-primes", type=int, default=3)
    p_det.add_argument("--max-aux-degree", type=int, default=6)
    p_det.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit", help="log-log slope of a series CSV")
    p_fit.add_argument("--series", required=True)
    p_fit.add_argument("--target", type=float, default=None)
    p_fit.add_argument("--tol", type=float, default=0.25)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"count": _cmd_count, "slice": _cmd_slice,
               "conic-param": _cmd_conic, "project": _cmd_project,
               "detmethod": _cmd_detmethod, "fit": _cmd_fit}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as err:
        print(f"ratpoints: error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # numpy's names the array it could not make
        detail = f": {err}" if str(err) else ""
        print(f"ratpoints: error: out of memory{detail}", file=sys.stderr)
        return 2


def _cmd_count(args) -> int:
    if args.points and not args.out:
        raise ValueError("--points needs --out, the directory that "
                         "points.csv is written to")
    grid_count = 5
    if args.grid:
        kind, _, num = args.grid.partition(":")
        # a kind other than geometric reads as a count that is no integer
        [grid_count] = _ints("--grid", "geometric:k", args.grid,
                             num or "5" if kind == "geometric" else "", 1)
        if grid_count < 1:
            raise ValueError(f"--grid takes geometric:k with k >= 1, "
                             f"not {args.grid!r}")
    if args.bmax < 1:
        raise ValueError(f"--bmax takes B >= 1, not {args.bmax}")
    filters = []
    for spec in args.filter:
        p, _, rest = spec.partition(":")
        [p] = _ints("--filter", "p:r1,r2,r3", spec, p, 1)
        filters.append((p, tuple(_ints("--filter", "p:r1,r2,r3", spec, rest))))
    config = ExperimentConfig(
        poly=_read_poly_arg(args.variety),
        function=args.function,
        bmax=args.bmax,
        grid_count=grid_count,
        filters=filters,
        out_dir=args.out,
        seed=args.seed,
        target_exponent=args.target,
        tolerance=args.tol,
    )
    if args.points:
        # the series pass at bmax, the grid's largest B, lists the points
        report, pts = run_experiment(config, collect=True)
        with open(os.path.join(args.out, "points.csv"), "w") as fh:
            for pt in pts:
                fh.write(",".join(str(c) for c in pt) + "\n")
    else:
        report = run_experiment(config)
    sys.stdout.write(report)
    return 0


def _cmd_slice(args) -> int:
    F = parse_poly(_read_poly_arg(args.form))
    sliced = slice_form(F, args.b)
    print(format_poly(sliced, "t") if not sliced.is_zero() else "0")
    return 0


def _cmd_conic(args) -> int:
    if args.bound < 0:
        raise ValueError(f"--bound must be >= 0, got {args.bound}")
    plane = tuple(_ints("--plane", "a0,a1,a2,a3", args.plane))
    Q = parse_poly(_read_poly_arg(args.quadric))
    data = plane_eliminate(plane, Q)
    out = {
        "plane": list(data.plane),
        "eliminated": data.elim_index,
        "ternary": format_poly(data.q),
        "gram_det": data.gram_det,
    }
    if not data.is_integral:
        out["verdict"] = "not integral: singular ternary form"
        _emit(out, args.out)
        return 0
    rank = tangency_rank(data.q)
    out["tangency_rank"] = rank
    if rank != 1:
        out["verdict"] = "not tangent to the plane at infinity"
        _emit(out, args.out)
        return 0
    param = conic_parameterize(data, args.bound)
    if isinstance(param, EmptyParam):
        out["verdict"] = "empty"
        out["search_window"] = param.search_window
        out["classes"] = []
        out["count"] = 0
    else:
        out["verdict"] = "parameterized"
        out["denominator"] = param.denominator
        out["kappa_empirical"] = param.kappa_empirical
        # one walk per class serves both its count and the union
        per_class = [certified_class_points(cls, args.bound)
                     for cls in param.classes]
        out["classes"] = [
            {
                "lambda": cls.lam,
                "modulus": cls.modulus,
                "base": cls.base,
                "double_r": [format_poly(IntPoly(1, {(k,): c for k, c in
                                                     enumerate(p)}), "t")
                             for p in cls.double_r],
                "count": len(pts),
            }
            for cls, pts in zip(param.classes, per_class)
        ]
        out["count"] = len(conic_points(param, args.bound, per_class))
    _emit(out, args.out)
    return 0


def _cmd_project(args) -> int:
    gens = [parse_poly(g, num_vars=4) for g in _read_poly_arg(args.gens).split(";")]
    center = None
    if args.center:  # checked before the enumeration, which may be long
        center = tuple(_ints("--center", "c0,c1,...", args.center))
        if len(center) != gens[0].num_vars:
            raise ValueError(f"--center needs {gens[0].num_vars} coordinates, "
                             f"got {len(center)}")
        if not any(center):
            raise ValueError("--center is the zero vector, which is no "
                             "projective point")
        if all(g.evaluate(center) == 0 for g in gens):
            raise ValueError("--center lies on the variety: every generator "
                             "vanishes at it")
    points = enumerate_projective_variety(gens, args.bound)
    if center:
        setup = build_projection_setup(center)
        report = sample_birationality_check(setup, points, args.fiber_bound)
    else:
        found = find_projection_center(gens, args.fiber_bound, 3, points)
        if found is None:
            _emit({"verdict": "no admissible center up to height 3"}, args.out)
            return 1
        setup, report = found
    out = {
        "center": [list(setup.h)],
        "duals": [[int(i == setup.j) for i in range(len(setup.h))]],
        "c": setup.c,
        "source_points": len(points),
        "images": [list(v) for v in report.images],
        "fiber_histogram": {str(k): v for k, v in report.fiber_histogram.items()},
        "passed": report.passed,
    }
    _emit(out, args.out)
    return 0


def _cmd_detmethod(args) -> int:
    if args.max_aux_degree < 2:
        raise ValueError("--max-aux-degree must be >= 2, the least degree "
                         f"tried, got {args.max_aux_degree}")
    F = parse_poly(_read_poly_arg(args.form))
    window = prime_window(args.bound, F.degree, args.epsilon, args.min_primes)
    _, points = count_affine_surface(F, args.bound)
    records = []
    # (record, members) of the classes of two or more points; a record
    # says "full at every degree tried" until some degree gives a form
    pending = []
    for p in window.primes:
        classes = partition_by_residue(points, p, F)
        for residue, (members, classification) in classes.items():
            rec = {
                "p": p,
                "residue": list(residue),
                "class_size": len(members),
                "classification": classification.value,
            }
            if len(members) >= 2:
                rec["aux_form"] = None
                rec["rank"] = "full at every degree tried"
                pending.append((rec, members))
            records.append(rec)
    # (record, members, form) of the classes that got an auxiliary form
    found = []
    # the classes still RankFull at degree D try D + 1 together
    for D in range(2, args.max_aux_degree + 1):
        if not pending:
            break
        outcomes = extract_auxiliary_form([m for _, m in pending], D, F)
        # classes that share a nullspace share one outcome object, which
        # is formatted once; outcomes keeps every object, and so its id,
        # alive
        texts = {}
        rank_full = []
        for (rec, members), outcome in zip(pending, outcomes):
            if isinstance(outcome, RankFull):
                rank_full.append((rec, members))
            elif isinstance(outcome, ValueError):
                rec["aux_error"] = str(outcome)
            else:
                if id(outcome) not in texts:
                    texts[id(outcome)] = format_poly(outcome.form)
                rec["aux_form"] = texts[id(outcome)]
                rec["aux_degree"] = outcome.degree
                rec["rank"] = outcome.rank
                found.append((rec, members, outcome.form))
        pending = rank_full
    _add_delta_stats(F, found)
    out = {
        "form": format_poly(F),
        "bound": args.bound,
        "window": list(window.window),
        "primes": window.primes,
        "points": len(points),
        "classes": records,
    }
    _emit(out, args.out)
    return 0


def _add_delta_stats(F, found):
    """Exact determinant statistics for the curve cut by F and each class's
    auxiliary form G, at the first few class points, as the record's
    "delta"; found holds (record, members, G) triples.

    Classes are grouped by G's text and k: each group's curve section
    degree and monomial selection, or the error computing them raised, are
    found once, and its determinants come from one build_determinants
    call.
    """
    groups = {}
    for rec, members, G in found:
        k = min(len(members), 4)
        groups.setdefault((rec["aux_form"], k), (G, []))[1].append(
            (rec, members[:k]))
    for (_, k), (G, classes) in groups.items():
        try:
            e = curve_section_degree(F, G)
            sel = select_monomials([F, G], e, k)
        except (ValueError, CertificateError) as err:
            for rec, _ in classes:
                rec["delta"] = {"error": str(err)}
            continue
        certs = build_determinants([points for _, points in classes], sel)
        for (rec, _), cert in zip(classes, certs):
            if isinstance(cert, Exception):
                rec["delta"] = {"error": str(cert)}
                continue
            rec["delta"] = {
                "k": k,
                "curve_degree": e,
                "det_zero": cert.det == 0,
                "vp": valuation(cert.det, rec["p"]),
                "beta_required": cert.beta_required,
            }


def _cmd_fit(args) -> int:
    entries = []
    with open(args.series) as fh:
        header = fh.readline().strip()
        if header != "B,count":
            raise ValueError("a series CSV starts with the header line "
                             f"'B,count', not {header!r}")
        for number, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    b, c = map(int, line.split(","))
                except ValueError:
                    raise ValueError(f"line {number} of the series CSV is "
                                     f"not 'B,count': {line.strip()!r}"
                                     ) from None
                entries.append((b, c))
    series = CountSeries(entries)
    _emit(fit_exponent(series, args.target, args.tol).record())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
