"""Spans around the calls into each ratpoints layer, from outside the program.

``install`` wraps each layer's public functions in the module that defines
them and in every ratpoints module that imported them by name (``detmethod``
binds ``nullspace_int`` and ``classify_point``, ``cli`` binds
``count_affine_surface``, ...), and returns a function that puts the
originals back.  Calls made through a module attribute, such as
``uniroots.integer_roots_in_box`` from ``enumeration``, go through the
defining module's binding.

A span is [name, start, end, parent index].  Spans stay in memory; a
layer's self time is its spans' durations minus the durations of their
direct children.  Counts are recorded at the same boundaries and repeat
exactly from pass to pass.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter
from time import perf_counter

# Layers with no spans of their own, and why; their cost shows in the self
# time of their callers.
UNTRACED = {
    "irreducibility": "no CLI path reaches it; only "
                      "geometry.find_integral_section calls it",
    "exact": "gcd_all runs once per enumeration hit, so a span around it "
             "would distort the timing it is meant to measure",
}

_PROJECTION = ("find_projection_center", "project_point",
               "sample_birationality_check", "build_projection_setup")


class Recorder:
    """In-memory span stack plus deterministic counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> Counter:
        """Self seconds by span name."""
        dur = [s[2] - s[1] for s in self.spans]
        own = Counter()
        for s, d in zip(self.spans, dur):
            own[s[0]] += d
            if s[3] >= 0:
                own[self.spans[s[3]][0]] -= d
        return own

    def durations(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)


def _points(result) -> int:
    """Points an enumeration entry point found: a count, (count, points),
    (count, bound) or a point list."""
    if isinstance(result, int):
        return result
    if isinstance(result, tuple):
        return int(result[0])
    return len(result)


def _on_enumeration(rec, span, args, result, error):
    if not rec.parent_name().startswith("enumeration."):
        rec.counts["enumeration.calls"] += 1
        if error is None:
            rec.counts["enumeration.points"] += _points(result)


def _on_roots(rec, span, args, result, error):
    coeffs = list(args[0])
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    rec.counts["uniroots.roots_in_box."
               + ("deg1" if deg <= 1 else "deg2" if deg == 2
                  else "deg3plus")] += 1
    if result:
        rec.counts["uniroots.roots_in_box.hits"] += 1


def _on_grid_point(rec, span, args, result, error):
    config, _, bound = args
    if bound == config.bmax:
        rec.counts["harness.top_grid_s"] += span[2] - span[1]


def _on_rref(rec, span, args, result, error):
    rows = args[0]
    if isinstance(rows, list) and rows:
        rec.counts["linalg.rref_dense.cells"] += len(rows) * len(rows[0])


def _on_graded(rec, span, args, result, error):
    if error is None:
        rec.counts["poly.graded_piece_basis.cols"] += (result.dimension
                                                       + result.ideal_rank)


def _on_classify(rec, span, args, result, error):
    if error is None:
        rec.counts["geometry.classify_point." + result.value.lower()] += 1


def _on_partition(rec, span, args, result, error):
    if error is None:
        rec.counts["detmethod.classes"] += len(result)


def _on_aux(rec, span, args, result, error):
    kind = ("aux_error" if isinstance(error, ValueError)
            else "aux_found" if type(result).__name__ == "AuxiliaryForm"
            else "aux_rank_full" if type(result).__name__ == "RankFull"
            else None)
    if kind:
        rec.counts["detmethod." + kind] += 1


def _on_conic(rec, span, args, result, error):
    if error is not None:
        return
    if type(result).__name__ == "EmptyParam":
        # magnitudes 0..window, two signs each except 0
        rec.counts["curves.base_candidates"] += 1 + 2 * result.search_window
    else:
        y = result.base_y
        rec.counts["curves.base_candidates"] += (
            1 if y == 0 else 2 * y if y > 0 else 2 * -y + 1)
        rec.counts["curves.classes"] += len(result.classes)


def _on_conic_points(rec, span, args, result, error):
    if error is None:
        rec.counts["curves.points"] += len(result)


# module -> {function: hook or None}; the span is named "module.function"
LAYERS = {
    "cli": {"main": None},
    "harness": {"run_experiment": None, "build_series": None,
                "fit_exponent": None, "_count_one": _on_grid_point},
    "enumeration": {f: _on_enumeration for f in (
        "count_projective", "count_affine", "count_affine_surface",
        "count_roots_bounded", "enumerate_projective_variety")},
    "uniroots": {"integer_roots_in_box": _on_roots, "count_abs_le": None},
    "linalg": {"rref_dense": _on_rref, "nullspace_int": None,
               "rank_sparse": None, "det_bareiss": None},
    "poly": {"graded_piece_basis": _on_graded, "parse_poly": None},
    "geometry": {"classify_point": _on_classify,
                 **{f: None for f in _PROJECTION}},
    "detmethod": {"prime_window": None,
                  "partition_by_residue": _on_partition,
                  "select_monomials": None,
                  "extract_auxiliary_form": _on_aux,
                  "build_determinant": None, "curve_section_degree": None},
    "curves": {"plane_eliminate": None, "tangency_rank": None,
               "conic_parameterize": _on_conic, "count_class_points": None,
               "conic_points": _on_conic_points},
}


def _wrap(rec, name, fn, hook):
    def traced(*args, **kwargs):
        idx = len(rec.spans)
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
        rec.spans.append(span)
        rec.stack.append(idx)
        result = error = None
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            span[2] = perf_counter()
            rec.stack.pop()
            if hook is not None:
                hook(rec, span, args, result, error)
    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder):
    """Wrap every traced function; returns the function that unwraps."""
    import ratpoints

    modules = [importlib.import_module(f"ratpoints.{m.name}")
               for m in pkgutil.iter_modules(ratpoints.__path__)]
    undo = []
    for layer, funcs in LAYERS.items():
        home = importlib.import_module(f"ratpoints.{layer}")
        for fname, hook in funcs.items():
            original = getattr(home, fname)
            wrapped = _wrap(rec, f"{layer}.{fname}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))

    def uninstall():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
    return uninstall


def pass_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced pass."""
    own = rec.self_times()
    c = rec.counts

    def self_of(*names):
        return sum(own[n] for n in names)

    def layer_self(layer):
        return sum(v for n, v in own.items() if n.startswith(layer + "."))

    calls = Counter(s[0] for s in rec.spans).__getitem__
    roots_calls = calls("uniroots.integer_roots_in_box")
    aux = c["detmethod.aux_found"] + c["detmethod.aux_rank_full"] \
        + c["detmethod.aux_error"]
    series = rec.durations("harness.build_series")
    return {
        "enumeration.self_s": layer_self("enumeration"),
        "enumeration.calls": c["enumeration.calls"],
        "enumeration.points": c["enumeration.points"],
        "uniroots.roots_in_box.self_s":
            self_of("uniroots.integer_roots_in_box"),
        "uniroots.roots_in_box.calls": roots_calls,
        "uniroots.roots_in_box.deg1": c["uniroots.roots_in_box.deg1"],
        "uniroots.roots_in_box.deg2": c["uniroots.roots_in_box.deg2"],
        "uniroots.roots_in_box.deg3plus": c["uniroots.roots_in_box.deg3plus"],
        "uniroots.roots_in_box.hit_ratio":
            c["uniroots.roots_in_box.hits"] / roots_calls
            if roots_calls else 0.0,
        "uniroots.count_abs_le.self_s": self_of("uniroots.count_abs_le"),
        "uniroots.count_abs_le.calls": calls("uniroots.count_abs_le"),
        "harness.self_s": layer_self("harness"),
        "harness.top_grid_share":
            c["harness.top_grid_s"] / series if series else 0.0,
        "linalg.rref_dense.self_s": self_of("linalg.rref_dense"),
        "linalg.rref_dense.calls": calls("linalg.rref_dense"),
        "linalg.rref_dense.cells": c["linalg.rref_dense.cells"],
        "linalg.nullspace_int.self_s": self_of("linalg.nullspace_int"),
        "linalg.rank_sparse.self_s": self_of("linalg.rank_sparse"),
        "linalg.rank_sparse.calls": calls("linalg.rank_sparse"),
        "linalg.det_bareiss.self_s": self_of("linalg.det_bareiss"),
        "linalg.det_bareiss.calls": calls("linalg.det_bareiss"),
        "poly.graded_piece_basis.self_s": self_of("poly.graded_piece_basis"),
        "poly.graded_piece_basis.calls": calls("poly.graded_piece_basis"),
        "poly.graded_piece_basis.cols": c["poly.graded_piece_basis.cols"],
        "poly.parse_poly.self_s": self_of("poly.parse_poly"),
        "geometry.classify_point.self_s": self_of("geometry.classify_point"),
        "geometry.classify_point.calls": calls("geometry.classify_point"),
        "geometry.classify_point.singular":
            c["geometry.classify_point.singular"],
        "geometry.classify_point.in_u": c["geometry.classify_point.in_u"],
        "geometry.classify_point.not_in_u":
            c["geometry.classify_point.not_in_u"],
        "geometry.projection.self_s":
            self_of(*(f"geometry.{f}" for f in _PROJECTION)),
        "detmethod.self_s": layer_self("detmethod"),
        "detmethod.classes": c["detmethod.classes"],
        "detmethod.aux_found": c["detmethod.aux_found"],
        "detmethod.aux_rank_full": c["detmethod.aux_rank_full"],
        "detmethod.aux_error": c["detmethod.aux_error"],
        "detmethod.aux_found_ratio":
            c["detmethod.aux_found"] / aux if aux else 0.0,
        "curves.self_s": layer_self("curves"),
        "curves.conic_parameterize.self_s":
            self_of("curves.conic_parameterize"),
        "curves.conic_parameterize.calls": calls("curves.conic_parameterize"),
        "curves.base_candidates": c["curves.base_candidates"],
        "curves.classes": c["curves.classes"],
        "curves.points": c["curves.points"],
        "cli.self_s": self_of("cli.main"),
    }
