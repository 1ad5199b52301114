"""Experiment orchestration: counting campaigns and exponent fits.

Configs carry polynomials in the text grammar.  B-grids are geometric
(bmax halved repeatedly) because exponent fitting wants evenly spaced
logs.  Every grid point comes from one enumeration pass at the largest
grid B: the pass tallies its points by height, and the count at b is the
number of height <= b.  Outputs are byte-identical across reruns; zero
counts are excluded from fits, never imputed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

from .enumeration import (CountSeries, ResidueFilter, count_affine,
                          count_affine_surface, count_projective)
from .poly import parse_poly


@dataclass
class ExperimentConfig:
    poly: str
    function: str                 # "N" | "M" | "Naff"
    bmax: int
    grid_count: int = 5
    filters: list = field(default_factory=list)   # [(p, (r1, r2, r3)), ...]
    out_dir: str | None = None
    seed: int = 0
    target_exponent: float | None = None
    tolerance: float = 0.25

    def resolved_grid(self):
        """bmax and its halvings, grid_count values in all, keeping those
        >= 1, in increasing order; halving never repeats a value."""
        grid = []
        b = self.bmax
        for _ in range(self.grid_count):
            grid.append(b)
            b //= 2
        grid = [b for b in grid if b >= 1]
        if not grid:
            raise ValueError("empty grid")
        return grid[::-1]


@dataclass
class FitReport:
    tag: str
    slope: float
    intercept: float
    residual: float
    points_used: int
    target: float | None = None
    margin: float | None = None
    verdict: str | None = None

    def record(self) -> dict:
        """The fit as report.json and the ``fit`` command write it."""
        return {"slope": self.slope, "intercept": self.intercept,
                "residual": self.residual, "points_used": self.points_used,
                "target": self.target, "margin": self.margin,
                "verdict": self.verdict}


def fit_exponent(series: CountSeries, target: float | None = None,
                 tolerance: float = 0.25) -> FitReport:
    """Least-squares slope of log count against log B.

    Only entries with positive count participate; at least three are
    required.  With a target exponent the verdict compares the margin
    |slope - target| against the tolerance.
    """
    if not all(map(math.isfinite, (tolerance, target or 0.0))):
        raise ValueError("target and tolerance must be finite")
    data = [(math.log(b), math.log(c)) for b, c in series.entries if c > 0]
    if len(data) < 3:
        raise ValueError("insufficient data")
    n = len(data)
    sx = sum(x for x, _ in data)
    sy = sum(y for _, y in data)
    sxx = sum(x * x for x, _ in data)
    sxy = sum(x * y for x, y in data)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    residual = sum((y - slope * x - intercept) ** 2 for x, y in data)
    report = FitReport(tag=series.tag, slope=slope, intercept=intercept,
                       residual=residual, points_used=n)
    if target is not None:
        report.target = target
        report.margin = abs(slope - target)
        report.verdict = "pass" if report.margin <= tolerance else "fail"
    return report


def _count_one(config: ExperimentConfig, F, B: int, collect: bool = False):
    """The configured counting function at B, with its histogram of
    heights appended (and the sorted points before it with ``collect``),
    as the enumeration entry points return it under ``by_height``."""
    if config.function == "N":
        return count_projective(F, B, collect=collect, by_height=True)
    if config.function == "M":
        return count_affine(F, B, collect=collect, by_height=True)
    if config.function == "Naff":
        filters = [ResidueFilter(p, rs) for p, rs in config.filters]
        return count_affine_surface(F, B, filters=filters, collect=collect,
                                    by_height=True)
    raise ValueError(f"unknown counting function {config.function!r}")


def build_series(config: ExperimentConfig, collect: bool = False):
    """Counting function sampled over the grid, from one enumeration pass
    at the largest grid B; with ``collect``, the pair (series, sorted
    points of height at most that B)."""
    F = parse_poly(config.poly)
    if config.filters and config.function != "Naff":
        raise ValueError("residue filters apply only to the Naff function")
    grid = config.resolved_grid()
    result = _count_one(config, F, grid[-1], collect=collect)
    upto = list(itertools.accumulate(result[-1]))
    series = CountSeries(tag=f"{config.function}:{config.poly}",
                         entries=[(b, upto[b]) for b in grid])
    return (series, result[1]) if collect else series


def run_experiment(config: ExperimentConfig, collect: bool = False):
    """Run the counting campaign, write series.csv and report.json; with
    ``collect``, the pair (report, sorted points at the largest grid B).

    Outputs are reproducible: same config and seed give byte-identical
    files.
    """
    result = build_series(config, collect=collect)
    series, points = result if collect else (result, None)
    report = {
        "name": "experiment",
        "poly": config.poly,
        "function": config.function,
        "seed": config.seed,
        "series": [[b, c] for b, c in series.entries],
    }
    positive = sum(1 for _, c in series.entries if c > 0)
    if positive >= 3:
        report["fit"] = fit_exponent(series, config.target_exponent,
                                     config.tolerance).record()
    else:
        report["fit"] = None
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        csv_path = os.path.join(config.out_dir, "series.csv")
        with open(csv_path, "w") as fh:
            fh.write("B,count\n")
            for b, c in series.entries:
                fh.write(f"{b},{c}\n")
        json_path = os.path.join(config.out_dir, "report.json")
        with open(json_path, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return (report, points) if collect else report
