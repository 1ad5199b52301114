import json
import math
import re
import subprocess
import sys

import pytest

from ratpoints import cli
from ratpoints.enumeration import CountSeries
from ratpoints.harness import ExperimentConfig, build_series, fit_exponent, run_experiment


def test_fit_examples():
    s = CountSeries("t", [(10, 10), (100, 100), (1000, 1000)])
    assert abs(fit_exponent(s).slope - 1.0) < 1e-12
    s2 = CountSeries("t", [(10, 100), (100, 10000), (1000, 1000000)])
    assert abs(fit_exponent(s2).slope - 2.0) < 1e-12
    with pytest.raises(ValueError, match="insufficient"):
        fit_exponent(CountSeries("t", [(10, 5), (100, 7)]))


def test_fit_skips_zero_counts():
    s = CountSeries("t", [(1, 0), (10, 10), (100, 100), (1000, 1000)])
    fr = fit_exponent(s)
    assert fr.points_used == 3
    assert abs(fr.slope - 1.0) < 1e-12


def test_fit_closed_form_parabola_counts():
    # M(t1 - t2^2; B) = 2*floor(sqrt(B)) + 1
    from math import isqrt

    entries = [(B, 2 * isqrt(B) + 1) for B in (100, 1000, 10000)]
    fr = fit_exponent(CountSeries("parabola", entries))
    assert abs(fr.slope - 0.5) < 0.02


def test_fit_rescale_invariance():
    s = CountSeries("t", [(10, 7), (100, 53), (1000, 431), (10000, 3701)])
    s10 = CountSeries("t", [(b, 10 * c) for b, c in s.entries])
    assert abs(fit_exponent(s).slope - fit_exponent(s10).slope) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig(poly="x0", function="N", bmax=0).resolved_grid()


def test_run_experiment_deterministic_across_reruns(tmp_path):
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        cfg = ExperimentConfig(poly="x0*x2 - x1^2", function="N", bmax=64,
                               grid_count=4, out_dir=str(out),
                               target_exponent=1.0)
        run_experiment(cfg)
        blobs.append(((out / "series.csv").read_bytes(),
                      (out / "report.json").read_bytes()))
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0][1])
    assert report["fit"]["slope"] > 0


def test_run_experiment_rerun_identical(tmp_path):
    cfg = ExperimentConfig(poly="t1 - t2^2", function="M", bmax=100,
                           grid_count=3, out_dir=str(tmp_path / "a"))
    run_experiment(cfg)
    first = (tmp_path / "a" / "report.json").read_bytes()
    cfg2 = ExperimentConfig(poly="t1 - t2^2", function="M", bmax=100,
                            grid_count=3, out_dir=str(tmp_path / "b"))
    run_experiment(cfg2)
    assert first == (tmp_path / "b" / "report.json").read_bytes()


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ratpoints.cli", *args],
                          capture_output=True, text=True)


def test_cli_slice():
    r = run_cli("slice", "--form", "x0*x2 - x1^2", "--b", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "-t1^2 + t2"


def test_cli_conic_param():
    r = run_cli("conic-param", "--plane", "1,0,0,1",
                "--quadric", "x0*x1 - x2^2", "--bound", "100")
    data = json.loads(r.stdout)
    assert data["count"] == 21
    assert data["classes"][0]["double_r"] == ["2*t1^2", "2*t1", "2"]


def test_cli_project_and_fit(tmp_path):
    r = run_cli("project", "--gens",
                "x0*x2 - x1^2; x0*x3 - x1*x2; x1*x3 - x2^2",
                "--bound", "10")
    data = json.loads(r.stdout)
    assert data["passed"]
    series = tmp_path / "s.csv"
    series.write_text("B,count\n10,10\n100,100\n1000,1000\n")
    r2 = run_cli("fit", "--series", str(series), "--target", "1.0")
    assert json.loads(r2.stdout)["verdict"] == "pass"


@pytest.mark.parametrize("text", ["10,10\n100,100\n1000,1000\n",
                                  "b,count\n10,10\n100,100\n", ""])
def test_cli_fit_rejects_a_series_without_its_header(tmp_path, text):
    # the first line is the header that count writes; a first data row in
    # its place would otherwise be dropped without a word
    series = tmp_path / "s.csv"
    series.write_text(text)
    r = run_cli("fit", "--series", str(series), "--target", "1.0")
    assert r.returncode == 2 and r.stdout == ""
    first = text.partition("\n")[0]
    assert r.stderr.splitlines() == [
        "ratpoints: error: a series CSV starts with the header line "
        f"'B,count', not {first!r}"]


@pytest.mark.parametrize("row", ["10,10,3", "abc,3", "7"])
def test_cli_fit_names_a_malformed_row(tmp_path, row):
    # a row that is not two integers is named by its line and text, in one
    # line, rather than by Python's unpacking or int() message
    series = tmp_path / "s.csv"
    series.write_text(f"B,count\n10,10\n\n{row}\n1000,1000\n")
    r = run_cli("fit", "--series", str(series), "--target", "1.0")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [
        f"ratpoints: error: line 4 of the series CSV is not 'B,count': {row!r}"]


def test_cli_fit_names_bounds_below_one(tmp_path):
    # log B is taken of every bound, so B = 0 is named rather than failing
    # as a math domain error
    series = tmp_path / "s.csv"
    series.write_text("B,count\n-1,0\n0,1\n1,3\n2,5\n")
    r = run_cli("fit", "--series", str(series))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [
        "ratpoints: error: bounds must be >= 1, got [-1, 0]"]


def test_cli_out_of_memory_is_one_line(monkeypatch, capsys):
    # a box too large for the machine ends in one line and status 2, with
    # numpy's message when it gives one; nothing is allocated here
    for err, line in ((MemoryError(), "out of memory"),
                      (MemoryError("Unable to allocate 7.28 PiB"),
                       "out of memory: Unable to allocate 7.28 PiB")):
        def fail(*args, **kwargs):
            raise err
        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli.main(["count", "--variety", "x0*x2 - x1^2",
                         "--bmax", "10000000000000"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == [
            f"ratpoints: error: {line}"]


def test_cli_count_writes_outputs(tmp_path):
    out = tmp_path / "out"
    r = run_cli("count", "--variety", "x0*x2 - x1^2", "--function", "N",
                "--bmax", "32", "--grid", "geometric:3",
                "--out", str(out), "--target", "1.0", "--tol", "0.5")
    assert r.returncode == 0
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "B,count" and len(lines) == 4
    rep = json.loads((out / "report.json").read_text())
    assert rep["fit"]["verdict"] in ("pass", "fail")
    assert r.stdout == (out / "report.json").read_text()


def test_cli_conic_param_rejection_branches():
    r = run_cli("conic-param", "--plane", "0,1,0,-1",
                "--quadric", "x1*x3 - x2^2", "--bound", "10")
    data = json.loads(r.stdout)
    assert "not integral" in data["verdict"]
    r2 = run_cli("conic-param", "--plane", "1,0,0,1",
                 "--quadric", "x0^2 - x1^2 - x2^2", "--bound", "10")
    data2 = json.loads(r2.stdout)
    assert data2["tangency_rank"] == 2
    assert "not tangent" in data2["verdict"]


def test_cli_count_points_csv(tmp_path):
    from ratpoints.enumeration import (ResidueFilter, count_affine,
                                       count_affine_surface, count_projective)
    from ratpoints.poly import parse_poly

    fermat = "x0^3 + x1^3 + x2^3 + x3^3"
    cases = [
        ("x0*x2 - x1^2", "N", [], lambda F: count_projective(F, 16, True)),
        ("t1 - t2^2", "M", [], lambda F: count_affine(F, 16, collect=True)),
        (fermat, "Naff", ["--filter", "5:4,1,4"],
         lambda F: count_affine_surface(
             F, 16, filters=[ResidueFilter(5, (4, 1, 4))])),
    ]
    for text, function, extra, library in cases:
        out = tmp_path / function
        r = run_cli("count", "--variety", text, "--function", function,
                    "--bmax", "16", "--grid", "geometric:2", "--out",
                    str(out), "--points", *extra)
        assert r.returncode == 0, r.stderr
        rows = (out / "points.csv").read_text().splitlines()
        count, points = library(parse_poly(text))
        assert count > 0
        assert rows == [",".join(map(str, pt)) for pt in points]


@pytest.mark.parametrize("args, message", [
    (["--points"], "--points needs --out, the directory that points.csv "
                   "is written to"),
    (["--function", "Naff", "--filter", "5:1,2"],
     "a residue filter needs exactly three residues, for x1, x2 and x3"),
    (["--function", "Naff", "--filter", "5:1,2,0,3"],
     "a residue filter needs exactly three residues, for x1, x2 and x3"),
    (["--function", "N", "--filter", "5:1,2,0"],
     "residue filters apply only to the Naff function"),
    (["--function", "M", "--filter", "5:1,2,0"],
     "residue filters apply only to the Naff function"),
])
def test_cli_count_input_errors_are_one_line(tmp_path, args, message):
    out = tmp_path / "out"
    argv = ["count", "--variety", "x0^3 + x1^3 + x2^3 + x3^3",
            "--bmax", "4", *args]
    if "--points" not in args:
        argv += ["--out", str(out)]
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stderr.splitlines() == [f"ratpoints: error: {message}"]
    assert r.stdout == "" and not out.exists()


FERMAT_TEXT = "x0^3 + x1^3 + x2^3 + x3^3"


@pytest.mark.parametrize("argv, message", [
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10", "--epsilon",
      "1000"], "epsilon 1000.0 makes B^(1/sqrt(d) + epsilon) overflow a float"),
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10", "--epsilon",
      "inf"], "epsilon must be finite, got inf"),
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10", "--epsilon",
      "nan"], "epsilon must be finite, got nan"),
    (["count", "--variety", "x0*x2 - x1^2", "--bmax", "8", "--target",
      "nan"], "target and tolerance must be finite"),
    (["count", "--variety", "x0*x2 - x1^2", "--bmax", "8", "--target", "1",
      "--tol", "inf"], "target and tolerance must be finite"),
    (["conic-param", "--plane", "1,0,0,1", "--quadric", "x0*x1 - x2^2",
      "--bound", "-3"], "--bound must be >= 0, got -3"),
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10", "--min-primes",
      "0"], "need at least one prime, got 0"),
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10",
      "--max-aux-degree", "1"],
     "--max-aux-degree must be >= 2, the least degree tried, got 1"),
    (["count", "--variety", "1", "--bmax", "4"],
     "a form in no variables has no zeros to count"),
    (["count", "--variety", "1", "--bmax", "4", "--function", "M"],
     "a polynomial in no variables has no zeros to count"),
    (["slice", "--form", "5", "--b", "2"],
     "a form in no variables has no first variable to slice"),
    (["project", "--gens", "x0*x2 - x1^2", "--center", "0,0,0,0"],
     "--center is the zero vector, which is no projective point"),
    (["detmethod", "--form", FERMAT_TEXT, "--bound", "10", "--epsilon", "30"],
     f"primality of {math.ceil(10.0 ** (1 / 3**0.5 + 30))} is only decided "
     "below 3317044064679887385961981"),
    (["conic-param", "--plane", "0,0,0,0", "--quadric", "x0*x1 - x2^2"],
     "plane is the zero vector, which defines no plane"),
    # malformed integer lists name their option and its form, not int()
    (["count", "--variety", FERMAT_TEXT, "--function", "Naff", "--bmax", "8",
      "--filter", "5"], "--filter takes p:r1,r2,r3, not '5'"),
    (["count", "--variety", FERMAT_TEXT, "--function", "Naff", "--bmax", "8",
      "--filter", "x:1,2,3"], "--filter takes p:r1,r2,r3, not 'x:1,2,3'"),
    (["count", "--variety", FERMAT_TEXT, "--function", "Naff", "--bmax", "8",
      "--filter", "5:1,,3"], "--filter takes p:r1,r2,r3, not '5:1,,3'"),
    (["count", "--variety", FERMAT_TEXT, "--bmax", "8", "--grid",
      "geometric:x"], "--grid takes geometric:k, not 'geometric:x'"),
    (["count", "--variety", FERMAT_TEXT, "--bmax", "8", "--grid",
      "geometric:3,4"], "--grid takes geometric:k, not 'geometric:3,4'"),
    (["count", "--variety", FERMAT_TEXT, "--bmax", "8", "--grid",
      "linear:3"], "--grid takes geometric:k, not 'linear:3'"),
    (["conic-param", "--plane", "1,0,a,1", "--quadric", "x0*x1 - x2^2"],
     "--plane takes a0,a1,a2,a3, not '1,0,a,1'"),
    (["project", "--gens", "x0*x2 - x1^2", "--center", "1,,2"],
     "--center takes c0,c1,..., not '1,,2'"),
])
def test_cli_bad_numbers_are_one_line(capsys, argv, message):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"ratpoints: error: {message}"]


def test_cli_parse_error_is_one_line():
    r = run_cli("count", "--variety", "x0^3+", "--bmax", "4")
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "ratpoints: error: expected a term at position 5"]


def test_cli_deep_nesting_is_one_line():
    # the parser recurses once per '(' and once per unary '-'; past the
    # interpreter's recursion limit that is a parse error, not a traceback
    n = 3000
    for form in ["(" * n + "x0" + ")" * n, "x1 + " + "-" * n + "x0"]:
        r = run_cli("slice", "--form", form, "--b", "1")
        assert r.returncode == 2 and r.stdout == ""
        assert re.fullmatch(r"ratpoints: error: expression nested too deeply "
                            r"at position \d+\n", r.stderr), r.stderr[-300:]
    n = 300
    r = run_cli("slice", "--form", "(" * n + "x0*x2" + ")" * n + " - x1^2",
                "--b", "1")
    assert r.returncode == 0 and r.stdout.strip() == "-t1^2 + t2"
    r = run_cli("slice", "--form", "x0*x2 + " + "-" * n + "x1^2", "--b", "1")
    assert r.returncode == 0 and r.stdout.strip() == "t1^2 + t2"


def test_cli_bad_filter_is_one_line():
    r = run_cli("count", "--variety", "x0^3 + x1^3 + x2^3 + x3^3",
                "--function", "Naff", "--filter", "4:1,1,1", "--bmax", "4")
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "ratpoints: error: filter modulus must be prime"]


def test_cli_detmethod(tmp_path):
    r = run_cli("detmethod", "--form", "x0^3 + x1^3 + x2^3 + x3^3",
                "--bound", "25", "--epsilon", "0.05", "--min-primes", "2")
    data = json.loads(r.stdout)
    assert data["points"] > 0
    for rec in data["classes"]:
        if rec["class_size"] >= 2:
            assert rec["aux_form"]


@pytest.fixture
def entry_calls(monkeypatch):
    """Names of the enumeration entry points the harness calls."""
    import ratpoints.harness as harness

    names = []
    for name in ("count_projective", "count_affine", "count_affine_surface"):
        def call(*args, _real=getattr(harness, name), _name=name, **kwargs):
            names.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, call)
    return names


FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"
FILTER = (5, (4, 1, 4))


def _per_bound(function, text):
    """The counting function at one bound, by a direct call."""
    from ratpoints.enumeration import (ResidueFilter, count_affine,
                                       count_affine_surface, count_projective)
    from ratpoints.poly import parse_poly

    F = parse_poly(text)
    return {
        "N": lambda b: count_projective(F, b),
        "M": lambda b: count_affine(F, b),
        "Naff": lambda b: count_affine_surface(
            F, b, filters=[ResidueFilter(*FILTER)], collect=False),
    }[function]


@pytest.mark.parametrize("text, function", [
    ("x0*x2 - x1^2", "N"), ("x0^3 - 2*x1^3 + x2^2*x3 - x3^3", "N"),
    ("t1 - t2^2", "M"), ("t1*t2 - t3^2", "M"), (FERMAT, "Naff")])
def test_series_equals_per_bound_counts_from_one_pass(entry_calls, text,
                                                      function):
    count_at = _per_bound(function, text)
    filters = [FILTER] if function == "Naff" else []
    for grid_spec in ({"bmax": 11, "grid_count": 4},
                      {"bmax": 12, "grid_count": 4},
                      {"bmax": 10, "grid_count": 3}):
        cfg = ExperimentConfig(poly=text, function=function,
                               filters=filters, **grid_spec)
        entry_calls.clear()
        series = build_series(cfg)
        assert len(entry_calls) == 1
        grid = cfg.resolved_grid()
        assert series.entries == [(b, count_at(b)) for b in grid], grid_spec


def test_cli_count_points_takes_one_enumeration_pass(tmp_path, entry_calls,
                                                     capsys):
    from ratpoints.enumeration import (ResidueFilter, count_affine,
                                       count_affine_surface, count_projective)
    from ratpoints.poly import parse_poly

    cases = [
        ("x0*x2 - x1^2", "N", [], lambda F: count_projective(F, 16, True)),
        ("t1 - t2^2", "M", [], lambda F: count_affine(F, 16, collect=True)),
        (FERMAT, "Naff", ["--filter", "5:4,1,4"],
         lambda F: count_affine_surface(F, 16,
                                        filters=[ResidueFilter(*FILTER)])),
    ]
    for text, function, extra, library in cases:
        out = tmp_path / function
        entry_calls.clear()
        assert cli.main(["count", "--variety", text, "--function", function,
                         "--bmax", "16", "--out", str(out), "--points",
                         *extra]) == 0
        assert len(entry_calls) == 1
        series = json.loads(capsys.readouterr().out)["series"]
        count, points = library(parse_poly(text))
        assert series[-1] == [16, count]
        rows = (out / "points.csv").read_text().splitlines()
        assert rows == [",".join(map(str, pt)) for pt in points]


def test_cli_reuses_its_parser_across_calls(capsys):
    """One process builds the parser once; no default appended to by one
    call and no failed parse leaks into a later call."""
    count = ["count", "--variety", FERMAT, "--function", "Naff",
             "--bmax", "6"]
    fresh = run_cli(*count)
    assert fresh.returncode == 0
    parser = cli._parser()
    assert cli.main([*count, "--filter", "13:12,6,7"]) == 0
    filtered = capsys.readouterr().out
    assert cli.main(count) == 0
    assert capsys.readouterr().out == fresh.stdout != filtered
    with pytest.raises(SystemExit) as err:
        cli.main(["count", "--variety", FERMAT])  # no --bmax
    assert err.value.code == 2
    capsys.readouterr()
    conic = ["conic-param", "--plane", "1,0,0,1", "--quadric",
             "x0*x1 - x2^2", "--bound", "100"]
    assert cli.main(conic) == 0
    assert capsys.readouterr().out == run_cli(*conic).stdout
    assert cli._parser() is parser
