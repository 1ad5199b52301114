"""Smoke-sized checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _counts(res):
    return {k: v for k, v in res["layers"].items()
            if not k.endswith(run.TIMED_FIGURES)
            and k not in ("proc.cpu_share", "trace.overhead_frac")}


@pytest.fixture(scope="module")
def traced_twice():
    return {name: [run.run_workload(name, 3, 0.01, True, smoke=True)
                   for _ in range(2)]
            for name in workloads.WORKLOADS}


def test_two_runs_repeat_counts_and_digests(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first["correct"] and second["correct"], name
        assert first["digests"] == second["digests"], name
        assert _counts(first) == _counts(second), name
        assert first["layers"]["enumeration.calls"] > 0, name


def test_every_per_layer_metric_is_reported(traced_twice):
    for name, (res, _) in traced_twice.items():
        got = run.report(res, traced=True)
        for metric in SPEC["per_layer"]:
            assert metric["name"] in got, (name, metric["name"])


def test_every_end_to_end_metric_is_reported(capsys):
    assert run.main(["--workload", "all", "--smoke", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in workloads.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            value = result["metrics"][f"{name}.{metric['name']}"]["value"]
            assert value > 0, (name, metric["name"])


def test_seeds_change_the_inputs():
    for name in workloads.WORKLOADS:
        one = [op.label for op in workloads.build_ops(name, 1, smoke=True)]
        again = [op.label for op in workloads.build_ops(name, 1, smoke=True)]
        two = [op.label for op in workloads.build_ops(name, 2, smoke=True)]
        assert one == again, name
        assert one != two, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_leaves_no_timer_behind():
    before = signal.getsignal(signal.SIGALRM)
    res = run.run_workload("curves", 1, 0.01, False, smoke=True)
    assert res["correct"] and res["pass_s"] > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
