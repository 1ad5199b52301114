"""Benchmark runner for ratpoints.

    python3 bench/run.py --workload count-closed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One process, one thread, a closed loop: each op (a CLI invocation through
``ratpoints.cli.main`` with captured stdout, or one ``count_roots_bounded``
call) starts only after the previous one returned.  A pass runs every op of
the workload once; after one untimed warm-up pass, passes repeat until
``--seconds`` is used up.

The host is shared, and how fast it runs this process drifts by a third
or more for seconds to minutes at a time.  So the untraced passes and the set-up
processes run under hostspeed.py's sampler, and their times are rescaled
to the reference host.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``pass_s`` (rescaled seconds of one timed pass:
the sum over its ops of each op's median over the passes), ``setup_s``
(median rescaled seconds of a fresh process that imports ratpoints and
generates and parses the inputs) and ``peak_rss_mb`` (peak resident memory
of this process after its passes).  Both times are printed with their raw
wall-clock figures: minimum, quartiles and sample count.  With ``--trace 1``
half the time runs untraced passes and half traced ones (see spans.py), and
the metrics are the per-layer ones plus ``proc.cpu_share`` and
``trace.overhead_frac`` (both from wall times).

Every output is checked after the timed passes: against the oracles in
oracles.py, the ROADMAP reference counts in workloads.py, and the output
digests pinned in reference.json.  An op fails if it raises, exits nonzero
or differs; ``fail_frac`` is failed / attempted.  README.md gives the
reasons for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
SETUP_PROBES = 5
# per-layer figures that are counts, not times: they must repeat exactly
TIMED_FIGURES = ("_s", "top_grid_share")


def run_op(op):
    """(output text, error or None) of one op."""
    from ratpoints import cli
    from ratpoints.enumeration import count_roots_bounded

    buf = io.StringIO()
    try:
        if op.roots is not None:
            exact, bound = count_roots_bounded(*op.roots)
            return f"{exact} {bound!r}\n", None
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
        return buf.getvalue(), None if code == 0 else f"exit code {code}"
    except (Exception, SystemExit) as exc:
        return buf.getvalue(), f"{type(exc).__name__}: {exc}"


class Ledger:
    """Outputs of every op execution, checked after the timed region."""

    def __init__(self, ops, pinned: dict):
        self.ops = ops
        self.pinned = pinned
        self.runs = []          # (op index, digest, error)
        self.texts = {}         # (op index, digest) -> output text

    def record(self, i, text, error):
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.runs.append((i, digest, error))
        self.texts.setdefault((i, digest), text)

    def first_digests(self) -> dict:
        out = {}
        for i, digest, error in self.runs:
            if error is None:
                out.setdefault(i, digest)
        return out

    def failures(self) -> list:
        """One (label, reason) per failed execution."""
        first = self.first_digests()
        verdicts = {}
        failed = []
        for i, digest, error in self.runs:
            op = self.ops[i]
            if error is None and (i, digest) not in verdicts:
                pin = self.pinned.get(op.label)
                try:
                    reason = op.check(self.texts[(i, digest)])
                except Exception as exc:       # a malformed output
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
                if reason is None and pin is not None and digest != pin:
                    reason = "output digest differs from reference.json"
                if reason is None and digest != first[i]:
                    reason = "output differs from the op's first pass"
                verdicts[(i, digest)] = reason
            reason = error or verdicts[(i, digest)]
            if reason:
                failed.append((op.label, reason))
        return failed


def run_passes(ops, ledger, budget, rec=None):
    """Passes over ``ops``, (index, op) pairs, until the next one would
    overrun ``budget`` seconds; at least one.  Untraced passes run under
    the host-speed sampler and yield each op's rescaled seconds; traced ones
    yield their per-layer figures.  Returns [(wall, cpu, rescaled seconds of
    each op, figures)]; wall and cpu leave out the probes."""
    sampler = hostspeed.Sampler() if rec is None else None
    passes = []
    used = 0.0
    if sampler:
        sampler.start()
    try:
        while not passes or used + used / len(passes) <= budget:
            if rec is not None:
                rec.reset()
            start = time.perf_counter()
            passes.append(run_pass(ops, ledger, sampler, rec))
            used += time.perf_counter() - start
    finally:
        if sampler:
            sampler.stop()
    return passes


def run_pass(ops, ledger, sampler, rec):
    """One pass; see run_passes.  Consecutive ops share their probes until
    they have MIN_PROBES; the pass's last ops join the previous pool."""
    wall = cpu = 0.0
    scaled, chunk, probes, pooled = [], [], [], []
    for i, op in ops:
        if sampler:
            sampler.take()                  # probes between ops count for none
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ledger.record(i, *run_op(op))
        took = time.perf_counter() - wall0
        took_cpu = time.process_time() - cpu0
        if sampler:
            got, spent = sampler.take()
            took -= spent
            took_cpu -= spent
            chunk.append(took)
            probes += got
            if len(probes) >= hostspeed.MIN_PROBES:
                scaled += [hostspeed.rescale(t, probes) for t in chunk]
                chunk, pooled, probes = [], probes, []
        wall += took
        cpu += took_cpu
    if chunk:
        probes += pooled or [hostspeed.probe()]
        scaled += [hostspeed.rescale(t, probes) for t in chunk]
    return (wall, cpu, scaled if sampler else None,
            None if rec is None else spans.pass_metrics(rec))


def pass_seconds(passes) -> float:
    """Rescaled seconds of one pass: each op's median over the passes,
    summed, so a slow spell on the host moves one sample of an op, not the
    whole figure."""
    return sum(statistics.median(op) for op in zip(*(p[2] for p in passes)))


def measure_setup(name, seed, smoke, probes):
    """Wall seconds, and rescaled seconds, of fresh processes that import
    ratpoints and generate and parse the workload's inputs; each process
    samples the host's speed itself and prints what it found."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    walls, scaled = [], []
    for _ in range(probes):
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize every probe by that much
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                              text=True)
        walls.append(time.perf_counter() - start)
        host = json.loads(proc.stdout.splitlines()[-1])
        scaled.append(hostspeed.rescale(walls[-1] - host["spent"],
                                        host["probes"]))
    return walls, scaled


def summary(values) -> dict:
    """min, quartiles and count of a list of seconds."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"min": min(values), "q1": q1, "median": med, "q3": q3,
            "n": len(values)}


def run_workload(name, seed, seconds, traced, smoke=False, pinned=None):
    """Run one workload; returns a dict of figures, the result line's parts
    and, when traced, the per-span table."""
    setup, setup_scaled = measure_setup(name, seed, smoke,
                                        3 if smoke else SETUP_PROBES)
    ops = workloads.build_ops(name, seed, smoke)
    ledger = Ledger(ops, pinned or {})
    timed = [(i, op) for i, op in enumerate(ops) if op.timed]

    # one untimed pass first: the first pass of a fresh process runs up to
    # a sixth slower on detmethod while the allocator grows its arenas
    start = time.perf_counter()
    run_passes(timed, ledger, 0)
    left = seconds - (time.perf_counter() - start)
    plain = run_passes(timed, ledger, left / 2 if traced else left)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        try:
            layer_passes = run_passes(timed, ledger, left / 2, rec)
        finally:
            uninstall()
        calls = Counter(s[0] for s in rec.spans)
        span_table = {span: {"calls": calls[span], "self_s": own}
                      for span, own in rec.self_times().items()}
    for i, op in enumerate(ops):
        if not op.timed:
            ledger.record(i, *run_op(op))

    failed = ledger.failures()
    walls = [p[0] for p in plain]
    result = {
        "workload": name,
        "seed": seed,
        "passes": len(plain),
        "pass_s": pass_seconds(plain),
        "pass_wall_s": summary(walls),
        "walls": walls,
        "rescaled": [sum(p[2]) for p in plain],
        "setup_s": statistics.median(setup_scaled),
        "setup_wall_s": summary(setup),
        "peak_rss_mb": rss_mb,
        "cpu_share": statistics.median(p[1] / p[0] for p in plain),
        "attempted": len(ledger.runs),
        "failed": failed,
        "digests": ledger.first_digests(),
        "labels": [op.label for op in ops],
        "correct": not failed,
    }
    if traced:
        metrics = {}
        for key in layer_passes[0][3]:
            values = [p[3][key] for p in layer_passes]
            if not key.endswith(TIMED_FIGURES) and len(set(values)) > 1:
                result["correct"] = False
                print(f"count {key} differs between passes: {values}")
            metrics[key] = statistics.median(values)
        metrics["proc.cpu_share"] = result["cpu_share"]
        metrics["trace.overhead_frac"] = statistics.median(
            p[0] for p in layer_passes) / result["pass_wall_s"]["median"] - 1
        result.update(layers=metrics, traced_passes=len(layer_passes),
                      spans=span_table)
    return result


def machine(seed, cpu_share) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    # informational and ungated: source size next to the timings
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "ratpoints").glob("*.py"))}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "seed": seed,
            "proc.cpu_share": cpu_share, "src_lines": lines,
            "src_lines_total": sum(lines.values())}


def report(res, traced):
    """Print the human-readable lines of one workload; return its metrics."""
    name = res["workload"]
    print(f"== {name}  seed {res['seed']}  passes {res['passes']}  "
          f"op runs {res['attempted']}")
    for key in ("pass_s", "setup_s"):
        st = res[key.replace("_s", "_wall_s")]
        print(f"  {key:<12} {res[key]:.4f} s rescaled;  wall: min "
              f"{st['min']:.4f} s  q1 {st['q1']:.4f}  median {st['median']:.4f}"
              f"  q3 {st['q3']:.4f}  n={st['n']}")
    print("  passes " + " ".join(f"{w:.3f}" for w in res["walls"]))
    print("  rescaled " + " ".join(f"{w:.3f}" for w in res["rescaled"]))
    print(f"  {'peak_rss_mb':<12} {res['peak_rss_mb']:.1f} MB  n=1")
    nfail = len(res["failed"])
    print(f"  {'fail_frac':<12} {nfail / res['attempted']:.4f} "
          f"({nfail} of {res['attempted']} op runs)")
    for label, reason in res["failed"][:10]:
        print(f"  FAIL {label[:90]}: {reason}")
    if traced:
        layers = res["layers"]
        print(f"  traced passes {res['traced_passes']}  trace.overhead_frac "
              f"{layers['trace.overhead_frac']:.4f} over the untraced "
              f"median pass wall {res['pass_wall_s']['median']:.4f} s")
        for key, value in layers.items():
            if value:
                print(f"  {key:<36} {value:.6g}")
        return {k: {"value": v, "unit": unit_of(k)}
                for k, v in layers.items()}
    return {"pass_s": {"value": res["pass_s"], "unit": "s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share", "frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--pin", action="store_true",
                        help="check against the oracles only, then write "
                             "this run's output digests to reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "ratpoints" / "__init__.py").is_file():
        print(f"ratpoints sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("RATPOINTS_THREADS", "RATPOINTS_SEED"):
        os.environ.pop(var, None)

    pinned = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    results = [run_workload(n, args.seed, args.seconds, traced, args.smoke,
                            {} if args.pin else pinned) for n in names]
    metrics = {}
    for res in results:
        got = report(res, traced)
        metrics.update(got if len(results) == 1 else
                       {f"{res['workload']}.{k}": v for k, v in got.items()})
    cpu = statistics.median(r["cpu_share"] for r in results)
    print("meta " + json.dumps(machine(args.seed, cpu), sort_keys=True))
    if traced:
        OUT.mkdir(exist_ok=True)
        for res in results:
            path = OUT / f"trace-{res['workload']}-seed{args.seed}.json"
            path.write_text(json.dumps(
                {"spans": res["spans"], "layers": res["layers"],
                 "untraced_layers": spans.UNTRACED}, indent=1, sort_keys=True))
    correct = all(r["correct"] for r in results)
    if args.pin and correct:
        for res in results:
            pinned.update({res["labels"][i]: d
                           for i, d in res["digests"].items()})
        REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                             + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
