"""Set-up of one workload in a fresh process, timed from outside by run.py.

    python3 bench/setup_probe.py <workload> <seed> [--smoke]

Imports ratpoints with every layer, as a CLI process loads it, generates the
workload's inputs from the seed and parses every polynomial text.  The
host-speed sampler runs meanwhile; the last line of stdout is a JSON object
with the probe times and the seconds they took, for run.py to rescale by.
"""

import json
import sys
from pathlib import Path

import hostspeed

sampler = hostspeed.Sampler()
sampler.start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ratpoints.cli  # noqa: E402,F401  (loads every layer)
from ratpoints.poly import parse_poly  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    for op in workloads.build_ops(name, seed, smoke="--smoke" in sys.argv):
        for text in op.texts:
            parse_poly(text)
    sampler.stop()
    probes, spent = sampler.take()
    print(json.dumps({"probes": probes or [hostspeed.probe()],
                      "spent": spent}))
