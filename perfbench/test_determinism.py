#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_determinism.py [workload ...]

For each workload (default: all), two short traced runs with the same
seed must print identical work counts. One short untraced run must
print every end-to-end metric of BENCHMARK.json with its unit and a
non-zero value. Every traced run must print every per-layer metric with
its unit. Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

# Work counts that must repeat exactly for one seed.
COUNTS = [
    "reach.calls", "reach.elements", "reach.point_probes",
    "core.candidates", "core.after_prune_down", "core.after_prune_up",
    "core.matching_graph_size", "core.result_tuples",
    "cluster.probe_frames", "net.bytes",
]
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stdout}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} trace={trace}: wrong answers {result}")
    return result["metrics"]


def check_names(workload, metrics, expected):
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            sys.exit(f"FAIL {workload}: {spec['name']} [{spec['unit']}] "
                     f"missing or with another unit: {got}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        sys.exit(f"FAIL {workload}: unexpected metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in sys.argv[1:] or WORKLOADS:
        end_to_end = run(workload, 0)
        check_names(workload, end_to_end, bench["end_to_end"])
        zero = [k for k, v in end_to_end.items() if not v["value"] > 0]
        if zero:
            sys.exit(f"FAIL {workload}: end-to-end metrics not > 0: {zero}")
        first, second = run(workload, 1), run(workload, 1)
        check_names(workload, first, bench["per_layer"])
        for name in COUNTS:
            if first[name]["value"] != second[name]["value"]:
                sys.exit(f"FAIL {workload}: {name} differs between two runs "
                         f"of seed {SEED}: {first[name]['value']} vs "
                         f"{second[name]['value']}")
        print(f"ok {workload}: counts repeat, "
              f"{len(end_to_end)} end-to-end and {len(first)} per-layer "
              f"metrics named with units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
