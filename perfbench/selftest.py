"""Self-test of the benchmark: two traced runs with one seed must report
identical operation counts (every ``*.calls`` metric, plus the report and
byte counts) on every workload.

    python3 perfbench/selftest.py [--seed 1] [--seconds 30] [workload ...]

Run from the repository root; exits 1 if any count differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def traced_counts(name, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=600)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in COUNT_UNITS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    status = 0
    for name in args.workloads:
        first = traced_counts(name, args.seed, args.seconds)
        second = traced_counts(name, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print("%-16s %d counts, %s" % (name, len(first),
                                      "identical" if not diff else
                                      "DIFFER: " + ", ".join(diff)))
        for key in diff:
            print("    %s: %s vs %s" % (key, first[key], second[key]))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
