#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig10_campaign --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench, then runs one measurement. Build output goes
to stderr; the benchmark's report goes to stdout and ends with one
JSON line. Exits non-zero, without a result, if the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fig10_campaign", "fig6_short_sweep", "warm_resume",
             "reuse_profile"]


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 keeps the registry seeds")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--print-pins", action="store_true",
                    help="print this workload's determinism pins "
                         "(seed 0) instead of measuring")
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.txt"),
           "--scratch", os.path.join(ROOT, ".bench_build", "runs")]
    if args.print_pins:
        cmd.append("--print-pins")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
