#!/usr/bin/env python3
"""Perf-tracking gate: compare the host timings of a freshly measured
BENCH_engine.json against the committed one (ROADMAP "Perf tracking").

BENCH_engine.json holds only same-run host timings. The simulated
quantities of every scenario are engine_speed's stdout rows, checked
exactly by the golden.engine_speed ctest (README "Goldens").

Checks:

- Every committed scenario is in the fresh measurement, and every
  fresh scenario has a committed baseline: a scenario that disappears
  (dropped from the harness, or skipped by a crash) or appears
  ungated is a hard failure, not a silent change of the compared set.
- Throughput (guest_mips) may not regress by more than the tolerance
  (default 5%, override with DARCO_PERF_TOLERANCE, e.g. "0.40").
  Wall-perf comparisons across different machines are noisy; the
  tolerance gates only egregious regressions.
- The in-process event_core_speedup may not fall more than 0.20
  below its committed value, nor to 1.0 or below where the committed
  run has the event core winning.

Usage: check_perf.py <fresh.json> <committed.json>
       check_perf.py --update <fresh.json> <committed.json>

--update regenerates the committed baseline in place from the fresh
measurement (re-run engine_speed on the measurement box, then commit
the refreshed JSON).

Exit code 0 = pass, 1 = regression/mismatch, 2 = usage error.
"""

import json
import os
import shutil
import sys

UPDATE_HINT = (
    "If this change is intentional, regenerate the committed "
    "baseline in place:\n"
    "    (cd build && ./bench/engine_speed) && \\\n"
    "    python3 bench/check_perf.py --update "
    "build/BENCH_engine.json BENCH_engine.json\n"
    "and commit the refreshed BENCH_engine.json.")


def update(fresh_path, committed_path):
    with open(fresh_path) as f:
        num_scenarios = len(json.load(f)["scenarios"])  # pre-copy check
    shutil.copyfile(fresh_path, committed_path)
    print(f"updated {committed_path} from {fresh_path} "
          f"({num_scenarios} scenarios)")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--update":
        if len(argv) != 4:
            print(__doc__, file=sys.stderr)
            return 2
        return update(argv[2], argv[3])
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        fresh = json.load(f)["scenarios"]
    with open(argv[2]) as f:
        committed = json.load(f)["scenarios"]

    tolerance = float(os.environ.get("DARCO_PERF_TOLERANCE", "0.05"))
    failures = []

    for name, base in committed.items():
        cur = fresh.get(name)
        if cur is None:
            failures.append(f"{name}: scenario disappeared from the "
                            "fresh measurement (every baseline "
                            "scenario must be re-measured)")
            continue

        base_mips = base["guest_mips"]
        cur_mips = cur["guest_mips"]
        if cur_mips < base_mips * (1 - tolerance):
            failures.append(
                f"{name}.guest_mips: {base_mips:.3f} -> "
                f"{cur_mips:.3f} "
                f"({cur_mips / base_mips - 1:+.1%}, tolerance "
                f"-{tolerance:.0%})")
        else:
            print(f"  ok {name}: guest_mips {base_mips:.3f} -> "
                  f"{cur_mips:.3f} ({cur_mips / base_mips - 1:+.1%})")

        # The in-process A/B ratio is load-matched and therefore far
        # less host-dependent than absolute MIPS: gate it with a
        # fixed absolute slack so the event core cannot quietly decay
        # back toward the reference core's speed.
        speedup = cur["event_core_speedup"]
        base_speedup = base["event_core_speedup"]
        if speedup < base_speedup - 0.20:
            failures.append(
                f"{name}.event_core_speedup: {base_speedup:.2f}x "
                f"-> {speedup:.2f}x (allowed slack 0.20)")
        elif base_speedup > 1.0 and speedup <= 1.0:
            failures.append(
                f"{name}.event_core_speedup: {speedup:.2f}x — "
                "the event core lost to the reference core on a "
                "scenario where the baseline has it winning "
                f"({base_speedup:.2f}x)")
        else:
            print(f"     {name}: event_core_speedup "
                  f"{speedup:.2f}x (committed {base_speedup:.2f}x)")

    for name in sorted(fresh.keys() - committed.keys()):
        failures.append(f"{name}: scenario has no committed baseline "
                        "(regenerate BENCH_engine.json so the new "
                        "scenario is gated)")

    if failures:
        print("PERF CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(UPDATE_HINT, file=sys.stderr)
        return 1
    print("perf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
