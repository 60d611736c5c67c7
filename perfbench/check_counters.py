"""Check that the traced run's counters and quality metrics repeat exactly.

    python3 perfbench/check_counters.py [--seed N] [--other-seed M]
                                        [--workload W ...]

Run from the repository root. For each workload it makes two traced runs
with one seed and requires every machine-independent per-layer metric
(oracle calls, winning sweeps, restarts, rounding iterations, escapes,
brute-force vectors, ratios and cut fractions) to be identical; then it
makes one traced run on a second seed and requires it to pass its checks.
Exits 1 on any difference or failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("maxcut", "fixedpoint", "cli-cold")


def traced(workload, seed):
    out = subprocess.run([sys.executable, RUN, "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def exact_metrics(result):
    """Per-layer metrics that do not depend on timing."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    bad = 0
    for w in args.workload or WORKLOADS:
        first, second = traced(w, args.seed), traced(w, args.seed)
        a, b = exact_metrics(first), exact_metrics(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        other = traced(w, args.other_seed)
        ok = not diff and all(r["correct"] for r in (first, second, other))
        bad += not ok
        print(f"{w}: {len(a)} counters {'repeat' if not diff else 'DIFFER'}"
              f" with seed {args.seed}; correct "
              f"{[r['correct'] for r in (first, second, other)]}")
        for k in diff:
            print(f"  {k}: {a[k]} != {b.get(k)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
