"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--trace 0]
                                [--seconds S] [--json PATH]

Run from the repository root. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, which must stay within the metric's bound in
``BENCHMARK.json``. Runs are sequential: parallel runs would share the
cores they measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="append the summary to this JSON-lines file")
    args = ap.parse_args()

    values, failed = {}, 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if out.returncode != 0:
            raise SystemExit(f"seed {seed}: run.py exited {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        failed += res["failed"] or not res["correct"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": args.seconds, "failed_runs": failed, "metrics": {}}
    for k, v in values.items():
        q1, q2, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][k] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": spread}
        bound = f"  bound {bounds[k]}" if k in bounds else ""
        print(f"{k:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {spread:.3f}{bound}")
    if args.json:
        with open(args.json, "a") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
