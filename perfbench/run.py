"""Benchmark entry point for iterlinopt.

    python3 perfbench/run.py --workload {maxcut,fixedpoint,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload runs in a fresh worker process
(``worker.py``) that imports the package from ``src/``, builds its inputs
from the seed and runs a closed loop for ``--seconds``; every operation's
output is checked. With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run. Human-readable
lines come first; the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("maxcut", "fixedpoint", "cli-cold")
SETUP_SAMPLES = 5  # fresh processes whose set-up is timed, the worker included
CLI_PROBES = 3  # fresh interpreters per cli.* import measurement
RUN_LIMIT_S = 170.0

class BenchError(Exception):
    pass


def spawn(cmd, env, deadline):
    """Run ``cmd`` to completion or ``deadline`` (monotonic seconds);
    returns (start in monotonic ns, stdout, stderr, exit code)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[:4])} timed out")
    return t0, out, err, proc.returncode


def worker(args, env, deadline, *extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0, out, err, code = spawn(cmd, env, deadline)
    if code != 0 or not out.strip():
        raise BenchError(f"worker exited with {code}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = (result["ready_ns"] - t0) * 1e-9
    return result


def pass_time(names, times):
    """One pass over the input set with every operation at its median time
    over the run: the sum, over operation names, of their median times."""
    by_name = {}
    for name, t in zip(names, times):
        by_name.setdefault(name, []).append(t)
    return sum(statistics.median(ts) for ts in by_name.values())


def tail(times):
    """Highest whole percentile with at least ten operations above it, as
    (percentile, value); None with ten operations or fewer."""
    n = len(times)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    s = sorted(times)
    return p, s[max(0, math.ceil(p * n / 100) - 1)]


def cli_probes(env, deadline):
    """Bare interpreter start, and cumulative import times of iterlinopt
    and scipy.optimize from ``-X importtime``, medians of fresh processes."""
    interp, pkg, scipy_opt = [], [], []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "pass"], env, deadline)
        interp.append(time.perf_counter() - t0)
        _, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c",
                              "import iterlinopt"], env, deadline)
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        if "iterlinopt" not in cumulative:
            raise BenchError("-X importtime did not report iterlinopt")
        pkg.append(cumulative["iterlinopt"])
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(pkg),
        "cli.import_scipy_s": statistics.median(scipy_opt),
    }


def end_to_end(args, env, deadline):
    setups = [worker(args, env, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker(args, env, deadline, "--seconds", str(args.seconds))
    setups.append(res["setup_s"])
    rss_kb = res["children_rss_kb" if args.workload == "cli-cold" else "self_rss_kb"]
    metrics = {
        "wall_s": (pass_time(res["op_names"], res["op_times"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    # op_p50_s and op_tail_s are printed, not gated: on maxcut and fixedpoint
    # the median op falls between operation kinds of different cost, and its
    # spread across seeds exceeds any bound the benchmark may set
    extra = [("op_p50_s", statistics.median(res["op_times"]), "s"),
             ("failed_frac", res["failed"] / res["attempted"], "ratio"),
             ("operations", len(res["op_times"]), "count"),
             ("passes", len(res["pass_times"]), "count"),
             ("pass_p50_s", statistics.median(res["pass_times"]), "s")]
    t = tail(res["op_times"])
    if t is not None:
        extra.append((f"op_tail_s (p{t[0]} of {len(res['op_times'])} ops)",
                      t[1], "s"))
    extra += [(k, v, "ratio") for k, v in res["quality"].items()]
    return res, metrics, extra


def per_layer(args, env, deadline):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_path = os.path.join(HERE, "out",
                              f"spans-{args.workload}-{args.seed}.jsonl")
    probes = cli_probes(env, deadline)
    res = worker(args, env, deadline, "--seconds", str(args.seconds),
                 "--trace", "1", "--trace-path", trace_path)
    layers = {k: (v, "s") for k, v in probes.items()}
    layers.update((k, tuple(v)) for k, v in res["layers"].items())
    extra = [("spans written to", os.path.relpath(trace_path), "path")]
    return res, layers, extra


def environment(env):
    out = subprocess.run([sys.executable, os.path.join(HERE, "envinfo.py")],
                         env=env, text=True, stdout=subprocess.PIPE, timeout=60)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "iterlinopt", "__init__.py")):
        print("error: run from the repository root; src/iterlinopt is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        run = per_layer if args.trace else end_to_end
        res, metrics, extra = run(args, env, deadline)
        env_info = environment(env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for name, value, unit in extra:
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:40s} {shown} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
