"""One workload process: set up, run the measured loop, print one JSON line.

Started fresh by ``run.py`` so that set-up time covers ``import iterlinopt``
and input generation. With ``--setup-only`` it stops right after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import iterlinopt as il  # noqa: E402
import iterlinopt.cli  # noqa: E402,F401  (the cli-cold traced run calls it)

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 20


@dataclass
class Pass:
    """Op times, check results and failures of one pass over the inputs."""

    times: list = field(default_factory=list)
    names: list = field(default_factory=list)  # op name of each time
    quality: list = field(default_factory=list)  # what each passing check returned
    failed: int = 0
    complete: bool = False
    seconds: float = 0.0


def run_pass(ops, errors, tracer=None, deadline=None):
    """Run ``ops`` once, in order, timing each op alone and checking it
    after; stops issuing ops once ``deadline`` (perf_counter) has passed."""
    p = Pass()
    t_pass = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for k, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                return p
            p.names.append(op.name)
            t0 = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.run_op(k, op.run)
            except Exception as exc:  # an op that raises counts as failed
                p.times.append(time.perf_counter() - t0)
                p.failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            p.times.append(time.perf_counter() - t0)
            try:
                p.quality.append(op.check(out))
            except workloads.CheckFailed as exc:
                p.failed += 1
                errors.append(str(exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.complete = True
    p.seconds = time.perf_counter() - t_pass
    return p


def quality(workload, p):
    if workload.quality is None:
        return {}
    sums = {}
    for q in p.quality:
        for key, value in q.items():
            sums[key] = sums.get(key, 0.0) + value
    return workload.quality(sums)


def timed_run(workload, ops, seconds):
    """Passes over input sets, the first being ``ops``, until ``seconds``
    elapse. The first pass always completes; a later one stops issuing ops
    when time is up."""
    errors, passes = [], []
    start = time.perf_counter()
    while True:
        deadline = start + seconds if passes else None
        passes.append(run_pass(ops, errors, deadline=deadline))
        if not passes[-1].complete or time.perf_counter() - start >= seconds:
            break
        ops = workload.ops(len(passes))
    return {
        "op_times": [t for p in passes for t in p.times],
        "op_names": [n for p in passes for n in p.names],
        "pass_times": [p.seconds for p in passes if p.complete],
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "quality": quality(workload, passes[0]),
        "errors": errors[:MAX_ERRORS],
    }


def traced_run(workload, ops, seconds, trace_path):
    """Pairs of one untraced and one traced pass over the first input set,
    the order alternating from pair to pair, until ``seconds`` elapse. Layer
    metrics are per traced pass; the overhead is the traced minus the
    untraced median pass time."""
    ops = workload.traced_ops or ops
    tracer = spans.Tracer()
    errors, plain, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        pair = [(plain, None), (traced, tracer)]
        for passes, kind in pair if len(traced) % 2 == 0 else pair[::-1]:
            passes.append(run_pass(ops, errors, tracer=kind))
    tracer.write(trace_path)
    passes = plain + traced
    metrics = spans.layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_s"] = (
        statistics.median(p.seconds for p in traced)
        - statistics.median(p.seconds for p in plain), "s")
    metrics["trace.spans"] = (len(tracer.spans) // len(traced), "count")
    # every workload reports the maxcut ratios, 0 where no cut is made
    q = quality(workload, traced[0])
    metrics.update((f"maxcut.{k}", (q.get(k, 0.0), "ratio"))
                   for k in workloads.QUALITY_KEYS)
    return {
        "layers": metrics,
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors[:MAX_ERRORS],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = workloads.BUILDERS[args.workload](il, args.seed, workdir)
        ops = workload.ops(0)
        result = {"ready_ns": time.monotonic_ns()}
        if args.setup_only:
            pass
        elif args.trace:
            result.update(traced_run(workload, ops, args.seconds, args.trace_path))
        else:
            result.update(timed_run(workload, ops, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["self_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_rss_kb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
