"""Spans around the public functions of each iterlinopt module.

The benchmark installs wrappers from its own files; nothing inside the
package is instrumented. A wrapper replaces the function in every
``iterlinopt`` module that holds it, because ``maxcut``, ``classify`` and
``cli`` import what they call by name. Only public functions are wrapped,
never the ascent kernel, so rewriting the kernel keeps the benchmark valid.

A span is (name, start_ns, end_ns, parent index, operation id, counters).
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    op: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False  # record only inside run_op, not during checks
        self._patches = []  # (owner, attribute, original)

    def span(self, name, fn, counts=None):
        """Wrap ``fn`` so that each call records one span named ``name``;
        ``counts(bound_arguments, result)`` returns the span's counters."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(Span(name, time.perf_counter_ns(), parent=parent,
                                   op=self.op))
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx].end = time.perf_counter_ns()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counts = counts(bound.arguments, out)
            return out

        return wrapper

    def run_op(self, op_id, fn):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        self.active = True
        try:
            return self.span("op", fn)()
        finally:
            self.active = False

    def install(self):
        """Patch the public functions of the ``iterlinopt`` modules."""
        import iterlinopt.classify as classify
        import iterlinopt.cli as cli
        import iterlinopt.elliptope as elliptope
        import iterlinopt.engine as engine
        import iterlinopt.maxcut as maxcut

        targets = [
            (maxcut, "maxcut_pipeline", _pipeline_counts),
            (maxcut, "solve_relaxation", None),
            (maxcut, "round_by_iteration", _rounding_counts),
            (maxcut, "gw_hyperplane_round", None),
            (maxcut, "brute_force_maxcut", _brute_force_counts),
            (elliptope, "elliptope_oracle", _oracle_counts),
            (elliptope, "fixed_point_certificate", None),
            (elliptope, "analyze_fixed_point", None),
            (engine, "iterate", _iterate_counts),
            (classify, "classify_empirical", _empirical_counts),
            (classify, "classify_elliptope_fixed_point", None),
            (classify, "escape_curve", None),
            (cli, "main", None),
        ]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "iterlinopt" or name.startswith("iterlinopt.")]
        for home, name, counts in targets:
            orig = getattr(home, name)
            wrapped = self.span(f"{home.__name__.split('.')[-1]}.{name}",
                                orig, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        cls = elliptope.ElliptopeDomain
        self._patches.append((cls, "maximize", cls.maximize))
        cls.maximize = self.span("elliptope.maximize", cls.maximize)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.counts]) + "\n")


# counters read from the arguments and results of the wrapped calls

def _oracle_counts(a, res):
    from iterlinopt import OracleConfig
    max_sweeps = (a["config"] or OracleConfig()).max_sweeps
    warm = a["warm_start"] is not None
    n = res.matrix.shape[0]
    width = res.candidate_grams[res.best_index].shape[1]
    return {
        "warm": int(warm),
        "restarts": len(res.restart_objectives) - int(warm),
        "restart_won": int(warm and res.best_index != 0),
        "sweeps": res.sweeps,
        "capped": int(res.sweeps >= max_sweeps),
        "flops": 2 * n * n * width * res.sweeps,
    }


def _pipeline_counts(a, rep):
    return {"starts": rep.rounding_starts}


def _rounding_counts(a, rep):
    return {"iterations": rep.iterations, "escapes": rep.escapes,
            "vertex": int(rep.terminal_status == "vertex")}


def _brute_force_counts(a, out):
    return {"vectors": 1 << (a["g"].n - 1)}


def _iterate_counts(a, traj):
    return {"steps": len(traj.step_norms),
            "converged": int(traj.status == "converged")}


def _empirical_counts(a, res):
    return {"samples": res.samples}


# per-layer metrics

def layer_metrics(spans, passes):
    """Per-pass layer metrics, as name: (value, unit), from the spans of
    ``passes`` traced passes over one input set.

    Self time is a span's duration minus the durations of its direct
    children. Times are in seconds, counters are exact integers per pass.
    """
    dur = [(s.end - s.start) * 1e-9 for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s.parent >= 0:
            self_t[s.parent] -= d

    def pick(name, parent=None):
        return [i for i, s in enumerate(spans) if s.name == name
                and (parent is None or spans[s.parent].name == parent)]

    def total(idx, values):
        return sum(values[i] for i in idx) / passes

    def count(idx, key):
        return sum(spans[i].counts[key] for i in idx) // passes

    def ratio(num, den):
        return num / den if den else 0.0

    oracle = pick("elliptope.elliptope_oracle")
    rounding = pick("maxcut.round_by_iteration")
    iterate = pick("engine.iterate")
    brute = pick("maxcut.brute_force_maxcut")
    empirical = pick("classify.classify_empirical")
    cert = pick("elliptope.fixed_point_certificate")
    calls = len(oracle) // passes
    seconds = {
        "cli.command_s": total(pick("cli.main"), dur),
        "maxcut.relaxation.s": total(pick("maxcut.solve_relaxation"), dur),
        "maxcut.rounding.self_s": total(rounding, self_t),
        "maxcut.baseline.s": total(pick("maxcut.gw_hyperplane_round",
                                        "maxcut.maxcut_pipeline"), dur),
        "maxcut.brute_force.s": total(brute, dur),
        "elliptope.oracle.s": total(oracle, dur),
        "elliptope.oracle.s_per_call": ratio(total(oracle, dur), calls),
        "elliptope.maximize.self_s": total(pick("elliptope.maximize"), self_t),
        "elliptope.certificate.s": total(cert, dur),
        "elliptope.analyze.s": total(pick("elliptope.analyze_fixed_point"), dur),
        "engine.iterate.self_s": total(iterate, self_t),
        "classify.empirical.self_s": total(empirical, self_t),
        "classify.exact.s": total(pick("classify.classify_elliptope_fixed_point"),
                                  dur),
    }
    counts = {
        "maxcut.rounding.starts": count(pick("maxcut.maxcut_pipeline"), "starts"),
        "maxcut.rounding.iterations": count(rounding, "iterations"),
        "maxcut.rounding.escapes": count(rounding, "escapes"),
        "maxcut.brute_force.vectors": count(brute, "vectors"),
        "elliptope.oracle.calls": calls,
        "elliptope.oracle.restarts": count(oracle, "restarts"),
        "elliptope.oracle.sweeps_win": count(oracle, "sweeps"),
        "elliptope.oracle.capped": count(oracle, "capped"),
        "elliptope.certificate.calls": len(cert) // passes,
        "engine.iterate.steps": count(iterate, "steps"),
        "classify.empirical.samples": count(empirical, "samples"),
        "classify.escape_curve.calls": len(pick("classify.escape_curve")) // passes,
    }
    ratios = {
        "maxcut.rounding.vertex_ratio": ratio(count(rounding, "vertex"),
                                              len(rounding) // passes),
        "elliptope.oracle.restart_win_ratio": ratio(count(oracle, "restart_won"),
                                                    count(oracle, "warm")),
        "engine.iterate.converged_ratio": ratio(count(iterate, "converged"),
                                                len(iterate) // passes),
    }
    out = {k: (v, "s") for k, v in seconds.items()}
    out.update((k, (v, "count")) for k, v in counts.items())
    out.update((k, (v, "ratio")) for k, v in ratios.items())
    out["elliptope.oracle.flops_computed_win"] = (count(oracle, "flops"), "flop")
    return out
