"""Span tracing around the calls into each asyncsgd layer.

The tracer replaces public functions and methods of the package with timing
wrappers while it is installed, and puts the originals back when it is
removed, so untraced runs execute the package unmodified. It records, per
span name, the number of calls and the inclusive time, and per layer the
self time: a span's duration minus the part of it that child spans cover.
Spans are aggregated as they close instead of being stored one by one,
which keeps the cost per traced call to two clock reads and a few dict
updates.

A layer is the module a span belongs to: scheduler, ledger, problems,
schedules, optimizers, virtual, invariants or cli. The span name is
"<layer>.<what>". Functions that a later version of the package no longer
has are skipped, and their metrics then read zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("scheduler", "ledger", "problems", "schedules", "optimizers",
          "virtual", "invariants", "cli")


def _arrivals(args, kwargs, result):
    return {"scheduler.arrivals": len(result.workers)}


def _replay_counts(args, kwargs, result):
    return {"optimizers.updates": len(result.workers),
            "optimizers.grad_evals": getattr(result, "gradient_evals", 0)}


def _tracked_updates(args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    return {"virtual.updates": len(record.workers)}


# (module, attribute, span name, counter function). The counter function
# gets the call's arguments and its result.
FUNCTIONS = (
    ("scheduler", "simulate_trace", "scheduler.trace", _arrivals),
    ("problems", "least_squares", "problems.build", None),
    ("problems", "heterogeneous_quadratics", "problems.build", None),
    ("schedules", "make_schedule", "schedules.make", None),
    ("schedules", "select_output", "schedules.output", None),
    ("schedules", "log_weighted_stepsize_sum", "schedules.output", None),
    ("optimizers", "run_async", "optimizers.replay", _replay_counts),
    ("virtual", "track", "virtual.track", _tracked_updates),
    ("invariants", "run_suite", "invariants.suite", None),
    ("invariants", "check_case", "invariants.case", None),
    ("invariants", "make_case", "invariants.make", None),
    ("invariants", "make_speed_model", "invariants.make", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_sweep_job", "cli.job", None),
)

# (module, class, method, span name)
METHODS = (
    ("scheduler", "ArrivalTrace", "validate", "ledger.validate"),
    ("ledger", "DelayLedger", "delay_budget_slack", "ledger.invariants"),
    ("ledger", "DelayLedger", "long_delay_count_ok", "ledger.invariants"),
    ("problems", "Problem", "constants_for", "problems.build"),
)

# Oracle methods, wrapped on every problem class that defines them. They are
# traced only when called from another layer: a problem's own constructor
# evaluating its objective is part of the build, not a metric call.
ORACLES = (("stoch_grad", "problems.stoch_grad"), ("value", "problems.metric"),
           ("grad", "problems.metric"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Install with `with tracer:`; read `snapshot()` after each traced unit."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self._stack = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.top_level = 0.0   # time covered by spans the harness opened

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "self": dict(self.self_time), "counters": dict(self.counters),
                "top_level": self.top_level}

    def _wrap(self, fn, name, counter=None, boundary_only=False):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if boundary_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_level += elapsed
                tracer.calls[name] += 1
                tracer.inclusive[name] += elapsed
                tracer.self_time[layer] += elapsed - frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [mod for mod_name, mod in sys.modules.items()
                   if mod is not None and (mod_name == "asyncsgd"
                                           or mod_name.startswith("asyncsgd."))]
        for mod_name, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules.get(f"asyncsgd.{mod_name}"), attr, None)
            if original is None:
                continue
            traced = self._wrap(original, name, counter)
            # replace every binding of the function, including the names
            # other modules imported with `from .module import name`
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules.get(f"asyncsgd.{mod_name}"), cls_name, None)
            if cls is not None and method in vars(cls):
                self._patch_method(cls, method, name, False)
        problems = sys.modules.get("asyncsgd.problems")
        base = getattr(problems, "Problem", None)
        if base is not None:
            for cls in (base, *_subclasses(base)):
                for method, name in ORACLES:
                    if method in vars(cls):
                        self._patch_method(cls, method, name, True)
        schedules = sys.modules.get("asyncsgd.schedules")
        base = getattr(schedules, "StepSchedule", None)
        if base is not None:
            for cls in (base, *_subclasses(base)):
                if "gamma" in vars(cls):
                    self._patch_method(cls, "gamma", "schedules.gamma", False)
        return self

    def _patch_method(self, cls, method, name, boundary_only):
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self._wrap(original, name, boundary_only=boundary_only))

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        return False


def layer_metrics(snap: dict, unit_s: float, factor: float) -> dict:
    """Per-layer metrics of one traced unit, as {name: (value, unit)}.

    `factor` converts wall seconds to reference seconds (see refclock.py);
    it scales every time, and leaves counts and ratios alone.
    """
    calls, counters = snap["calls"], snap["counters"]
    incl = {key: value * factor for key, value in snap["inclusive"].items()}
    self_t = {key: value * factor for key, value in snap["self"].items()}
    arrivals = counters.get("scheduler.arrivals", 0)
    updates = counters.get("optimizers.updates", 0)
    tracked = counters.get("virtual.updates", 0)
    trace_s = incl.get("scheduler.trace", 0.0)
    track_s = incl.get("virtual.track", 0.0)

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    out = {
        "scheduler.trace_s": (trace_s, "s"),
        "scheduler.us_per_arrival": (per(trace_s, arrivals, 1e6), "us"),
        "scheduler.arrivals": (arrivals, "count"),
        "ledger.validate_s": (incl.get("ledger.validate", 0.0), "s"),
        "ledger.invariants_s": (incl.get("ledger.invariants", 0.0), "s"),
        "problems.build_s": (incl.get("problems.build", 0.0), "s"),
        "problems.stoch_grad_calls": (calls.get("problems.stoch_grad", 0), "count"),
        "problems.stoch_grad_s": (incl.get("problems.stoch_grad", 0.0), "s"),
        "problems.metric_calls": (calls.get("problems.metric", 0), "count"),
        "problems.metric_s": (incl.get("problems.metric", 0.0), "s"),
        "schedules.gamma_calls": (calls.get("schedules.gamma", 0), "count"),
        "schedules.gamma_s": (incl.get("schedules.gamma", 0.0), "s"),
        "schedules.output_s": (incl.get("schedules.output", 0.0), "s"),
        "optimizers.replay_s": (incl.get("optimizers.replay", 0.0), "s"),
        "optimizers.self_us_per_update": (per(self_t.get("optimizers", 0.0), updates, 1e6), "us"),
        "optimizers.grad_evals_per_update": (
            per(counters.get("optimizers.grad_evals", 0), updates), "ratio"),
        "virtual.track_s": (track_s, "s"),
        "virtual.us_per_update": (per(track_s, tracked, 1e6), "us"),
        "invariants.cases": (calls.get("invariants.case", 0), "count"),
        "invariants.case_s": (incl.get("invariants.case", 0.0), "s"),
        "cli.jobs": (calls.get("cli.job", 0), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_t.get(layer, 0.0), "s")
    out["bench.unit_s"] = (unit_s * factor, "s")
    out["bench.harness_self_s"] = ((unit_s - snap["top_level"]) * factor, "s")
    return out
