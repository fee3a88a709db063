"""Per-layer tracing for the traced run, done from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` layer by
patching the attribute that the calling module looks up (for example
``repro.pipeline.stages.solve_R``), records one span per call, and puts
every attribute back on :meth:`Tracer.restore`.  No program source is
edited, and nothing is patched outside a traced pass.

A span is ``(id, name, start, end, parent id, op id)``.  Spans are kept
in memory and written out when the run ends.  The parent is the span
open on the same thread; a span with no parent starts a new op.  A
layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time

#: Program stage name (``SolvedModel.timings`` key) -> span that wraps
#: the same call, for the cross-check of the program's own timings.
STAGE_SPANS = {
    "assemble": "pipeline.assemble",
    "stability": "qbd.stability",
    "rsolve": "qbd.rsolve",
    "boundary": "qbd.boundary",
    "extract": "pipeline.extract",
    "reduce": "core.reduce",
    "recombine": "core.recombine",
    "measures": "core.measures",
}

#: Spans whose self time is reported as ``<name>.self_s``.
SELF_TIME_SPANS = (
    "scenario.run", "core.fixed_point", "qbd.stability", "qbd.rsolve",
    "qbd.boundary", "pipeline.assemble", "pipeline.extract", "core.reduce",
    "core.recombine", "core.measures", "metrics.build", "metrics.quantile",
    "metrics.tail", "service.request", "service.store.get",
    "service.store.put", "service.pool.run_tasks",
)

#: A wrapper total and the program's own figure for the same stage
#: disagree when they differ by more than this share plus the slack.
CROSSCHECK_SHARE = 0.05
CROSSCHECK_SLACK_S = 0.005


class Tracer:
    """Spans and counts recorded by wrappers around ``repro`` layers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.maxima: dict[str, float] = {}
        #: Summed ``SolvedModel.timings`` of every model solved while traced.
        self.program_timings: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._patched: list[tuple] = []
        #: ``module.attr`` names that were not there to patch.
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def note_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def _wrap(self, name: str, fn, after, record_span: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            if not record_span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            stack = tracer._tls.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if parent is None:
                tracer._tls.op = next(tracer._ops)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     tracer._tls.op))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None,
              span: bool = True) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        An attribute the program no longer has is listed in
        :attr:`missing` and left out, so a refactor shows up as a
        missing layer instead of a failed run.
        """
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after, span))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = collections.Counter()
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: collections.Counter = collections.Counter()
        for sid, name, t0, t1, _, _ in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: collections.Counter = collections.Counter()
        for _, name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def covered_seconds(self) -> float:
        """Length of the union of root-span intervals: the wall time some
        measured layer was working on (every span belongs to one)."""
        roots = sorted((t0, t1) for _, _, t0, t1, parent, _ in self.spans
                       if parent is None)
        total, end = 0.0, float("-inf")
        for t0, t1 in roots:
            if t1 > end:
                total += t1 - max(t0, end)
                end = t1
        return total

    def crosscheck(self) -> list[dict]:
        """Wrapper totals beside the program's own stage timings."""
        totals = self.totals()
        rows = []
        pairs = [(stage, span, self.program_timings.get(stage, 0.0))
                 for stage, span in STAGE_SPANS.items()]
        pairs.append(("solve_seconds", "scenario.point",
                      self.counts.get("scenario.point.solve_seconds", 0.0)))
        for stage, span, program in pairs:
            wrapper = totals.get(span, 0.0)
            gap = abs(wrapper - program)
            rows.append({
                "stage": stage, "span": span, "wrapper_s": wrapper,
                "program_s": program,
                "rel_gap": gap / program if program > 0 else 0.0,
                "disagree": gap > CROSSCHECK_SHARE * program
                + CROSSCHECK_SLACK_S,
            })
        return rows

    def write(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")


# -- what to wrap ----------------------------------------------------------

def _after_rsolve(tracer, args, kwargs, result):
    if kwargs.get("R0") is not None:
        tracer.count("qbd.rsolve.warm_calls")
    if isinstance(result, tuple):
        report = result[1]
        if report.attempts and report.method != report.attempts[0].method:
            tracer.count("resilience.rescues")


def _after_fixed_point(tracer, args, kwargs, result):
    tracer.count("core.fixed_point.iterations", result.iterations)


def _after_solve(tracer, args, kwargs, result):
    with tracer._lock:
        tracer.program_timings.update(result.timings)


def _after_point(tracer, args, kwargs, result):
    if result.solve_seconds is not None:
        tracer.count("scenario.point.solve_seconds", result.solve_seconds)


def _after_build(tracer, args, kwargs, result):
    if result.response is not None:
        tracer.note_max("metrics.ph_order_max", result.response.order)


def _after_cache_get(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("pipeline.cache.hits")


def _after_get_point(tracer, args, kwargs, result):
    tracer.count("service.store.point_gets")
    if result is not None:
        tracer.count("service.store.point_hits")


def patch_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer.

    Each function is patched where its caller looks it up, so the
    program's own calls go through the wrapper.  ``repro.sim`` is not
    measured.
    """
    import repro.core.fixed_point as fixed_point
    import repro.core.model as model
    import repro.core.optimize as optimize
    import repro.metrics.distributions as distributions
    import repro.phasetype.distribution as phasetype
    import repro.pipeline.cache as cache
    import repro.pipeline.stages as stages
    import repro.scenario as scenario
    import repro.service.daemon as daemon
    import repro.service.store as store
    import repro.service.supervisor as supervisor
    import repro.workloads.sweeps as sweeps

    run_module = sys.modules["repro.scenario.run"]
    p = tracer.patch
    # repro.scenario: the runner the CLI uses, and content hashing.
    p(scenario, "run", "scenario.run")
    p(run_module, "sweep_scenario", "scenario.sweep")
    # The runner's sweep loop solves each grid point here.
    p(sweeps, "_solve_point", "scenario.point", _after_point)
    p(daemon, "scenario_key", "scenario.hash")
    p(daemon, "point_key", "scenario.hash")
    # repro.core: fixed point, vacation recombination, measures, optimize.
    p(model.GangSchedulingModel, "solve", "core.solve", _after_solve)
    p(model, "run_fixed_point", "core.fixed_point", _after_fixed_point)
    p(model, "compute_measures", "core.measures")
    p(fixed_point, "fixed_point_vacation", "core.recombine")
    p(stages, "reduce_order", "core.reduce")
    p(optimize, "optimize_quantum_for_slo", "core.optimize")
    p(optimize, "_evaluate", "core.optimize.evaluate")
    p(optimize, "_config_key", "core.optimize.lookup", span=False)
    # repro.pipeline and repro.qbd: the staged per-class solve.
    p(stages, "build_class_qbd_fast", "pipeline.assemble")
    p(stages, "drift", "qbd.stability")
    p(stages, "resilient_solve_R", "qbd.rsolve", _after_rsolve)
    p(stages, "solve_R", "qbd.rsolve", _after_rsolve)
    p(stages, "solve_boundary", "qbd.boundary")
    p(stages, "extract_effective_quantum", "pipeline.extract")
    p(cache.ArtifactCache, "get", "pipeline.cache", _after_cache_get,
      span=False)
    # repro.metrics and repro.phasetype: response laws and quantiles.
    p(distributions, "class_distributions", "metrics.build", _after_build)
    p(distributions.ClassDistributions, "quantile", "metrics.quantile")
    p(distributions.ClassDistributions, "tail", "metrics.tail")
    p(phasetype.PhaseType, "cdf", "phasetype.cdf", span=False)
    # repro.service: request handling, store, worker pool.
    p(daemon.ScenarioService, "handle", "service.handle")
    p(daemon.ScenarioService, "_handle_run", "service.request")
    p(store.ResultStore, "get_result", "service.store.get")
    p(store.ResultStore, "get_point", "service.store.get", _after_get_point)
    p(store.ResultStore, "put_result", "service.store.put")
    p(store.ResultStore, "put_point", "service.store.put")
    p(supervisor.SupervisedPool, "run_tasks", "service.pool.run_tasks")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sparse_share(snapshot: dict) -> float:
    """Share of ``backend.selected`` decisions that chose sparse."""
    total = sparse = 0.0
    for key, value in snapshot.get("counters", {}).items():
        if key.startswith("backend.selected{"):
            total += value
            if "choice=sparse" in key:
                sparse += value
    return _ratio(sparse, total)


def layer_metrics(tracer: Tracer, *, wall_s: float, overhead_s: float,
                  obs_snapshot: dict, lock_wait_s: float) -> dict:
    """Every per-layer metric of the traced pass, by name."""
    c = tracer.counts
    self_s = tracer.self_times()
    out = {f"{name}.self_s": self_s.get(name, 0.0)
           for name in SELF_TIME_SPANS}
    quantiles = c.get("metrics.quantile.calls", 0)
    out.update({
        "core.fixed_point.iterations": c.get("core.fixed_point.iterations",
                                             0),
        "qbd.rsolve.calls": c.get("qbd.rsolve.calls", 0),
        "qbd.rsolve.warm_calls": c.get("qbd.rsolve.warm_calls", 0),
        "kernels.sparse_share": sparse_share(obs_snapshot),
        "pipeline.cache.hit_ratio": _ratio(c.get("pipeline.cache.hits", 0),
                                           c.get("pipeline.cache.calls", 0)),
        "resilience.rescues": c.get("resilience.rescues", 0),
        "metrics.ph_order_max": tracer.maxima.get("metrics.ph_order_max", 0),
        "metrics.quantile.calls": quantiles,
        "phasetype.cdf_per_quantile": _ratio(c.get("phasetype.cdf.calls", 0),
                                             quantiles),
        "core.optimize.evaluations": c.get("core.optimize.evaluate.calls",
                                           0),
        "core.optimize.memo_hit_ratio": _ratio(
            c.get("core.optimize.lookup.calls", 0)
            - c.get("core.optimize.evaluate.calls", 0),
            c.get("core.optimize.lookup.calls", 0)),
        "service.store.put.calls": c.get("service.store.put.calls", 0),
        "service.store.point_hit_ratio": _ratio(
            c.get("service.store.point_hits", 0),
            c.get("service.store.point_gets", 0)),
        "service.lock_wait_s": lock_wait_s,
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
        "trace.coverage": _ratio(tracer.covered_seconds(), wall_s),
        "trace.unpatched": len(tracer.missing),
        "crosscheck.disagreements": sum(row["disagree"]
                                        for row in tracer.crosscheck()),
    })
    return out


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    [("core.fixed_point.iterations", "count", "lower"),
     ("qbd.rsolve.calls", "count", "lower"),
     ("qbd.rsolve.warm_calls", "count", "lower"),
     ("kernels.sparse_share", "ratio", "higher"),
     ("pipeline.cache.hit_ratio", "ratio", "higher"),
     ("resilience.rescues", "count", "lower"),
     ("metrics.ph_order_max", "count", "lower"),
     ("metrics.quantile.calls", "count", "lower"),
     ("phasetype.cdf_per_quantile", "count", "lower"),
     ("core.optimize.evaluations", "count", "lower"),
     ("core.optimize.memo_hit_ratio", "ratio", "higher"),
     ("service.store.put.calls", "count", "lower"),
     ("service.store.point_hit_ratio", "ratio", "higher"),
     ("service.lock_wait_s", "s", "lower"),
     ("trace.wall_s", "s", "lower"),
     ("trace.overhead_s", "s", "lower"),
     ("trace.coverage", "ratio", "higher"),
     ("trace.unpatched", "count", "lower"),
     ("crosscheck.disagreements", "count", "lower")]
    + [(f"{name}.self_s", "s", "lower") for name in SELF_TIME_SPANS]
)
