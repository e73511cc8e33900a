"""Per-layer timing from outside the program, for the benchmark's traced pass.

The traced pass patches wrappers onto the public functions of each module,
at the name the caller looks up (``repro.simulator.runner.replay_trace``,
``repro.core.synthesizer.build_homophase_groups``, ...).  Each call becomes a
span: name, start, end, parent, process, and the allocator run or sweep point
it belongs to.  Spans stay in memory; the pass writes them when it ends.

Pool workers forked during the pass inherit the wrappers and the open span
stack, so their spans parent under the span that was open at the fork (the
sweep's ``sweep.run``).  Each worker writes its spans when it exits and the
pass merges every file before computing self times, so the per-layer numbers
cover the workers, not the parent alone.

A span's self time is its duration minus the union of its children's
intervals.  Summed over all spans this equals the pass's wall time plus the
time children ran in parallel with each other (``trace.parallel_overlap_s``);
the root span's self time is the part no wrapped layer covers
(``trace.unattributed_s``).  ``repro.obs`` stays disabled throughout.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from multiprocessing import util as mp_util

#: Layers of the program; every span name is ``<layer>.<what>``.
LAYERS = ("workloads", "core", "allocators", "simulator", "timeline", "sweep", "search")
#: Allocators whose replays get their own per-layer rows (the paper line-up).
ALLOCATORS = ("torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc")
#: Span attributes inherited by every descendant span.
OWNER_KEYS = ("run", "point", "allocator")


class Recorder:
    """Span stack and finished spans of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counters: dict[str, float] = {}
        self._next = 0
        self._patches: list[tuple] = []
        # Runs in every multiprocessing child right after it forks.
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # Keep the inherited open stack (new spans parent under it); drop the
        # parent's finished spans, and write this worker's own at exit.
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._next = 0
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> str:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": self.pid, "spans": self.spans, "counters": self.counters}, handle)
        return path

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str, attrs: dict) -> dict:
        parent = self.stack[-1] if self.stack else None
        owner = dict(parent["owner"]) if parent else {}
        owner.update((key, attrs.pop(key)) for key in OWNER_KEYS if key in attrs)
        span = {
            "id": f"{self.pid}.{self._next}",
            "parent": parent["id"] if parent else None,
            "name": name,
            "pid": self.pid,
            "owner": owner,
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        self._next += 1
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self.stack.pop()
        assert popped is span, "span stack out of order"
        self.spans.append(span)

    def wrap(self, holder, attr: str, name: str, *, attrs=None, after=None) -> None:
        """Replace ``holder.attr`` with a span-recording wrapper.

        ``attrs(*args, **kwargs)`` gives the span's attributes before the
        call; ``after(span, args, kwargs, result)`` runs once the span closed.
        """
        raw = vars(holder)[attr] if isinstance(holder, type) else getattr(holder, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name, attrs(*args, **kwargs) if attrs else {})
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self.replace(holder, attr, kind(wrapper) if kind else wrapper, raw)

    def replace(self, holder, attr: str, value, original=None) -> None:
        """Set ``holder.attr`` to ``value`` until :meth:`unwrap`."""
        self._patches.append((holder, attr, original or getattr(holder, attr)))
        setattr(holder, attr, value)

    def unwrap(self) -> None:
        for holder, attr, raw in reversed(self._patches):
            setattr(holder, attr, raw)
        self._patches.clear()


class _CountingJson:
    """Stands in for ``json`` inside the cache module to count bytes read."""

    def __init__(self, recorder: Recorder, real):
        self._recorder = recorder
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def loads(self, text, *args, **kwargs):
        self._recorder.count("cache_read_bytes", len(text))
        return self._real.loads(text, *args, **kwargs)


def install(recorder: Recorder) -> None:
    """Patch span wrappers onto every layer boundary the benchmark measures."""
    import repro.core.synthesizer as synthesizer
    import repro.search.planner as planner
    import repro.simulator.runner as runner
    import repro.sweep.cache as cache
    import repro.sweep.engine as engine
    import repro.timeline as timeline
    from repro.core.plan import StaticAllocationPlan
    from repro.core.profiler import AllocationProfiler
    from repro.timeline.simulator import TimelineSimulator
    from repro.workloads.trace import Trace
    from repro.workloads.tracegen import TraceGenerator

    def set_attrs(**fields):
        def after(span, args, kwargs, result):
            span["attrs"].update({key: read(result) for key, read in fields.items()})
        return after

    wrap = recorder.wrap
    # workloads
    wrap(TraceGenerator, "generate", "workloads.tracegen",
         after=set_attrs(events=lambda trace: trace.num_events))
    # core: the offline STAlloc pipeline
    wrap(AllocationProfiler, "profile", "core.profile")
    wrap(synthesizer.PlanSynthesizer, "synthesize", "core.synthesize",
         after=set_attrs(pool=lambda plan: plan.synthesis_info["static_pool_bytes"],
                         peak=lambda plan: plan.synthesis_info["peak_static_demand_bytes"]))
    wrap(synthesizer, "build_homophase_groups", "core.homophase")
    wrap(synthesizer, "fuse_adjacent_groups", "core.fuse")
    wrap(synthesizer, "build_global_plan", "core.global_plan")
    wrap(StaticAllocationPlan, "validate", "core.plan_validate")
    wrap(synthesizer, "locate_dynamic_reusable_spaces", "core.dynamic_space")

    # allocators: one replay per allocator run
    def replay_stats(span, args, kwargs, result):
        stats = result.allocator_stats
        span["attrs"].update(
            events=result.events_replayed,
            oom=not result.success,
            **{key: stats.get(key, 0) for key in (
                "device_malloc_calls", "vmm_ops", "fallback_allocs", "plan_mismatches",
                "cache_hits", "cache_misses")},
        )
    wrap(runner, "replay_trace", "allocators.replay", after=replay_stats)

    # simulator: orchestration around the replays
    def run_owner(config, allocator_name, *args, rank=0, ep_rank=0, **kwargs):
        return {"allocator": allocator_name,
                "run": f"{config.describe()}|{allocator_name}|{rank}.{ep_rank}"}
    wrap(runner, "run_workload", "simulator.run_workload", attrs=run_owner)
    wrap(engine, "run_job", "simulator.run_job")

    # timeline
    wrap(timeline, "simulate_timeline", "timeline.simulate")
    wrap(TimelineSimulator, "run", "timeline.run")

    # sweep: points, the pool orchestration, the on-disk cache
    def point_owner(point, *args, **kwargs):
        return {"point": f"{point.row_label}|{point.allocator_label}"}
    wrap(engine, "execute_point", "sweep.execute_point", attrs=point_owner)
    wrap(planner, "execute_point", "sweep.execute_point", attrs=point_owner)
    wrap(engine, "run_sweep", "sweep.run")

    def lookup(stat):
        def attrs(self, *args, **kwargs):
            return {"hits_before": getattr(self.stats, stat)}

        def after(span, args, kwargs, result):
            span["attrs"]["hit"] = getattr(args[0].stats, stat) > span["attrs"].pop("hits_before")
        return attrs, after
    for method, name, stat in (
        ("get_trace", "sweep.cache.get_trace", "trace_hits"),
        ("get_stalloc", "sweep.cache.get_plan", "plan_hits"),
        ("load_result", "sweep.cache.load_result", "result_hits"),
    ):
        attrs, after = lookup(stat)
        wrap(cache.SweepCache, method, name, attrs=attrs, after=after)
    wrap(cache.SweepCache, "store_result", "sweep.cache.store_result")
    wrap(cache, "_atomic_write_text", "sweep.cache.write",
         after=lambda span, args, kwargs, result: recorder.count(
             "cache_write_bytes", len(args[1])))
    wrap(Trace, "load", "sweep.cache.read_trace",
         after=lambda span, args, kwargs, result: recorder.count(
             "cache_read_bytes", os.path.getsize(args[1])))
    recorder.replace(cache, "json", _CountingJson(recorder, cache.json))

    # search: the planner and its bounds
    wrap(planner, "memory_lower_bound", "search.bounds")
    wrap(planner, "throughput_upper_bound", "search.bounds")

    def search_stats(span, args, kwargs, result):
        span["attrs"].update(candidates=result.candidates_total, evaluated=result.evaluated,
                             pruned_memory=result.pruned_by_memory,
                             pruned_bound=result.pruned_by_bound)
    wrap(planner, "search_points", "search.run", after=search_stats)


def load_spans(recorder: Recorder) -> tuple[list[dict], dict]:
    """This process's spans plus every worker's, and the merged counters."""
    spans = list(recorder.spans)
    counters = dict(recorder.counters)
    for path in sorted(glob.glob(os.path.join(recorder.out_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data["pid"] == recorder.pid:
            continue
        spans.extend(data["spans"])
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> tuple[dict[str, float], float]:
    """Self time per span id, and the summed parallel overlap of children."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    own: dict[str, float] = {}
    overlap = 0.0
    for span in spans:
        kids = children.get(span["id"], [])
        covered = _union(kids)
        overlap += sum(end - start for start, end in kids) - covered
        own[span["id"]] = (span["end"] - span["start"]) - covered
    return own, overlap


def layer_metrics(spans: list[dict], counters: dict, root_id: str) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``BENCHMARK.json``)."""
    own, overlap = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names, where=None):
        return sum(
            own[span["id"]]
            for name in names
            for span in by_name.get(name, ())
            if where is None or where(span)
        )

    def attr_sum(name, key, where=None):
        return sum(
            span["attrs"].get(key, 0)
            for span in by_name.get(name, ())
            if where is None or where(span)
        )

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, float] = {
        "workloads.tracegen.calls": calls("workloads.tracegen"),
        "workloads.tracegen.s": self_s("workloads.tracegen"),
        "workloads.tracegen.events": attr_sum("workloads.tracegen", "events"),
    }
    for part in ("profile", "homophase", "fuse", "global_plan", "plan_validate",
                 "dynamic_space", "synthesize"):
        metrics[f"core.{part}.s"] = self_s(f"core.{part}")
    metrics["core.synthesize.calls"] = calls("core.synthesize")
    metrics["core.pool_over_peak"] = ratio(
        attr_sum("core.synthesize", "pool"), attr_sum("core.synthesize", "peak")
    )

    for allocator in ALLOCATORS:
        def mine(span, allocator=allocator):
            return span["owner"].get("allocator") == allocator
        prefix = f"allocators.{allocator}."
        replay_s = self_s("allocators.replay", where=mine)
        events = attr_sum("allocators.replay", "events", where=mine)
        metrics[prefix + "replay_s"] = replay_s
        metrics[prefix + "events"] = events
        metrics[prefix + "events_per_s"] = ratio(events, replay_s)
        for key, column in (("oom_runs", "oom"), ("device_malloc_calls", "device_malloc_calls"),
                            ("vmm_ops", "vmm_ops")):
            metrics[prefix + key] = attr_sum("allocators.replay", column, where=mine)
        if allocator == "stalloc":
            for key in ("fallback_allocs", "plan_mismatches"):
                metrics[prefix + key] = attr_sum("allocators.replay", key, where=mine)
        if allocator == "torch2.3":
            hits = attr_sum("allocators.replay", "cache_hits", where=mine)
            misses = attr_sum("allocators.replay", "cache_misses", where=mine)
            metrics[prefix + "cache_hit_ratio"] = ratio(hits, hits + misses)

    for part in ("run_workload", "run_job"):
        metrics[f"simulator.{part}.calls"] = calls(f"simulator.{part}")
        metrics[f"simulator.{part}.self_s"] = self_s(f"simulator.{part}")

    simulate_calls = calls("timeline.simulate")
    metrics["timeline.simulate.calls"] = simulate_calls
    metrics["timeline.run.calls"] = calls("timeline.run")
    metrics["timeline.s"] = self_s("timeline.simulate", "timeline.run")
    metrics["timeline.memo_hit_ratio"] = ratio(simulate_calls - calls("timeline.run"),
                                               simulate_calls)

    metrics["sweep.execute_point.calls"] = calls("sweep.execute_point")
    metrics["sweep.execute_point.self_s"] = self_s("sweep.execute_point")
    metrics["sweep.run.self_s"] = self_s("sweep.run")
    lookups = ("sweep.cache.get_trace", "sweep.cache.get_plan", "sweep.cache.load_result")
    io_spans = ("sweep.cache.read_trace", "sweep.cache.write")

    def hit(span):
        return span["attrs"].get("hit", False)

    # A trace/plan lookup that hits decodes (read); one that misses encodes
    # and stores what it generated (write).  Result lookups only read.
    gets = lookups[:2]
    metrics["sweep.cache.read_s"] = self_s(*gets, where=hit) + self_s(
        "sweep.cache.load_result", "sweep.cache.read_trace"
    )
    metrics["sweep.cache.write_s"] = self_s(*gets, where=lambda span: not hit(span)) + self_s(
        "sweep.cache.store_result", "sweep.cache.write"
    )
    hits = sum(1 for name in lookups for span in by_name.get(name, ()) if hit(span))
    metrics["sweep.cache.hit_ratio"] = ratio(hits, sum(calls(name) for name in lookups))
    metrics["sweep.cache.bytes"] = counters.get("cache_read_bytes", 0) + counters.get(
        "cache_write_bytes", 0
    )

    candidates = attr_sum("search.run", "candidates")
    evaluated = attr_sum("search.run", "evaluated")
    metrics["search.candidates"] = candidates
    metrics["search.evaluated"] = evaluated
    metrics["search.pruned_memory"] = attr_sum("search.run", "pruned_memory")
    metrics["search.pruned_bound"] = attr_sum("search.run", "pruned_bound")
    metrics["search.evaluated_frac"] = ratio(evaluated, candidates)
    metrics["search.bounds_s"] = self_s("search.bounds")
    metrics["search.run.self_s"] = self_s("search.run")

    # Accounting: layer self times + unattributed - overlap == wall.
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own[span["id"]]
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = seconds
    root = next(span for span in spans if span["id"] == root_id)
    wall = root["end"] - root["start"]
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = own[root_id]
    metrics["trace.parallel_overlap_s"] = overlap
    metrics["trace.accounting_error_s"] = (
        sum(layer_self.values()) + own[root_id] - overlap - wall
    )
    metrics["trace.spans"] = len(spans)
    metrics["trace.worker_spans"] = sum(1 for span in spans if span["pid"] != root["pid"])
    return metrics


_COUNTS = ("calls", "events", "oom_runs", "device_malloc_calls", "vmm_ops", "fallback_allocs",
           "plan_mismatches", "candidates", "evaluated", "pruned_memory", "pruned_bound",
           "spans", "worker_spans")


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "events_per_s":
        return "events/s"
    if last == "s" or last.endswith("_s"):
        return "s"
    if last in _COUNTS:
        return "count"
    if last.endswith("_pct"):
        return "%"
    if last == "bytes":
        return "bytes"
    return "ratio"


def metric_better(name: str) -> str:
    """Which direction of a per-layer metric is the improvement."""
    last = name.rsplit(".", 1)[-1]
    higher = ("events_per_s", "events", "hit_ratio", "cache_hit_ratio", "memo_hit_ratio",
              "pruned_memory", "pruned_bound", "worker_spans")
    return "higher" if last in higher else "lower"
