"""The benchmark's three workloads: seeded inputs, the timed work, output checks.

Each workload is a closed loop with one caller: the pass process calls the
public Python API and waits for the answer, the way a CLI user does.  Every
function here runs inside a pass process (see ``one_pass.py``), never in the
orchestrator.

* ``paper-eval`` -- the paper's section 8 allocator comparison at full size:
  three models x six optimization presets x five allocators, serial, one
  rank, no disk cache.
* ``search-cold`` -- the auto-parallelism planner answering "which
  configuration fits and runs fastest" from empty cache directories; the
  MoE search runs once per routing seed (see ``MOE_ROUTING_SEEDS``).
* ``sweep-warm`` -- a multi-rank job sweep rerun with ``fresh`` semantics
  (``reuse_results=False``) on a cache that a cold populate pass filled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace

GIB = 1 << 30

#: Host-time columns of a sweep/search row; everything else is simulated.
HOST_COLUMNS = frozenset({"elapsed_seconds", "cached"})

LINEUP = ["torch2.0", "gmlake", "torch2.3", "torch_es", "stalloc"]
PAPER_MODELS = ("gpt2-345m", "llama2-7b", "qwen1.5-moe-a2.7b")
SEARCH_MODELS = ("gpt2-345m", "llama2-7b")
SWEEP_ALLOCATORS = ["torch2.3", "torch_es", "stalloc"]
#: search-cold runs the moe-tiny search at this many routing seeds derived
#: from the benchmark's seed.  About one routing seed in five draws a hot
#: expert whose straggler cuts the argmin's throughput by ~21%, so one draw
#: would make best_tokens_per_s depend on the seed far more than on the code;
#: the median over several draws is the typical MoE throughput.
MOE_ROUTING_SEEDS = 7


@dataclass
class Outcome:
    """What one pass produced, reduced to the numbers the benchmark reports."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    events: int = 0
    #: Fragmentation (reserved - allocated at peak, GiB) summed over the
    #: points where both stalloc and torch2.3 ran successfully.
    frag_stalloc_gib: float = 0.0
    frag_torch23_gib: float = 0.0
    stalloc_eff_min_pct: float = math.inf
    #: Best simulated tokens/s of each group (model, search or sweep spec).
    best_tokens_per_s: list[float] = field(default_factory=list)
    #: Simulated columns only, in a fixed order; hashed into ``digest``.
    rows: list = field(default_factory=list)
    #: Trace generations this pass must perform when no memo carries over.
    tracegen_expected: int = 0

    def digest(self) -> str:
        text = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def add_pair(self, frags: dict[str, float]) -> None:
        """Account one point's stalloc/torch2.3 fragmentation if both ran."""
        if "stalloc" in frags and "torch2.3" in frags:
            self.frag_stalloc_gib += frags["stalloc"]
            self.frag_torch23_gib += frags["torch2.3"]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "events": self.events,
            "frag_stalloc_gib": self.frag_stalloc_gib,
            "frag_torch23_gib": self.frag_torch23_gib,
            "stalloc_eff_min_pct": self.stalloc_eff_min_pct,
            "best_tokens_per_s": self.best_tokens_per_s,
            "tracegen_expected": self.tracegen_expected,
            "digest": self.digest(),
        }


def _check_bytes(label: str, allocated: float, reserved: float, capacity: float) -> str | None:
    """The invariant of every successful run: allocated <= reserved <= capacity."""
    if 0 <= allocated <= reserved <= capacity * (1 + 1e-12):
        return None
    return f"{label}: allocated {allocated} / reserved {reserved} / capacity {capacity}"


def _simulated(row: dict) -> dict:
    return {key: value for key, value in row.items() if key not in HOST_COLUMNS}


def _check_rows(outcome: Outcome, group: str, rows: list[dict], capacity_gib: float) -> float:
    """Row-level checks and metrics shared by search-cold and sweep-warm.

    Returns the group's best simulated tokens/s (0 if no row ran)."""
    frags: dict[str, dict[str, float]] = {}
    best = 0.0
    for row in rows:
        label = f"{group}/{row['config']}/{row['allocator']}"
        outcome.events += row["events_replayed"]
        if row["status"] != "ok":
            continue
        problem = _check_bytes(label, row["allocated_gib"], row["reserved_gib"], capacity_gib)
        if problem:
            outcome.failures.append(problem)
            continue
        frags.setdefault(row["config"], {})[row["allocator"]] = (
            row["reserved_gib"] - row["allocated_gib"]
        )
        if row["allocator"] == "stalloc":
            outcome.stalloc_eff_min_pct = min(
                outcome.stalloc_eff_min_pct, row["memory_efficiency_pct"]
            )
        best = max(best, row.get("tokens_per_second") or 0.0)
    for pair in frags.values():
        outcome.add_pair(pair)
    return best


# ---------------------------------------------------------------------- #
# paper-eval
# ---------------------------------------------------------------------- #
def paper_eval_inputs(seed: int, work_dir: str):
    from repro.experiments.common import A800_WORKLOADS, PRESETS

    return [
        (model, preset, A800_WORKLOADS[model].preset(preset), A800_WORKLOADS[model].device_name)
        for model in PAPER_MODELS
        for preset in PRESETS
    ]


def paper_eval_run(inputs, seed: int) -> list:
    from repro.simulator.runner import run_workload_suite

    results = []
    for model, preset, config, device_name in inputs:
        try:
            runs = run_workload_suite(
                config,
                LINEUP,
                device_name=device_name,
                seed=seed,
                jobs=1,
                with_throughput=True,
            )
        except Exception as error:  # one failed suite must not hide the others
            runs = error
        results.append((model, preset, device_name, runs))
    return results


def paper_eval_check(results) -> Outcome:
    from repro.simulator.throughput import GPU_SPECS

    outcome = Outcome(tracegen_expected=len(results))
    best: dict[str, float] = {}
    for model, preset, device_name, runs in results:
        outcome.attempted += len(LINEUP)
        if isinstance(runs, Exception):
            outcome.failures.extend(
                f"{model}/{preset}/{name}: {runs!r}" for name in LINEUP
            )
            continue
        capacity = GPU_SPECS[device_name].memory_gib * GIB
        frags: dict[str, float] = {}
        for name in LINEUP:
            run = runs[name]
            replay = run.replay
            metrics = replay.metrics
            outcome.events += replay.events_replayed
            outcome.rows.append(
                {
                    "model": model,
                    "preset": preset,
                    "allocator": name,
                    "success": replay.success,
                    "peak_allocated_bytes": metrics.peak_allocated_bytes,
                    "peak_reserved_bytes": metrics.peak_reserved_bytes,
                    "events_replayed": replay.events_replayed,
                    "oom_at_event": replay.oom_at_event,
                    "allocator_stats": replay.allocator_stats,
                    "overhead_seconds": replay.overhead_seconds,
                    "tokens_per_second": run.tokens_per_second,
                }
            )
            if not replay.success:
                continue
            problem = _check_bytes(
                f"{model}/{preset}/{name}",
                metrics.peak_allocated_bytes,
                metrics.peak_reserved_bytes,
                capacity,
            )
            if problem:
                outcome.failures.append(problem)
                continue
            frags[name] = metrics.fragmentation_bytes / GIB
            if name == "stalloc":
                outcome.stalloc_eff_min_pct = min(
                    outcome.stalloc_eff_min_pct, 100 * metrics.memory_efficiency
                )
            best[model] = max(best.get(model, 0.0), run.tokens_per_second or 0.0)
        outcome.add_pair(frags)
    outcome.best_tokens_per_s = [value for value in best.values() if value > 0]
    return outcome


# ---------------------------------------------------------------------- #
# search-cold
# ---------------------------------------------------------------------- #
def search_cold_inputs(seed: int, work_dir: str):
    from repro.search import SearchSpec, load_search_spec

    specs = [
        SearchSpec(
            name=f"search-{model}",
            model=model,
            cluster="8xA800-80GB",
            global_batch=16,
            allocators=["torch2.3", "stalloc"],
            seed=seed,
        )
        for model in SEARCH_MODELS
    ]
    moe = load_search_spec("moe-tiny")
    specs.extend(
        replace(moe, name=f"{moe.name}-r{index}", seed=seed * MOE_ROUTING_SEEDS + index)
        for index in range(MOE_ROUTING_SEEDS)
    )
    cache_dirs = []
    for spec in specs:
        cache_dir = os.path.join(work_dir, "search-cache", spec.name)
        os.makedirs(cache_dir)  # must not exist yet: the search starts cold
        cache_dirs.append(cache_dir)
    return list(zip(specs, cache_dirs))


def search_cold_run(inputs, seed: int) -> list:
    from repro.search import run_search

    results = []
    for spec, cache_dir in inputs:
        try:
            results.append((spec, run_search(spec, cache_dir=cache_dir)))
        except Exception as error:
            results.append((spec, error))
    return results


def search_cold_check(results) -> Outcome:
    outcome = Outcome()
    moe_best: list[float] = []
    for spec, result in results:
        if isinstance(result, Exception):
            outcome.attempted += 1
            outcome.failures.append(f"{spec.name}: {result!r}")
            continue
        outcome.attempted += result.candidates_total
        budget = max([spec.cluster.capacity_gib, *spec.cluster.budget_map().values()])
        accounted = result.pruned_by_memory + result.pruned_by_bound + result.evaluated
        if accounted != result.candidates_total:
            outcome.failures.append(
                f"{spec.name}: {accounted} candidates accounted of {result.candidates_total}"
            )
        group_best = _check_rows(outcome, spec.name, result.rows, budget)
        if spec.model == "moe-tiny":
            moe_best.append(group_best)
        elif group_best > 0:
            outcome.best_tokens_per_s.append(group_best)
        best = result.best
        if best is None or best["reserved_gib"] > budget:
            outcome.failures.append(f"{spec.name}: no argmin that fits {budget} GiB")
        outcome.tracegen_expected += result.cache_stats.get("trace_misses", 0)
        outcome.rows.append(
            {
                "search": spec.name,
                "candidates": result.candidates_total,
                "pruned_memory": result.pruned_by_memory,
                "pruned_bound": result.pruned_by_bound,
                "evaluated": result.evaluated,
                "best": best and best["config"],
                "rows": [_simulated(row) for row in result.rows],
            }
        )
    if moe_best and statistics.median(moe_best) > 0:
        outcome.best_tokens_per_s.append(statistics.median(moe_best))
    return outcome


# ---------------------------------------------------------------------- #
# sweep-warm
# ---------------------------------------------------------------------- #
#: Pool size of the sweep (the CLI's ``--jobs``).
SWEEP_JOBS = 2


def _sweep_specs(seed: int) -> list[dict]:
    """pp >= 2 everywhere; training and generation; MoE with ep > 1.

    The grid holds 42 distinct per-rank traces, more than the runner's
    16-entry in-process memo, so the warm pass really reads them from disk.
    """
    common = {"allocators": SWEEP_ALLOCATORS, "ranks": "all", "timing": "timeline", "seed": seed}
    return [
        {
            **common,
            "name": "warm-gpt2-train",
            "model": "gpt2-345m",
            "parallelism": {"pipeline_parallel": 4, "data_parallel": 2},
            "base": {"num_microbatches": 8, "micro_batch_size": 8},
            "grid": {"preset": ["Naive", "R", "V", "ZR"]},
        },
        {
            **common,
            "name": "warm-llama-train",
            "model": "llama2-7b",
            "parallelism": {"tensor_parallel": 2, "pipeline_parallel": 4, "data_parallel": 1},
            "base": {"num_microbatches": 8, "micro_batch_size": 1},
            "grid": {"preset": ["Naive"]},
            "scale": 0.5,
        },
        {
            **common,
            "name": "warm-gpt2-generate",
            "model": "gpt2-345m",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 4},
            "base": {"num_microbatches": 4, "micro_batch_size": 4, "workload_kind": "generation"},
            "grid": {"decode_steps": [16, 32]},
            "scale": 0.5,
        },
        {
            **common,
            "name": "warm-moe-ep",
            "model": "moe-tiny",
            "parallelism": {"pipeline_parallel": 2, "data_parallel": 4, "expert_parallel": 4},
            "base": {"num_microbatches": 4, "micro_batch_size": 2, "moe_comm_factor": 1.0},
            "grid": {"moe_imbalance": [0.0, 0.3, 0.6]},
        },
    ]


def sweep_warm_inputs(seed: int, work_dir: str):
    from repro.sweep.spec import SweepSpec

    cache_dir = os.path.join(work_dir, "sweep-cache")
    return [SweepSpec.from_dict(data) for data in _sweep_specs(seed)], cache_dir


def _cold_rows_path(work_dir: str) -> str:
    return os.path.join(work_dir, "cold-rows.json")


def sweep_warm_populate(inputs, seed: int, work_dir: str) -> None:
    """The setup pass: fill the cache from cold and keep its rows for the check."""
    from repro.sweep.engine import run_sweep

    specs, cache_dir = inputs
    cold = {
        spec.name: [
            _simulated(row)
            for row in run_sweep(spec, jobs=SWEEP_JOBS, cache_dir=cache_dir).rows
        ]
        for spec in specs
    }
    with open(_cold_rows_path(work_dir), "w", encoding="utf-8") as handle:
        json.dump(cold, handle)


def sweep_warm_run(inputs, seed: int) -> list:
    from repro.sweep.engine import run_sweep

    specs, cache_dir = inputs
    results = []
    for spec in specs:
        try:
            result = run_sweep(
                spec, jobs=SWEEP_JOBS, cache_dir=cache_dir, reuse_results=False
            )
        except Exception as error:
            result = error
        results.append((spec, result))
    return results


def sweep_warm_check(results, work_dir: str) -> Outcome:
    from repro.simulator.throughput import GPU_SPECS

    with open(_cold_rows_path(work_dir), encoding="utf-8") as handle:
        cold = json.load(handle)
    outcome = Outcome(tracegen_expected=0)
    for spec, result in results:
        points = len(cold[spec.name])
        outcome.attempted += points
        if isinstance(result, Exception):
            outcome.failures.extend(f"{spec.name}: {result!r}" for _ in range(points))
            continue
        stats = result.cache_stats
        if stats.get("trace_misses") or stats.get("plan_misses"):
            outcome.failures.append(
                f"{spec.name}: warm rerun missed the cache "
                f"({stats.get('trace_misses')} traces, {stats.get('plan_misses')} plans)"
            )
        warm = [_simulated(row) for row in result.rows]
        for index, (old, new) in enumerate(zip(cold[spec.name], warm)):
            if old != new:
                outcome.failures.append(f"{spec.name}: row {index} differs from the cold pass")
        if len(warm) != points:
            outcome.failures.append(f"{spec.name}: {len(warm)} rows, cold pass had {points}")
        capacity = GPU_SPECS[spec.device_name].memory_gib
        best = _check_rows(outcome, spec.name, result.rows, capacity)
        if best > 0:
            outcome.best_tokens_per_s.append(best)
        outcome.rows.append({"sweep": spec.name, "rows": warm})
    return outcome


WORKLOADS = {
    "paper-eval": (paper_eval_inputs, paper_eval_run),
    "search-cold": (search_cold_inputs, search_cold_run),
    "sweep-warm": (sweep_warm_inputs, sweep_warm_run),
}


def check(name: str, results, work_dir: str) -> Outcome:
    if name == "paper-eval":
        return paper_eval_check(results)
    if name == "search-cold":
        return search_cold_check(results)
    return sweep_warm_check(results, work_dir)
