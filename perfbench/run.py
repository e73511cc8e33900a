"""The repository's benchmark: paper-eval, search-cold and sweep-warm.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-eval --seed 0 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the per-layer ones, measured by wrappers patched from outside the program
(see ``tracing.py``) in passes that alternate with untraced ones, so the
tracing overhead is reported against untraced wall time.

Every pass runs in a fresh interpreter (``one_pass.py``), so no in-process
memo of the program carries over between passes.  Passes repeat until
``--seconds`` have elapsed and the timings are reported as medians.
``attempted`` counts operations -- allocator runs (paper-eval), search
candidates (search-cold) or sweep points (sweep-warm) -- over all timed
passes; ``failed`` counts those that raised or failed an output check, so
``failed / attempted`` is the error rate.  Scratch files live under
``.perfbench-work/`` in the checkout and are removed at exit, except the
merged spans of the last traced pass (``.perfbench-work/spans-<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-eval", "search-cold", "sweep-warm")
#: Set-up is sampled at least this often per run (extra set-up-only passes).
MIN_SETUP_SAMPLES = 5
#: Timed passes per run at least, however long they take: this machine's
#: speed drifts by up to a third over seconds, so one pass is too few.
MIN_PASSES = {"paper-eval": 2, "search-cold": 2, "sweep-warm": 4}
#: sweep-warm's set-up includes a whole cold populate pass, so it is sampled
#: once per populate (no set-up-only probes); each populate serves this many
#: warm passes.
WARM_PASSES_PER_POPULATE = 2
#: Every pass of one run must end by then (the contract allows 180 s).
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A pass could not run (as opposed to running and failing a check)."""


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._dirs = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def new_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"p{self._dirs}"
        path.mkdir()
        return path

    def spawn(self, mode: str, pass_dir: Path, trace: int = 0) -> dict:
        """Run one pass process to completion and return its summary."""
        out = pass_dir / f"{mode}-{trace}-{time.monotonic_ns()}.json"
        command = [
            sys.executable, str(HERE / "one_pass.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--trace", str(trace), "--work", str(pass_dir), "--out", str(out),
        ]
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, env=self.env, stdout=sys.stderr.fileno(), start_new_session=True
        )
        try:
            process.wait(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise BenchError(f"{mode} pass overran the {RUN_BUDGET_S:.0f} s run budget")
        finally:
            # Reap anything the pass left behind in its session.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if process.returncode != 0:
            raise BenchError(f"{mode} pass exited with code {process.returncode}")
        with open(out, encoding="utf-8") as handle:
            summary = json.load(handle)
        summary["spawned"] = spawned
        return summary

    def elapsed(self, started: float) -> bool:
        return time.monotonic() - started >= self.seconds

    # ------------------------------------------------------------------ #
    def measure(self) -> tuple[list[dict], list[float]]:
        """Untraced passes until ``--seconds`` elapsed; returns them + set-ups."""
        passes: list[dict] = []
        setups: list[float] = []
        started = time.monotonic()
        sweep = self.workload == "sweep-warm"
        while len(passes) < MIN_PASSES[self.workload] or not self.elapsed(started):
            pass_dir = self.new_dir()
            if not sweep:
                timed = self.spawn("timed", pass_dir)
                setups.append(timed["ready"] - timed["spawned"])
                passes.append(timed)
                continue
            populate = self.spawn("populate", pass_dir)
            # A fresh rerun leaves the trace/plan cache as it found it, so
            # each populated cache serves several warm passes.
            warm = [self.spawn("timed", pass_dir) for _ in range(WARM_PASSES_PER_POPULATE)]
            setups.append(populate["done"] - populate["spawned"]
                          + warm[0]["ready"] - warm[0]["spawned"])
            passes.extend(warm)
        while not sweep and len(setups) < MIN_SETUP_SAMPLES:
            probe = self.spawn("setup", self.new_dir())
            setups.append(probe["ready"] - probe["spawned"])
        return passes, setups

    def measure_traced(self) -> tuple[list[dict], list[dict]]:
        """Alternate untraced and traced passes; at least one of each."""
        untraced: list[dict] = []
        traced: list[dict] = []
        started = time.monotonic()
        if self.workload == "sweep-warm":
            # A fresh rerun leaves the trace/plan cache as it found it, so one
            # populate serves every pass of this run.
            shared = self.new_dir()
            self.spawn("populate", shared)
            new_dir = lambda: shared  # noqa: E731
        else:
            new_dir = self.new_dir
        while not traced or not self.elapsed(started):
            untraced.append(self.spawn("timed", new_dir()))
            traced.append(self.spawn("timed", new_dir(), trace=1))
        return untraced, traced


def _check(run: Run, passes: list[dict], traced: list[dict]) -> list[str]:
    """Run-level output checks over all timed passes of one run."""
    problems = []
    digests = {p["digest"] for p in passes + traced}
    if len(digests) != 1:
        problems.append(f"simulated outputs differ between passes: {sorted(digests)}")
    with open(HERE / "baseline.json", encoding="utf-8") as handle:
        recorded = json.load(handle)["digests"].get(run.workload, {}).get(str(run.seed))
    if recorded is not None and recorded not in digests:
        problems.append(f"simulated outputs differ from the recorded seed-{run.seed} digest")
    calls = {p["layers"]["workloads.tracegen.calls"] for p in traced}
    for p in traced:
        layers = p["layers"]
        if layers["workloads.tracegen.calls"] != p["tracegen_expected"]:
            problems.append(
                f"{layers['workloads.tracegen.calls']} trace generations, expected "
                f"{p['tracegen_expected']}: an in-process memo carried over"
            )
        if abs(layers["trace.accounting_error_s"]) > 1e-3:
            problems.append("per-layer self times do not account for the traced wall time")
        if run.workload == "sweep-warm" and not layers["trace.worker_spans"]:
            problems.append("no spans came back from the sweep's pool workers")
    if len(calls) > 1:
        problems.append(f"trace generations differ between traced passes: {sorted(calls)}")
    return problems


def _end_to_end(passes: list[dict], setups: list[float]) -> dict:
    first = passes[0]
    frag_base = first["frag_torch23_gib"]
    best = first["best_tokens_per_s"]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "events_per_s": (statistics.median(p["events"] / p["wall_s"] for p in passes),
                         "events/s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "frag_reduction_pct": (
            100 * (1 - first["frag_stalloc_gib"] / frag_base) if frag_base else 0.0, "%"
        ),
        "stalloc_mem_eff_min_pct": (first["stalloc_eff_min_pct"], "%"),
        "best_tokens_per_s": (
            math.exp(statistics.fmean(math.log(v) for v in best)) if best else 0.0,
            "tokens/s",
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    metrics = {
        name: {"value": statistics.median(p["layers"][name] for p in traced),
               "unit": metric_unit(name)}
        for name in names
    }
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100 * (metrics["trace.wall_s"]["value"] / untraced_wall - 1),
        "unit": "%",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        if args.trace:
            untraced, traced = run.measure_traced()
            passes = untraced
            metrics = _per_layer(untraced, traced)
            shutil.copyfile(traced[-1]["spans_file"], work_root / f"spans-{args.workload}.json")
        else:
            passes, setups = run.measure()
            traced = []
            metrics = _end_to_end(passes, setups)
        problems = _check(run, passes, traced)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"digest {passes[0]['digest']}", file=sys.stderr)
    for problem in [f for p in passes + traced for f in p["failures"]] + problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes + traced)
    # A run-level check that fails counts as one more failed operation.
    failed = min(attempted, sum(p["failed"] for p in passes + traced) + len(problems))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
