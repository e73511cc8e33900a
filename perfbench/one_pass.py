"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Modes:

* ``setup``    -- import the program and build the workload's inputs, then exit;
* ``populate`` -- ``sweep-warm`` only: fill the cache from cold (its set-up);
* ``timed``    -- build the inputs, run the workload's timed work (traced with
  ``--trace 1``), check the outputs, and write a JSON summary to ``--out``.

Timestamps that the orchestrator compares with its own clock use
``time.monotonic``, which is one system-wide clock on Linux.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _peak_rss_mib() -> float:
    """Highest RSS of this process and of its reaped pool workers, in MiB."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "populate", "timed"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="this run's scratch directory")
    parser.add_argument("--out", required=True, help="where to write the JSON summary")
    args = parser.parse_args()

    import workloads
    from repro.obs.tracer import is_enabled

    build_inputs, run = workloads.WORKLOADS[args.workload]
    inputs = build_inputs(args.seed, args.work)
    summary: dict = {"ready": time.monotonic()}
    if args.mode == "populate":
        workloads.sweep_warm_populate(inputs, args.seed, args.work)
        summary["done"] = time.monotonic()
    elif args.mode == "timed":
        if is_enabled():
            raise RuntimeError("repro.obs must stay disabled in benchmark passes")
        recorder = root = None
        if args.trace:
            import tracing

            recorder = tracing.Recorder(os.path.join(args.work, f"spans-{os.getpid()}"))
            os.makedirs(recorder.out_dir)
            tracing.install(recorder)
            root = recorder.open("pass", {})
        started = time.perf_counter()
        results = run(inputs, args.seed)
        summary["wall_s"] = time.perf_counter() - started
        if recorder is not None:
            recorder.close(root)
            recorder.unwrap()
        summary["peak_rss_mib"] = _peak_rss_mib()
        summary.update(workloads.check(args.workload, results, args.work).summary())
        if recorder is not None:
            spans, counters = tracing.load_spans(recorder)
            summary["layers"] = tracing.layer_metrics(spans, counters, root["id"])
            summary["spans_file"] = os.path.join(recorder.out_dir, "all-spans.json")
            with open(summary["spans_file"], "w", encoding="utf-8") as handle:
                json.dump(spans, handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
