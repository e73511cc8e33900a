"""Record this commit's baseline into ``perfbench/baseline.json``.

Runs every workload at the default and the held-out seed, untraced and
traced, and stores the end-to-end metrics, the per-layer table and the digest
of the simulated outputs (which ``run.py`` then checks on every later run at
those seeds).  Run from the root of a checkout::

    python3 perfbench/record_baseline.py [--seconds 15]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-eval", "search-cold", "sweep-warm")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{done.stderr}")
    digest = next(line.split()[-1] for line in done.stderr.splitlines()
                  if line.startswith("digest "))
    return {name: metric["value"] for name, metric in result["metrics"].items()}, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    path = HERE / "baseline.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["digests"] = {}
    data["baseline"] = {}
    # run.py checks outputs against the recorded digests; drop the old ones
    # first so a change to a workload's inputs can be recorded at all.
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for workload in WORKLOADS:
        for seed in data["seeds"].values():
            end_to_end, digest = _run(workload, seed, args.seconds, 0)
            per_layer, traced_digest = _run(workload, seed, args.seconds, 1)
            if traced_digest != digest:
                raise SystemExit(f"{workload} seed {seed}: traced outputs differ")
            data["digests"].setdefault(workload, {})[str(seed)] = digest
            data["baseline"].setdefault(workload, {})[str(seed)] = {
                "end_to_end": end_to_end, "per_layer": per_layer,
            }
            print(f"{workload} seed {seed}: wall_s {end_to_end['wall_s']:.3f}", flush=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
