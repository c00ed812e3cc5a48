"""Measure run-to-run spread of the end-to-end metrics; record it in spread.json.

    python3 bench/spread.py --runs 10 --write

Runs run.py once per seed (1..runs) and workload with the seconds in
BENCHMARK.json and tracing off.  For each metric it reports the median
and the distance between the first and third quartiles as a share of
the median, next to the metric's bound.  The bounds in BENCHMARK.json
rest on these numbers; run.py copies them into each run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true", help="record the result in spread.json")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    recorded = json.loads((BENCH / "spread.json").read_text()) if (
        BENCH / "spread.json").is_file() else {}
    worst = 0.0
    for workload in WORKLOADS:
        samples: dict[str, list[float]] = {}
        started = time.monotonic()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        summary = {name: spread(values) for name, values in samples.items()}
        for name, s in summary.items():
            share = s["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:7} {name:16} median {s['median']:12.6g}  spread {s['spread']:7.4f}"
                  f"  bound {bounds[name]:.3f}  spread/bound {share:.2f}")
        recorded[workload] = {
            "runs": args.runs, "seeds": [1, args.runs],
            "seconds": config["run_seconds"], "python": platform.python_version(),
            "nproc": os.cpu_count(), "elapsed_s": time.monotonic() - started,
            "metrics": summary,
        }
    if args.write:
        (BENCH / "spread.json").write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"largest spread/bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
