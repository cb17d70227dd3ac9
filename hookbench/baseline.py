"""Run every workload over several seeds and record the figures in a BENCH_<label>.json.

    python3 hookbench/baseline.py --label seed

For each workload it makes one untraced run per seed (seeds 1..SEEDS) and one
traced run (seed 1), each through ``run.py`` with the ``run_seconds`` of
BENCHMARK.json.  The file holds every run's result line and summary lines
(which give the reference run's time) and, per metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (quartile distance
over median), with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *log, last = done.stdout.strip().splitlines()
    return dict(json.loads(last), log=log)


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {
        "label": args.label,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = [run(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        traced = run(workload, 1, seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in untraced) and traced["correct"],
            "end_to_end": summary(untraced),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "runs": untraced + [traced],
        }
        for name, m in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:20s} {name:16s} median={m['median']:.5g} spread={m['spread']:.2%}")
    (HERE / f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
