"""Run the benchmark on several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--workloads graphs-n7,trees-n9] [--runs 10]
                                  [--first-seed 1] [--trace 0] [--out perfbench/BASELINE.json]

For every workload it makes ``--runs`` runs of ``perfbench/run.py``, one per
seed, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (interquartile
range over the median) and, for end-to-end metrics, the bound from
BENCHMARK.json.  ``--out`` records all of it with the commit, the Python
version and the core count, in the file's "end_to_end" or "per_layer"
section (``--trace 1``), keeping the other section.
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


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "samples": len(values),
    }


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    record.update(commit=commit(), python=platform.python_version(), nproc=os.cpu_count(),
                  run_seconds=args.seconds)
    record[section] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        metrics = {}
        print(f"# {workload}: {args.runs} runs, failed "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"unit": first["unit"], **summarise(values), "values": values}
            if name in bounds:
                entry["bound"] = bounds[name]
            metrics[name] = entry
            flag = ""
            if name in bounds and name != "setup_s" and entry["spread"] > bounds[name] / 3:
                flag = "  spread above a third of the bound"
            print(f"{name:40} median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g} "
                  f"q3 {entry['q3']:<12.6g} spread {entry['spread']:.4f} "
                  f"{first['unit']}{flag}", flush=True)
        record[section][workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
