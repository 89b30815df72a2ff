"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the repository root:

    python3 perfbench/baseline.py --workloads learn-small sweep --seeds 0 1 2 3 4 \
        --out perfbench/BENCH_baseline.json [--trace]

Runs are made one after another, never in parallel.  For each workload and
metric the summary gives the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share of the
median; ``within_third`` says whether that spread is below a third of the
metric's bound in BENCHMARK.json.  Every run's result line is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run; returns its record from the BENCH_*.json the run writes."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    suffix = ".trace" if trace else ""
    with open(os.path.join(ROOT, f"BENCH_{workload}{suffix}.json")) as fh:
        record = json.load(fh)
    if record["result"] != result:
        raise RuntimeError(f"{workload} seed {seed}: result file does not match stdout")
    return record


def summarise(results: list, bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        entry = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["within_third"] = spread < bounds[name] / 3
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            record = run_once(workload, seed, spec["run_seconds"], args.trace)
            report.setdefault("environment", record["environment"])
            report.setdefault("layer_targets", record["layer_targets"])
            runs.append({k: record[k] for k in ("seed", "result", "details")})
            print(workload, seed, json.dumps(record["result"]), flush=True)
        report["workloads"][workload] = {
            "summary": summarise([r["result"] for r in runs], bounds),
            "runs": runs,
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            flag = "" if s.get("within_third", True) else "  <-- spread above bound/3"
            print(f"{workload:12s} {name:30s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
