"""Measure the baseline and write perfbench/BASELINE.json.

Usage (from the repository root, on an otherwise idle machine):

    python3 perfbench/baseline.py

For every workload it makes two sets of ten --trace 0 runs, with seeds
101-110 and 201-210 and the run length of BENCHMARK.json, and one --trace 1
run with seed 1.  For each end-to-end metric it records the median and the
quartile spread ((q3 - q1) / median) of the first set, the same figures for
the uncalibrated values of the same runs, and the median and spread of the
second set.  It takes about 40 minutes.
"""

from __future__ import annotations

import ast
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = {"first": range(101, 111), "second": range(201, 211)}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if "# uncalibrated:" in line:
            result["uncalibrated"] = ast.literal_eval(line.split("# uncalibrated:", 1)[1].strip())
        if " ! " in line:
            result.setdefault("failures", []).append(line.split(" ! ", 1)[1])
        if "# env:" in line:
            result["env"] = ast.literal_eval(line.split("# env:", 1)[1].strip())
    print(workload, seed, trace, result["correct"], result["attempted"], result["failed"], flush=True)
    return result


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = spec["run_seconds"]
    base = {"note": __doc__.split("\n\n")[3].strip().replace("\n", " "), "run_seconds": seconds,
            "end_to_end": {}, "per_layer": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {name: [_run(w, s, seconds, 0) for s in seeds] for name, seeds in SETS.items()}
        first, second = runs["first"], runs["second"]
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            entry = dict(_summary([r["metrics"][name]["value"] for r in first]), unit=m["unit"])
            if name in first[0]["uncalibrated"]:
                raw = _summary([r["uncalibrated"][name] for r in first])
                entry.update(uncalibrated_median=raw["median"], uncalibrated_spread=raw["spread"])
            other = _summary([r["metrics"][name]["value"] for r in second])
            entry.update(second_set_median=other["median"], second_set_spread=other["spread"])
            metrics[name] = entry
        base["end_to_end"][w] = {
            "seeds": {name: list(seeds) for name, seeds in SETS.items()},
            "attempted": [r["attempted"] for r in first + second],
            "failed": [r["failed"] for r in first + second],
            "correct": all(r["correct"] for r in first + second),
            "metrics": metrics,
        }
        traced = _run(w, 1, seconds, 1)
        base["per_layer"][w] = {k: v["value"] for k, v in traced["metrics"].items()}
        base["per_layer"][w]["correct"] = traced["correct"]
        base["per_layer"][w]["failures"] = traced.get("failures", [])
        base["env"] = first[0]["env"]
    with open(os.path.join(HERE, "BASELINE.json"), "w") as f:
        json.dump(base, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
