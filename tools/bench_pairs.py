"""Summarise paired benchmark runs of a parent and a changed checkout as a BENCH file.

Each input file is the complete stdout of one ``perfbench/run.py`` run with
``--trace 0``; its last line is the JSON result and its ``# env:`` line the
environment.  Runs pair up by position: the i-th ``--parent`` file with the
i-th ``--change`` file.  For every workload and end-to-end metric the output
holds the parent and change medians and quartiles, the number of pairs the
change wins (by the metric's direction in BENCHMARK.json), the raw values and
a verdict from the metric's BENCHMARK.json bound:

* ``gain``: the change wins at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more than
  the bound (a fraction of the parent's median);
* ``unresolved``: the parent's interquartile range exceeds the bound times its
  median, and not every change run is better than every parent run;
* ``unchanged``: anything else.

    python3 tools/bench_pairs.py --parent p1.out p2.out --change c1.out c2.out \\
        --note "matrix-checks, seeds 101-110" --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_run(path) -> dict:
    """{'workload', 'env', 'metrics': {name: value}} of one run's stdout."""
    lines = pathlib.Path(path).read_text().strip().splitlines()
    result = json.loads(lines[-1])
    workload = lines[0].split()[0]
    env = None
    for line in lines[:-1]:
        if line.startswith(workload) and "# env: " in line:
            env = ast.literal_eval(line.split("# env: ", 1)[1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"{path}: run is not correct or has failed operations")
    return {"workload": workload, "env": env,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def verdict(metric: dict, bound: float) -> str:
    """gain, regression, unresolved or unchanged for one metric's summary (see the module docstring)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    parent, change = metric["parent"], metric["change"]
    spread = parent["q3"] - parent["q1"]
    better_by = sign * (change["median"] - parent["median"])
    if metric["wins"] >= 0.9 * metric["pairs"] and better_by > spread:
        return "gain"
    if better_by < -bound * abs(parent["median"]):
        return "regression"
    separated = min(sign * a for a in change["values"]) > max(sign * b for b in parent["values"])
    if spread > bound * abs(parent["median"]) and not separated:
        return "unresolved"
    return "unchanged"


def summarise(parent_runs, change_runs, spec: dict, note: str = "") -> dict:
    """BENCH summary of paired runs; spec maps each metric name to its BENCHMARK.json entry."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, nonzero number of parent and change runs")
    workloads = {}
    for p, c in zip(parent_runs, change_runs):
        if p["workload"] != c["workload"]:
            raise ValueError(f"pair mixes workloads {p['workload']} and {c['workload']}")
        workloads.setdefault(p["workload"], []).append((p, c))
    out = {"note": note, "environment": parent_runs[0]["env"], "workloads": {}}
    for workload, pairs in workloads.items():
        metrics = {}
        for name, metric in spec.items():
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            metrics[name] = {
                "better": metric["better"],
                "parent": quartiles(before),
                "change": quartiles(after),
                "wins": sum(sign * (a - b) > 0.0 for b, a in zip(before, after)),
                "pairs": len(pairs),
            }
            metrics[name]["verdict"] = verdict(metrics[name], metric["bound"])
        out["workloads"][workload] = metrics
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--note", default="")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        bench = summarise([read_run(f) for f in args.parent], [read_run(f) for f in args.change],
                          {m["name"]: m for m in spec["end_to_end"]}, args.note)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pathlib.Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
