"""spectral-cone benchmark: end-to-end and per-layer numbers for three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload matrix-checks --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every workload runs in fresh Python processes (one client, closed loop: the
next operation starts when the previous one returns) with BLAS and OpenMP
pinned to one thread.  Operations go through spectral_cone.cli.main(argv),
with stdout/stderr captured, and spectral.entropy for entropy queries; the
inputs are generated from --seed by workloads.py and every output is judged
by oracle.py.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh processes), throughput (work over the summed latency of the
operations), per-operation latency percentiles and peak memory.  Timings
are divided by the machine slowdown measured around them (see _calibrated);
the uncalibrated values are printed as notes.  --trace 1 runs the workload's fixed traced
rounds twice in fresh processes, untraced and traced, checks that both
returned identical outputs and prints per-layer call counts and self times.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
An operation fails when an exception escapes, its exit code or stderr is
not the documented one, or its answer is wrong; "correct" is false when
any answer was wrong or the traced outputs differ from the untraced ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from tracer import SPAN_NAMES  # noqa: E402

WORKLOADS = ("matrix-checks", "vector-grid", "queries")
SETUP_PROBES = 4  # extra fresh processes that only set up; the measuring one adds a fifth
WORKER_TIMEOUT_S = 150
# Median duration of worker.reference_work on an unloaded machine.  Timings
# are divided by (measured reference median / this), which removes the
# machine-wide slowdowns that other tenants cause; the raw values are
# printed alongside.
REFERENCE_NOMINAL_S = 0.012
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_MIN_SAMPLES = 2

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER.update({
    "scipy.linprog.feasible_ratio": "ratio",
    "import.spectral_cone_s": "s",
    "import.scipy_optimize_loaded": "flag",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "queries.cold_polytope_share": "ratio",
    "queries.invalid_share": "ratio",
    "run.fail_ratio": "ratio",
})


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("SPECTRAL_CONE_SEED", None)
    return env


def _worker(workload: str, seed: int, mode: str, **extra) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON plus the spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info["ready"] - spawned
    return info


def _quantile(values, q: int) -> float:
    """q-th percentile with statistics' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _busy(records) -> float:
    """Seconds spent inside the operations: their summed measured latency."""
    return sum(rec[4] for rec in records)


def _work_rate(records, labels=None) -> float:
    """Work units per busy second, restricted to the given operation labels."""
    chosen = [rec for rec in records if labels is None or rec[1] in labels]
    return sum(rec[3] for rec in chosen) / _busy(chosen)


def _tally(records, failures) -> dict:
    statuses = [rec[5] for rec in records]
    return {
        "attempted": len(records),
        "failed": sum(s != "ok" for s in statuses),
        "incorrect": sum(s == "incorrect" for s in statuses),
        "failures": failures,
    }


def _shares(records) -> dict:
    n = len(records)
    return {
        "queries.cold_polytope_share": sum(rec[2] == "cold" for rec in records) / n,
        "queries.invalid_share": sum(rec[2] not in ("valid", "cold") for rec in records) / n,
    }


def _slowdown(info) -> float:
    """How much slower than nominal the process found the machine overall."""
    return statistics.median(d for _, d in info["reference"]) / REFERENCE_NOMINAL_S


def _calibrated(info) -> list:
    """Records with each latency divided by the machine slowdown around it.

    The slowdown at an operation is the median duration of the reference
    samples taken within CALIBRATION_WINDOW_S of the operation (before its
    start or after its end; at least the CALIBRATION_MIN_SAMPLES nearest),
    over REFERENCE_NOMINAL_S.
    """
    ref = sorted(info["reference"])
    starts = [t for t, _ in ref]
    out = []
    for rec in info["records"]:
        begin, end = rec[6], rec[6] + rec[4]
        lo = bisect.bisect_left(starts, begin - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(starts, end + CALIBRATION_WINDOW_S)
        if hi - lo < CALIBRATION_MIN_SAMPLES:
            near = sorted(ref, key=lambda sample: max(begin - sample[0], sample[0] - end))
            near = near[:CALIBRATION_MIN_SAMPLES]
        else:
            near = ref[lo:hi]
        slow = statistics.median(d for _, d in near) / REFERENCE_NOMINAL_S
        out.append(rec[:4] + [rec[4] / slow] + rec[5:])
    return out


def _latency_metrics(records) -> dict:
    latencies = [rec[4] for rec in records]
    return {
        "work_per_s": _work_rate(records),
        "op_ms_p50": 1e3 * _quantile(latencies, 50),
        "op_ms_p99": 1e3 * _quantile(latencies, 99),
    }


def end_to_end(workload: str, seed: int, seconds: float):
    probes = [_worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    main = _worker(workload, seed, "measure", seconds=seconds)
    probes.append(main)
    records = _calibrated(main)
    metrics = {"setup_s": statistics.median(p["setup_s"] / _slowdown(p) for p in probes)}
    metrics.update(_latency_metrics(records))
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    raw = {"setup_s": statistics.median(p["setup_s"] for p in probes)}
    raw.update(_latency_metrics(main["records"]))
    tally = _tally(records, main["failures"])
    notes = {"env": main["env"], "rounds": len({rec[0] for rec in records}),
             "latency_samples": len(records), "machine_slowdown": _slowdown(main),
             "uncalibrated": raw}
    # the same numbers under the names of the layers they stress
    if workload != "queries":
        checks = {rec[1] for rec in records if not rec[1].startswith("landscape")}
        notes["check_trials_per_s"] = _work_rate(records, checks)
    if workload == "vector-grid":
        grids = {rec[1] for rec in records if rec[1].startswith("landscape")}
        notes["landscape_points_per_s"] = _work_rate(records, grids)
    if workload == "queries":
        notes["queries_per_s"] = metrics["work_per_s"]
        notes.update(_shares(records))
    notes["fail_ratio"] = tally["failed"] / tally["attempted"]
    return metrics, END_TO_END, tally, notes, True


def per_layer(workload: str, seed: int):
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = _worker(workload, seed, "fixed")
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz")
    traced = _worker(workload, seed, "fixed", trace=1, spans_out=spans)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = traced["layers"][name]
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
    lp_calls = metrics["scipy.linprog.calls"]
    records = traced["records"]
    tally = _tally(records, traced["failures"])
    metrics.update({
        "scipy.linprog.feasible_ratio": traced["linprog_feasible"] / lp_calls if lp_calls else 0.0,
        "import.spectral_cone_s": traced["import_s"],
        "import.scipy_optimize_loaded": int(traced["scipy_optimize_loaded"]),
        "trace.overhead_ratio": _busy(_calibrated(traced)) / _busy(_calibrated(plain)),
        "trace.wall_s": traced["wall_s"],
        "trace.self_sum_s": traced["self_sum_s"],
        "run.fail_ratio": tally["failed"] / tally["attempted"],
    })
    metrics.update(_shares(records))
    same = plain["digest"] == traced["digest"] and [rec[:4] + rec[5:6] for rec in records] == [
        rec[:4] + rec[5:6] for rec in plain["records"]]
    consistent = traced["self_sum_s"] <= traced["wall_s"]
    notes = {"env": traced["env"], "spans_file": os.path.relpath(spans, ROOT),
             "traced_equals_untraced": same, "self_sum_within_wall": consistent}
    return metrics, PER_LAYER, tally, notes, same and consistent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, units, tally, notes, ok = per_layer(workload, seed)
    else:
        metrics, units, tally, notes, ok = end_to_end(workload, seed, seconds)
    for name, value in metrics.items():
        print(f"{workload:14s} {name:52s} {value:14.6g} {units[name]}")
    for key, value in notes.items():
        print(f"{workload:14s} # {key}: {value}")
    for why, count in sorted(tally["failures"].items()):
        print(f"{workload:14s} ! {count} x {why}")
    return {
        "correct": bool(ok and tally["incorrect"] == 0),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spectral_cone", "__init__.py")):
        print(f"error: no spectral_cone sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
        else:
            parts = {w: run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in parts.values()),
                "attempted": sum(r["attempted"] for r in parts.values()),
                "failed": sum(r["failed"] for r in parts.values()),
                "metrics": {f"{w}.{k}": v for w, r in parts.items() for k, v in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
