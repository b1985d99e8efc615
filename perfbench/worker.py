"""One workload process: set up, then run operations in a closed loop.

Started by run.py in a fresh interpreter with a pinned environment.  Modes:

  setup    import spectral_cone and build the workload's fixed spaces, then
           report the moment set-up ended (perf_counter is CLOCK_MONOTONIC,
           so the parent can subtract its own spawn time);
  measure  set up, then run whole rounds until --seconds have passed;
  fixed    set up, then run the workload's fixed traced-run rounds, with
           the tracer installed when --trace 1.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SAMPLES = 15  # reference runs right after set-up
REFERENCE_EVERY_S = 0.25  # and one between operations at this interval
SRC = os.path.join(os.path.dirname(HERE), "src")


def _set_up(workload: str, seed: int):
    t0 = time.perf_counter()
    import spectral_cone  # timed: the program's own import cost
    import_s = time.perf_counter() - t0
    if not os.path.abspath(spectral_cone.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"spectral_cone imported from {spectral_cone.__file__}, not {SRC}")

    sys.path.insert(0, HERE)
    import workloads
    from spectral_cone import cli, geometries
    from spectral_cone.cone import State

    warm = workloads.warm_polygons(seed) if workload == "queries" else None
    for text, warm_caches in workloads.fixed_spaces(workload, seed):
        space = cli.parse_space(text)
        if warm_caches:
            geometries.decompose(space, State(space, space.barycenter_coords()))
    return {"import_s": import_s}, warm


@dataclass(frozen=True)
class _Point:
    x: float
    pair: tuple


def reference_work() -> float:
    """Seconds taken by a fixed piece of benchmark-owned work (no program code).

    It mixes what the program's time is made of: interpreted arithmetic,
    frozen-dataclass construction, dict lookups, sorting, and numpy calls on
    small and on cache-sized arrays, so that other processes on the machine
    slow it down by about as much as they slow the program.  BASELINE.json
    records the run-to-run spreads with and without this correction.
    """
    import numpy as np

    big = np.arange(150_000, dtype=float)
    t = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(10_000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    for i in range(450):
        p = _Point(i * 0.5, (i, i + 1))
        table[i % 97] = p
        acc += p.x * len(p.pair) + table.get((i * 7) % 97, p).x * 1e-3
        acc += float(np.max(np.abs(np.asarray([p.x, -acc, 2.0]))))
    z = complex(0.5, 0.25)
    for _ in range(2000):
        z = z * complex(0.6, 0.8) + abs(z) * 1e-3
    a = np.full((4, 4), 0.25 + 0.1j)
    for _ in range(150):
        b = a @ np.conj(a.T)
        a = b / float(np.max(np.abs(b)))
    items = sorted((i * 7919 % 10007, i) for i in range(6000))
    lookup = dict(items)
    acc += sum(lookup.get(i, 0) for i in range(0, 6000, 3))
    big = big * 1.0001
    big[::7] += float(np.sum(big))
    return time.perf_counter() - t


def _reference_sample() -> list:
    """[start time, duration] of one reference run, with the collector paused
    so that the program's heap size does not leak into the measure."""
    gc.disable()
    try:
        return [time.perf_counter(), reference_work()]
    finally:
        gc.enable()


def _reference_samples(n: int) -> list:
    return [_reference_sample() for _ in range(n)]


def _run_op(op) -> dict:
    from spectral_cone import cli, spectral

    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(op.args))
            exc = None
        except Exception as e:  # an exception escaping cli.main is a failed operation
            code, exc = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        return {"dt": dt, "code": code, "out": out.getvalue(), "err": err.getvalue(), "exc": exc}
    t = time.perf_counter()
    try:
        space = cli.parse_space(op.args[0])
        value = spectral.entropy(space, cli.parse_element(op.args[1], space))
        exc = None
    except Exception as e:  # a failed entropy call is recorded, not fatal
        value, exc = None, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t
    return {"dt": dt, "value": value, "exc": exc}


def _digest_update(h, result: dict) -> None:
    """Hash everything the program returned, but not the timing."""
    fields = {k: (repr(v) if k == "value" else v) for k, v in result.items() if k != "dt"}
    h.update(json.dumps(fields, sort_keys=True).encode())


def _run_rounds(workload, seed, warm, rounds, tracer=None, deadline=None):
    import oracle
    import workloads

    records, failures, digest = [], {}, hashlib.sha256()
    reference = _reference_samples(REFERENCE_SAMPLES)
    last_reference = time.perf_counter()
    index = 0
    r = 0
    while True:
        if deadline is not None and r > 0 and time.perf_counter() >= deadline:
            break
        if rounds is not None and r >= rounds:
            break
        for op in workloads.make_round(workload, seed, r, warm):
            if tracer is not None:
                tracer.request_id = index
            started = time.perf_counter()
            result = _run_op(op)
            status, why = oracle.judge(op, result)
            if status != "ok":
                key = f"{op.label}: {status}: {why}"
                failures[key] = failures.get(key, 0) + 1
            _digest_update(digest, result)
            records.append([r, op.label, op.klass, op.work, result["dt"], status, started])
            index += 1
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                reference.append(_reference_sample())
                last_reference = time.perf_counter()
        r += 1
    return records, failures, digest.hexdigest(), reference


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "fixed"], required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    info, warm = _set_up(args.workload, args.seed)
    info["ready"] = time.perf_counter()
    if args.mode == "setup":
        info["reference"] = _reference_samples(REFERENCE_SAMPLES)
        print(json.dumps(info))
        return 0

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if args.mode == "measure":
        records, failures, digest, reference = _run_rounds(
            args.workload, args.seed, warm, None, deadline=start + args.seconds)
    else:
        records, failures, digest, reference = _run_rounds(
            args.workload, args.seed, warm, workloads.TRACE_ROUNDS[args.workload], tracer)
    info["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        from tracer import self_times

        tracer.uninstall()
        calls, self_s, self_sum = self_times(tracer.name_id, tracer.start, tracer.end,
                                             tracer.parent, len(tracer.names))
        info["layers"] = {name: [int(c), float(s)] for name, c, s in zip(tracer.names, calls, self_s)}
        info["self_sum_s"] = self_sum
        info["linprog_feasible"] = tracer.linprog_feasible
        if args.spans_out:
            tracer.save(args.spans_out)
    info["scipy_optimize_loaded"] = "scipy.optimize" in sys.modules
    info.update(records=records, failures=failures, digest=digest, reference=reference,
                env=_environment(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
