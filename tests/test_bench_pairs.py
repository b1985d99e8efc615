"""Tests for tools/bench_pairs.py on synthetic benchmark output."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WORK_PER_S = {"work_per_s": {"better": "higher", "bound": 0.22}}
ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "blas": "openblas", "nproc": 2}


def fake_run(tmp_path, name, workload, work_per_s, op_ms_p50, correct=True):
    metrics = {"setup_s": 0.7, "work_per_s": work_per_s, "op_ms_p50": op_ms_p50,
               "op_ms_p99": 2.0 * op_ms_p50, "peak_rss_mb": 80.0}
    lines = [f"{workload:14s} {k:52s} {v:14.6g} x" for k, v in metrics.items()]
    lines.append(f"{workload:14s} # env: {ENV!r}")
    lines.append(json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                             "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_summary_medians_quartiles_and_wins(tmp_path):
    parent = [fake_run(tmp_path, f"p{i}", "matrix-checks", w, 10.0) for i, w in enumerate([100, 110, 120, 130, 140])]
    change = [fake_run(tmp_path, f"c{i}", "matrix-checks", w, ms)
              for i, (w, ms) in enumerate([(300, 11.0), (100, 5.0), (320, 5.0), (330, 5.0), (340, 5.0)])]
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", *map(str, parent), "--change", *map(str, change),
                             "--note", "synthetic", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["environment"] == ENV and bench["note"] == "synthetic"
    work = bench["workloads"]["matrix-checks"]["work_per_s"]
    assert work["parent"]["median"] == 120 and (work["parent"]["q1"], work["parent"]["q3"]) == (110, 130)
    assert work["change"]["median"] == 320
    assert work["wins"] == 4 and work["pairs"] == 5 and work["better"] == "higher"
    p50 = bench["workloads"]["matrix-checks"]["op_ms_p50"]
    assert p50["better"] == "lower" and p50["wins"] == 4  # the first pair got slower
    assert bench["workloads"]["matrix-checks"]["setup_s"]["wins"] == 0  # ties are not wins
    assert work["verdict"] == "unchanged"  # 4 of 5 pairs won is short of a gain


def test_rejects_unpaired_mixed_or_failed_runs(tmp_path):
    a = fake_run(tmp_path, "a", "matrix-checks", 100, 10.0)
    b = fake_run(tmp_path, "b", "queries", 100, 10.0)
    bad = fake_run(tmp_path, "bad", "matrix-checks", 100, 10.0, correct=False)
    with pytest.raises(ValueError, match="same"):
        bench_pairs.summarise([bench_pairs.read_run(a)], [], WORK_PER_S)
    with pytest.raises(ValueError, match="mixes"):
        bench_pairs.summarise([bench_pairs.read_run(a)], [bench_pairs.read_run(b)], WORK_PER_S)
    assert bench_pairs.main(["--parent", str(a), "--change", str(bad), "--out", str(tmp_path / "x.json")]) == 1


NARROW = [95, 97, 99, 100, 100, 101, 102, 103, 104, 105]
WIDE = [50, 60, 80, 100, 100, 120, 140, 150, 160, 170]
SPLIT = [10, 10, 10, 10, 10, 90, 90, 90, 90, 100]  # quartiles 10 and 90


@pytest.mark.parametrize("parent,change,want", [
    (NARROW, [w + 50 for w in NARROW], "gain"),
    (NARROW, [w + 50 for w in NARROW[:8]] + NARROW[8:], "unchanged"),  # 8 of 10 pairs won
    (NARROW, [w * 0.7 for w in NARROW], "regression"),
    (NARROW, [w * 0.8 for w in NARROW], "unchanged"),  # 20 % worse, inside the 22 % bound
    (NARROW, NARROW, "unchanged"),
    (WIDE, WIDE[::-1], "unresolved"),
    (SPLIT, [101] * 10, "unchanged"),  # spread wider than the bound, but every change run is better
], ids=["gain", "few-wins", "regression", "inside-bound", "same", "wide", "wide-separated"])
def test_verdict_per_metric(tmp_path, parent, change, want):
    runs = [[bench_pairs.read_run(fake_run(tmp_path, f"{side}{i}", "queries", w, 1.0)) for i, w in enumerate(values)]
            for side, values in (("p", parent), ("c", change))]
    assert bench_pairs.summarise(*runs, WORK_PER_S)["workloads"]["queries"]["work_per_s"]["verdict"] == want


def test_verdict_follows_lower_is_better(tmp_path):
    spec = {"op_ms_p50": {"better": "lower", "bound": 0.24}}
    parent = [bench_pairs.read_run(fake_run(tmp_path, f"p{i}", "queries", 100, ms)) for i, ms in enumerate(NARROW)]

    def verdict(scale):
        change = [bench_pairs.read_run(fake_run(tmp_path, f"c{i}", "queries", 100, ms * scale))
                  for i, ms in enumerate(NARROW)]
        return bench_pairs.summarise(parent, change, spec)["workloads"]["queries"]["op_ms_p50"]["verdict"]

    assert (verdict(0.5), verdict(1.3), verdict(1.2)) == ("gain", "regression", "unchanged")
