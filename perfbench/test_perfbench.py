"""Tests of the benchmark itself: generator, oracles, tracer and run contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _key(op):
    return (op.kind, op.args, op.label, op.work, op.klass, json.dumps(op.expect, sort_keys=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = [_key(op) for r in range(2) for op in workloads.make_round(workload, 7, r)]
    again = [_key(op) for r in range(2) for op in workloads.make_round(workload, 7, r)]
    other = [_key(op) for r in range(2) for op in workloads.make_round(workload, 8, r)]
    assert first == again
    assert first != other
    assert workloads.fixed_spaces(workload, 7) == workloads.fixed_spaces(workload, 7)


def test_query_schedule_shares():
    ops = [op for r in range(4) for op in workloads.make_round("queries", 3, r)]
    klasses = [op.klass for op in ops]
    assert klasses.count("cold") / len(ops) == 1 / workloads.COLD_EVERY
    invalid = [k for k in klasses if k in workloads.INVALID_CLASSES]
    assert len(invalid) / len(ops) == 1 / workloads.INVALID_EVERY
    assert {invalid.count(k) for k in workloads.INVALID_CLASSES} == {len(invalid) // 4}
    kinds = {op.expect["space"]["kind"] for op in ops if op.klass == "valid"}
    assert kinds == {"simplex", "ball", "spin", "density", "polytope"}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_times_on_a_synthetic_call_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; second root d [11, 12]
    names = ["root", "a", "b", "c", "d"]
    name_id = [0, 1, 2, 3, 4]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    calls, self_s, total = tracer.self_times(name_id, start, end, parent, len(names))
    assert calls.tolist() == [1, 1, 1, 1, 1]
    assert self_s.tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert total == 11.0  # the two root durations


def test_tracer_records_nested_spans_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = t.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = t.wrap("middle", middle)
    traced_root = t.wrap("root", lambda: traced_middle() + traced_leaf())
    assert traced_root() == 3
    spans = t.arrays()
    assert [t.names[i] for i in spans["name_id"]] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1, 0]
    calls, self_s, total = tracer.self_times(spans["name_id"], spans["start"], spans["end"],
                                             spans["parent"], len(t.names))
    by_name = dict(zip(t.names, zip(calls.tolist(), self_s.tolist())))
    # clock ticks: root 0..9, middle 1..6, leaves 2..3, 4..5, 7..8
    assert by_name["root"] == (1, 9 - 5 - 1)
    assert by_name["middle"] == (1, 5 - 2)
    assert by_name["leaf"] == (3, 3)
    assert total == 9


def test_a_span_closes_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    spans = t.arrays()
    assert spans["end"][0] >= spans["start"][0] and not t._stack


def test_install_patches_every_alias_and_uninstall_restores():
    import spectral_cone
    from spectral_cone import cone, divergence, geometries, jordan

    originals = (cone.mix, geometries.linprog, jordan.HermitianMatrix.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert cone.mix is divergence.mix is spectral_cone.mix
        assert cone.mix is not originals[0]
        assert geometries.linprog is not originals[1]
        assert jordan.HermitianMatrix.__init__ is not originals[2]
    finally:
        t.uninstall()
    assert (cone.mix, geometries.linprog, jordan.HermitianMatrix.__init__) == originals
    assert divergence.mix is spectral_cone.mix is cone.mix


def _sample_ops():
    ops = workloads.make_round("queries", 5, 0)[:24]
    ops += [op for op in workloads.make_round("vector-grid", 5, 0)
            if op.label in ("landscape-disc", "locality-squared_euclidean", "spectrality-square")]
    matrix = workloads.make_round("matrix-checks", 5, 0)[1]
    ops.append(workloads.Op(matrix.kind, matrix.args[:-4] + ("--trials", "3") + matrix.args[-2:],
                            matrix.label, 3, expect=dict(matrix.expect, trials=3)))
    return ops


def _untimed(result):
    return {k: v for k, v in result.items() if k != "dt"}


def test_traced_outputs_equal_untraced_outputs():
    ops = _sample_ops()
    plain = [_untimed(worker._run_op(op)) for op in ops]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [_untimed(worker._run_op(op)) for op in ops]
    finally:
        t.uninstall()
    assert traced == plain
    spans = t.arrays()
    calls, _, total = tracer.self_times(spans["name_id"], spans["start"], spans["end"],
                                        spans["parent"], len(t.names))
    roots = [t.names[i] for i, p in zip(spans["name_id"], spans["parent"]) if p < 0]
    assert roots.count("cli.main") == dict(zip(t.names, calls))["cli.main"] == sum(op.kind == "cli" for op in ops)
    assert roots.count("spectral.entropy") == sum(op.kind == "entropy" for op in ops)
    assert total <= float(spans["end"].max() - spans["start"].min())


# ---------------------------------------------------------------------------
# Oracles, including mutations they must catch
# ---------------------------------------------------------------------------

def _first(label_prefix, workload="queries", seed=5, rounds=4):
    for r in range(rounds):
        for op in workloads.make_round(workload, seed, r):
            if op.label.startswith(label_prefix):
                return op
    raise AssertionError(f"no {label_prefix} operation generated")


def _mutated(result, edit):
    payload = json.loads(result["out"])
    edit(payload)
    return dict(result, out=json.dumps(payload))


@pytest.mark.parametrize("prefix", ["decompose-quaternion3", "decompose-polygon", "decompose-cube",
                                    "decompose-spin4", "decompose-simplex5"])
def test_oracle_accepts_decompositions_and_flags_corruptions(prefix):
    op = _first(prefix)
    result = worker._run_op(op)
    assert oracle.judge(op, result) == ("ok", "")

    def bump_weight(p):
        p["weights"][0] += 1e-6

    def bump_spectrum(p):
        p["spectrum"][-1] *= 1.01

    def drop_component(p):
        p["weights"], p["components"], p["n"] = p["weights"][:-1], p["components"][:-1], p["n"] - 1

    def break_witness(p):
        p["witnesses"][0]["offset"] += 0.1

    for edit in (bump_weight, bump_spectrum, drop_component, break_witness):
        status, _ = oracle.judge(op, _mutated(result, edit))
        assert status == "incorrect", edit.__name__


def test_oracle_flags_a_wrong_spectrum_entropy():
    op = _first("entropy-complex3")
    result = worker._run_op(op)
    assert oracle.judge(op, result) == ("ok", "")
    assert oracle.judge(op, dict(result, value=result["value"] + 1e-6))[0] == "incorrect"
    assert oracle.judge(op, dict(result, value=math.nan))[0] == "incorrect"


def test_oracle_flags_accidental_passes_and_wrong_verdicts():
    op = _first("locality-kl", "vector-grid", rounds=1)
    op = workloads.Op(op.kind, op.args[:-4] + ("--trials", "5") + op.args[-2:], op.label, 5,
                      expect=dict(op.expect, trials=5))
    result = worker._run_op(op)
    assert oracle.judge(op, result) == ("ok", "")
    for edit in (lambda p: p.update(trials=0), lambda p: p.update(max_gap=-1.0),
                 lambda p: p.update(max_gap="nan"), lambda p: p.update(check="sufficiency")):
        assert oracle.judge(op, _mutated(result, edit))[0] == "incorrect"
    negative = _first("locality-squared_euclidean", "vector-grid", rounds=1)
    flipped = dict(worker._run_op(negative), code=0)
    flipped = _mutated(flipped, lambda p: p.update(**{"pass": True}))
    assert oracle.judge(negative, flipped)[0] == "incorrect"


def test_oracle_flags_a_corrupted_landscape():
    op = _first("landscape-disc", "vector-grid", rounds=1)
    result = worker._run_op(op)
    assert oracle.judge(op, result) == ("ok", "")
    lines = result["out"].splitlines()
    x, y, h = lines[100].split(",")
    lines[100] = f"{x},{y},{float(h) + 1e-6!r}"
    assert oracle.judge(op, dict(result, out="\n".join(lines) + "\n"))[0] == "incorrect"
    assert oracle.judge(op, dict(result, err="[]\n"))[0] == "incorrect"


def test_rejections_need_the_documented_code_and_one_line():
    op = _first("invalid-unknown_space")
    result = worker._run_op(op)
    assert oracle.judge(op, result) == ("ok", "")
    assert oracle.judge(op, dict(result, code=2))[0] == "failed"
    assert oracle.judge(op, dict(result, err=result["err"] * 2))[0] == "failed"
    assert oracle.judge(op, dict(result, exc="TypeError: boom"))[0] == "failed"


def test_invalid_classes_are_judged_and_the_rejected_ones_pass():
    seen = {}
    for r in range(2):
        for op in workloads.make_round("queries", 9, r):
            if op.klass in workloads.INVALID_CLASSES:
                seen.setdefault(op.klass, set()).add(oracle.judge(op, worker._run_op(op))[0])
    assert set(seen) == set(workloads.INVALID_CLASSES)
    assert seen["malformed_json"] == seen["outside_space"] == seen["unknown_space"] == {"ok"}
    # check sufficiency --space disc may crash out of cli.main (counted as
    # failed) or be rejected with exit 1; either way it must be judged, never
    # counted as incorrect
    assert seen["sufficiency_disc"] <= {"ok", "failed"}


def test_brute_force_faces_of_the_square_and_cube():
    square = workloads.SQUARE_VERTICES
    assert oracle.smallest_face(square, 0, 1) == [0, 1]
    assert oracle.smallest_face(square, 0, 3) == [0, 1, 2, 3]
    cube = workloads.CUBE_VERTICES
    assert len(oracle.facets(cube)) == 6
    assert oracle.smallest_face(cube, 0, 3) == [0, 1, 2, 3]


def test_generated_density_coords_are_states():
    rng = np.random.default_rng(0)
    for ring in ("real", "complex", "quaternion"):
        desc = {"kind": "density", "ring": ring, "n": 3}
        w = oracle.density_eigenvalues(desc, workloads.random_density_coords(ring, 3, rng))
        assert abs(w.sum() - 1.0) < 1e-12 and w.min() > 0


# ---------------------------------------------------------------------------
# Run contract
# ---------------------------------------------------------------------------

def test_latency_metrics_see_a_slow_tail_within_one_operation_type():
    records = [[0, "decompose-simplex5", "valid", 1, 0.01, "ok", float(i)] for i in range(100)]
    base = run._latency_metrics(records)
    slow = [rec[:4] + [0.05 if i >= 98 else rec[4]] + rec[5:] for i, rec in enumerate(records)]
    moved = run._latency_metrics(slow)
    assert base["op_ms_p99"] == pytest.approx(10.0)
    assert moved["op_ms_p99"] == pytest.approx(50.0)
    assert moved["op_ms_p50"] == pytest.approx(10.0)
    assert moved["work_per_s"] == pytest.approx(100 / (98 * 0.01 + 2 * 0.05))


def test_calibration_divides_by_the_slowdown_around_each_operation():
    nominal = run.REFERENCE_NOMINAL_S
    info = {"reference": [[0.0, nominal], [0.1, nominal], [10.0, 2 * nominal], [10.2, 2 * nominal]],
            "records": [[0, "a", "valid", 1, 0.2, "ok", 0.2],  # reference at 0.0 and 0.1
                        [0, "b", "valid", 1, 0.2, "ok", 9.5],  # at 10.0 and 10.2, after its end
                        [0, "c", "valid", 1, 0.2, "ok", 5.0]]}  # none near: the two nearest
    assert [rec[4] for rec in run._calibrated(info)] == pytest.approx([0.2, 0.1, 0.2 / 1.5])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
