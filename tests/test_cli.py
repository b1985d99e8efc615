"""Tests for the command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_cone as sc
from spectral_cone import cli, divergence as dv, geometries as geo, jordan, spectral
from spectral_cone.errors import SpectralConeError
from spectral_cone.tolerances import RECONSTRUCTION_TOL


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_square_point(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "square", "--element", "[0.5, 0.25]")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["spectrum"], [0.5, 0.25, 0.25], atol=1e-12)
    assert payload["caratheodory_ok"]
    assert payload["n"] == 3 and payload["dim"] == 2
    assert len(payload["witnesses"]) == 3


def test_decompose_simplex_vertex(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--space", "simplex3", "--element", "[1, 0, 0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == [1.0]


def test_decompose_qubit(capsys):
    space = '{"kind": "density", "ring": "complex", "n": 2}'
    element = "[0.75, 0, 0, 0, 0, 0, 0.25, 0]"  # diag(3/4, 1/4) as (re, im) pairs
    code, out, _ = run_cli(capsys, "decompose", "--space", space, "--element", element)
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["spectrum"], [0.75, 0.25], atol=1e-9)


def test_decompose_parse_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "decompose", "--space", "nonsense", "--element", "[1]")
    assert code == 1 and "error" in err


def test_decompose_invariant_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "decompose", "--space", "simplex3", "--element", "[0.5, 0.5, 0.5]")
    assert code == 2


def test_check_locality_pass(capsys):
    code, out, _ = run_cli(
        capsys, "check", "locality", "--space", "simplex3", "--divergence", "kl", "--trials", "50"
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "locality" and report["pass"]
    assert report["max_gap"] <= 1e-8
    assert report["seed"] == 42


def test_check_locality_fail_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "check", "locality", "--space", "simplex3",
        "--divergence", "squared_euclidean", "--trials", "50",
    )
    assert code == 2
    report = json.loads(out)
    assert not report["pass"] and report["witness"] is not None


def test_check_spectrality_square(capsys):
    code, out, _ = run_cli(capsys, "check", "spectrality", "--space", "square", "--trials", "5")
    assert code == 2
    report = json.loads(out)
    assert report["witness"]["coords"] == [0.5, 0.5]
    lengths = sorted(len(s) for s in report["witness"]["spectra"])
    assert lengths == [2, 4]


def test_check_concavity(capsys):
    code, out, _ = run_cli(capsys, "check", "concavity", "--algebra", "complex2", "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["max_second_derivative"] < 0


def test_check_sufficiency(capsys):
    code, out, _ = run_cli(
        capsys, "check", "sufficiency", "--space", "simplex3", "--divergence", "kl", "--trials", "40"
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_check_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "concavity", "--trials", "5")
    assert code == 1 and "algebra" in err


UNWRITABLE = "/dev/null/out.json"  # a path below a file: opening it for writing raises OSError


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("space", [f"{ring}{n}" for ring in ("real", "complex", "quaternion") for n in (2, 3)])
def test_matrix_sufficiency_exits_0_on_every_ring(capsys, space):
    code, out, err = run_cli(capsys, "check", "sufficiency", "--space", space,
                             "--divergence", "matrix_negentropy", "--trials", "6", "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_check_sufficiency_without_channel_suite_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "check", "sufficiency", "--space", "disc", "--divergence", "squared_euclidean",
        "--trials", "5"
    )
    assert_one_line_error(code, out, err)
    assert "channel suite" in err


@pytest.mark.parametrize("divergence", ["kl", "itakura_saito"])
@pytest.mark.parametrize("space", ["disc", "square"])
def test_vector_divergence_off_simplex_exit_1(capsys, space, divergence):
    code, out, err = run_cli(
        capsys, "check", "locality", "--space", space, "--divergence", divergence, "--trials", "5"
    )
    assert_one_line_error(code, out, err)
    assert "squared_euclidean" in err


OFF_DOMAIN_ERRORS = {
    **{(space, div): f"{div} is a probability-vector divergence; use {use} on {kind} spaces"
       for space, kind, use in (("disc", "ball", "squared_euclidean"), ("square", "polytope", "squared_euclidean"),
                                ("complex2", "density", "matrix_negentropy"))
       for div in ("kl", "itakura_saito")},
    **{(space, "matrix_negentropy"): "matrix_negentropy needs a density-matrix space"
       for space in ("simplex3", "disc")},
}


@pytest.mark.parametrize("space,divergence", sorted(OFF_DOMAIN_ERRORS))
@pytest.mark.parametrize("kind", ["locality", "sufficiency"])
def test_divergence_off_its_spaces_exact_error(capsys, kind, space, divergence):
    code, out, err = run_cli(capsys, "check", kind, "--space", space, "--divergence", divergence, "--trials", "3")
    assert (code, out, err) == (1, "", f"error: {OFF_DOMAIN_ERRORS[space, divergence]}\n")


FLAT_POLYTOPE_ERRORS = {
    # collinear in the plane: the monotone chain keeps two points
    "[[0, 0], [1, 1], [2, 2]]": "vertex list is not full-dimensional",
    # coplanar in space: every hyperplane of a vertex triple holds all four points
    "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]": "vertex list is not full-dimensional",
    "[[0, 0], [1, 0], [NaN, 1]]": "polytope vertices must be finite",
    "[[NaN], [1]]": "polytope vertices must be finite",  # a segment used to accept it
}


@pytest.mark.parametrize("vertices", sorted(FLAT_POLYTOPE_ERRORS))
def test_decompose_flat_polytope_exact_error(capsys, vertices):
    space = f'{{"kind": "polytope", "vertices": {vertices}}}'
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element", "[1, 1]")
    assert (code, out, err) == (1, "", f"error: {FLAT_POLYTOPE_ERRORS[vertices]}\n")


def test_decompose_past_the_vertex_cap_exit_1(capsys):
    # MAX_ENUMERATION_VERTICES = 12: a regular 13-gon is turned away with one line naming the limit
    vertices = [[math.cos(2 * math.pi * i / 13), math.sin(2 * math.pi * i / 13)] for i in range(13)]
    space = json.dumps({"kind": "polytope", "vertices": vertices})
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element", "[0.1, 0.2]")
    assert (code, out, err) == (1, "", "error: decomposition search supports at most 12 vertices, got 13\n")


@pytest.mark.parametrize("trace",["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("space,coords", [("simplex3", "[5, -3, 7]"),
                                          ("complex2", "[0.5, 0, 0, 0, 0, 0, 0.5, 0]")])
def test_decompose_non_finite_trace_exit_2(capsys, space, coords, trace):
    element = f'{{"trace": {trace}, "coords": {coords}}}'
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element", element)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("space,coords", [("disc", "[1e308, 1e308]"), ("spin3", "[1e308, 1e308, 1e308]"),
                                          ("complex2", "[1e308, 0, 0, 0, 0, 0, 1e308, 0]"),
                                          ("simplex3", "[Infinity, -Infinity, 0]"), ("square", "[Infinity, 0.5]"),
                                          ("real2", "[Infinity, 0, 0, 0.5]"),
                                          ("complex2", "[Infinity, 0, 0, 0, 0, 0, -Infinity, 0]")])
def test_decompose_overflowing_coords_fail_membership_quietly(capsys, space, coords):
    # sums and norms of these coordinates overflow or are NaN; the membership test fails without a numpy warning
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element", coords)
    assert (code, out, err) == (2, "", "error: state coordinates fail the membership test\n")


def test_decompose_trace_near_the_float_limit_is_quiet(capsys):
    code, out, err = run_cli(capsys, "decompose", "--space", "square", "--element",
                             '{"trace": 1e308, "coords": [0.5, 0.5]}')
    assert code == 0 and err == ""
    assert json.loads(out)["trace"] == 1e308


def test_polytope_vertex_at_the_float_limit_is_quiet(capsys):
    # the clique solves overflow there, and nothing is warned; a one-vertex system's weight is the trace itself
    code, out, err = run_cli(capsys, "decompose", "--space", "square", "--element",
                             '{"trace": 1e308, "coords": [1, 1]}')
    assert (code, err) == (0, "")
    assert json.loads(out)["weights"] == [1e308]
    square = geo.unit_square()
    assert sc.entropy(square, sc.ConeElement(square, 1e308, [1.0, 1.0])) == -math.inf


@pytest.mark.parametrize("trace", [1e308, 1.7e308])
def test_polygon_decomposes_near_the_float_limit(capsys, trace):
    # the clique systems are solved at a power-of-two scale below 1, so pinv @ rhs does not overflow
    space = '{"kind": "polytope", "vertices": [[0, 1.25], [-1, 1], [0, 0.75], [1, 1]]}'
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element",
                             f'{{"trace": {trace!r}, "coords": [0.1, 1.05]}}')
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["reconstruction_error"] <= RECONSTRUCTION_TOL * trace
    assert payload["weights"] and sum(payload["weights"]) == pytest.approx(trace, rel=1e-12)


@pytest.mark.parametrize("divergence", ["kl", "itakura_saito"])
@pytest.mark.parametrize("kind", ["locality", "sufficiency"])
def test_vector_divergence_on_matrix_space_exit_1(capsys, kind, divergence):
    code, out, err = run_cli(
        capsys, "check", kind, "--space", "complex2", "--divergence", divergence, "--trials", "5"
    )
    assert_one_line_error(code, out, err)
    assert "matrix_negentropy" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "locality", "--space", "simplex3", "--trials", "abc"],
        [],
        ["check", "nonsense", "--space", "simplex3"],
        ["check", "locality", "--space", "simplex3", "--divergence", "nonsense"],
        ["check", "locality"],
        ["check", "sufficiency", "--divergence", "squared_euclidean"],
        ["check", "spectrality"],
        ["decompose", "--space", "simplex3", "--element", "5"],
        ["decompose", "--space", "simplex3", "--element", '{"trace": null, "coords": [1, 0, 0]}'],
        ["decompose", "--space", "simplex3", "--element", '[{"a": 1}, 0, 0]'],
        ["decompose", "--space", "square", "--element", "[true, false]"],
        ["decompose", "--space", "simplex3", "--element", '{"trace": true, "coords": [1, 0, 0]}'],
        ["check", "spectrality", "--space", '{"kind": "polytope", "vertices": [[0, 0], [true, 0], [0, 1]]}'],
        ["check", "spectrality", "--space", '{"kind": "polytope", "vertices": 5}'],
        ["check", "spectrality", "--space", '{"kind": "polytope", "vertices": [[0, null], [1, 0]]}'],
        ["check", "spectrality", "--space", '{"kind": "polytope", "vertices": [[]]}'],
        ["check", "spectrality", "--space", '{"kind": "simplex", "n": null}'],
        ["check", "spectrality", "--space", '{"kind": "ball", "d": Infinity}'],
        *(["check", "locality", "--space", space, "--divergence", div, "--trials", "3", "--seed", "1"]
          for space, div in (("complex1", "matrix_negentropy"), ("real1", "matrix_negentropy"),
                             ("quaternion1", "matrix_negentropy"), ("simplex1", "kl"))),
        *(["check", "sufficiency", "--space", space, "--divergence", div, "--trials", "3", "--seed", "1"]
          for space, div in (("complex1", "matrix_negentropy"), ("real1", "matrix_negentropy"),
                             ("quaternion1", "matrix_negentropy"), ("simplex1", "kl"))),
        *(["check", "spectrality", "--space", desc]
          for desc in ('{"n": 3}', '{"kind": "simplex"}', '{"kind": "polytope"}', '{"kind": "ball"}',
                       '{"kind": "spin"}', '{"kind": "density", "n": 2}', '{"kind": "density", "ring": "real"}')),
        *(["check", "sufficiency", "--space", space, "--divergence", "squared_euclidean", "--trials", "3"]
          for space in ("square", "disc", "spin3")),
        *(["check", kind, "--space", "simplex3", "--divergence", div, "--trials", "5", "--tol", tol]
          for kind, div, tol in (("locality", "squared_euclidean", "inf"), ("locality", "kl", "nan"),
                                 ("locality", "kl", "-1"), ("sufficiency", "squared_euclidean", "inf"),
                                 ("sufficiency", "kl", "-inf"))),
        ["check", "concavity", "--algebra", "complex2", "--trials", "5", "--tol", "-3"],
        ["check", "spectrality", "--space", "square", "--trials", "5", "--tol", "1e-6"],
        ["decompose", "--space", "square", "--element", "[0.5, 0.25]", "--out", UNWRITABLE],
        ["check", "concavity", "--algebra", "complex2", "--trials", "5", "--out", UNWRITABLE],
        ["landscape", "--space", "square", "--grid", "5", "--out", UNWRITABLE],
        ["decompose", "--space", '{"kind": "polytope", "vertices": [[0,0],[1,0],[0,1],[1,1]], "extra": 1}',
         "--element", "[0.5, 0.25]"],
        ["decompose", "--space", '{"kind": "simplex", "n": 3, "bogus": true}', "--element", "[0.5, 0.25, 0.25]"],
        ["decompose", "--space", '{"kind": "polytope", "vertices": [[0,0],[1,0],[0,1e308],[1e308,1e308]]}',
         "--element", "[0.5, 0.25]"],
        ["decompose", "--space", "simplex3", "--element", '{"trace": 2, "coords": [0.2, 0.3, 0.5], "Trace": 5}'],
    ],
    ids=["bad-int", "no-command", "unknown-check", "unknown-divergence", "locality-no-space",
         "sufficiency-no-space", "spectrality-no-space", "element-number", "element-null-trace",
         "element-object-coord", "element-boolean-coords", "element-boolean-trace",
         "polytope-boolean-coord", "polytope-vertices-number", "polytope-null-coord", "polytope-no-coords",
         "simplex-null-n", "ball-infinite-d", "locality-complex1", "locality-real1",
         "locality-quaternion1", "locality-simplex1", "sufficiency-complex1", "sufficiency-real1",
         "sufficiency-quaternion1", "sufficiency-simplex1", "no-kind", "simplex-no-n", "polytope-no-vertices",
         "ball-no-d", "spin-no-d", "density-no-ring", "density-no-n",
         "sufficiency-square", "sufficiency-disc", "sufficiency-spin3", "locality-tol-inf", "locality-tol-nan",
         "locality-tol-negative", "sufficiency-tol-inf", "sufficiency-tol-minus-inf", "concavity-tol",
         "spectrality-tol", "decompose-out-unwritable", "check-out-unwritable", "landscape-out-unwritable",
         "polytope-unknown-field", "simplex-unknown-field", "polytope-overflow", "element-unknown-field"],
)
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    kinds = {"square": "polytope", "disc": "ball", "spin3": "spin"}
    if "--space" in argv and argv[1] == "sufficiency" and argv[argv.index("--space") + 1] in kinds:
        kind = kinds[argv[argv.index("--space") + 1]]  # the space kind, not the descriptor's repr
        assert err == f"error: no builtin channel suite for {kind} spaces\n"
    if "--tol" in argv:
        assert "tol" in err
    if "[[]]" in " ".join(argv):
        assert err == "error: polytope vertices need at least one coordinate\n"
    for field in ("extra", "bogus"):
        if f'"{field}"' in " ".join(argv):
            assert field in err
    if "1e308" in " ".join(argv):  # four extreme points whose cross products overflow
        assert err == "error: polygon coordinates are too far apart for the hull arithmetic\n"
    if '"Trace"' in " ".join(argv):
        assert err == "error: element has the unknown field 'Trace'\n"
    if argv[:2] == ["check", "sufficiency"] and "--space" in argv and argv[argv.index("--space") + 1].endswith("1"):
        kind = "simplex" if "simplex1" in argv else "density"  # one state: the check could not fail
        assert err == f"error: sufficiency needs a space of rank at least 2, got a {kind} space of rank 1\n"


SIMPLEX3, COMPLEX2 = geo.Simplex(3), geo.DensityMatrices("complex", 2)
REPORTS = {  # (a check's report, its verdict) for each check, passing and failing
    "locality-pass": (lambda: dv.check_locality(dv.kl_divergence(), SIMPLEX3, trials=20, seed=1), True),
    "locality-fail": (lambda: dv.check_locality(dv.squared_euclidean_divergence(), SIMPLEX3, trials=20, seed=1),
                      False),
    "sufficiency-pass": (lambda: dv.check_sufficiency(dv.matrix_negentropy_divergence(COMPLEX2), COMPLEX2,
                                                      trials=20, seed=1), True),
    "sufficiency-fail": (lambda: dv.check_sufficiency(dv.squared_euclidean_divergence(), SIMPLEX3, trials=20,
                                                      seed=1), False),
    "spectrality-pass": (lambda: spectral.is_spectral(geo.Simplex(3), seed=1).to_json(), True),
    "spectrality-fail": (lambda: spectral.is_spectral(geo.unit_square(), samples=5, seed=1).to_json(), False),
    "concavity-pass": (lambda: jordan.check_concavity("complex2", trials=5, seed=1), True),
    "concavity-fail": (lambda: jordan.check_concavity("spin3", trials=5, seed=1, strictness=1e6), False),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_every_report_has_the_shared_fields(name):
    build, verdict = REPORTS[name]
    report = build()
    shared = {"check": str, "pass": bool, "max_gap": float, "trials": int, "seed": int}
    assert {key: type(report[key]) for key in shared} == shared
    assert report["check"] == name.split("-")[0] and report["pass"] is verdict
    assert (report["witness"] is None) == report["pass"]
    assert report["witness"] is None or isinstance(report["witness"], dict)


def test_help_exit_0(capsys):
    code, out, err = run_cli(capsys, "check", "--help")
    assert code == 0
    assert out.startswith("usage: spectral-cone check") and err == ""


CHECK_ARGS = {
    "locality": ("--space", "simplex3", "--divergence", "kl"),
    "sufficiency": ("--space", "simplex3", "--divergence", "kl"),
    "spectrality": ("--space", "square"),
    "concavity": ("--algebra", "complex2"),
}


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("kind", sorted(CHECK_ARGS))
def test_check_rejects_trial_count_below_one(capsys, kind, trials):
    code, out, err = run_cli(capsys, "check", kind, *CHECK_ARGS[kind], "--trials", trials)
    assert_one_line_error(code, out, err)
    assert "trials" in err or "samples" in err


@pytest.mark.parametrize("algebra", ["quaternion0", "spin0"])
def test_check_concavity_rejects_empty_algebra(capsys, algebra):
    code, out, err = run_cli(capsys, "check", "concavity", "--algebra", algebra, "--trials", "5")
    assert_one_line_error(code, out, err)
    assert "algebra size" in err


@pytest.mark.parametrize("algebra", ["complex", "complex3.0", "complex3x", "octonion3", "spin"])
def test_check_concavity_malformed_algebra_names_the_form(capsys, algebra):
    code, out, err = run_cli(capsys, "check", "concavity", "--algebra", algebra, "--trials", "5")
    assert_one_line_error(code, out, err)
    assert "e.g. complex3" in err and "invalid literal" not in err


def test_main_reuses_one_parser_with_fresh_results(capsys):
    series = [
        ("check", "locality", "--space", "simplex3", "--trials", "abc"),
        ("check", "concavity", "--algebra", "complex2", "--trials", "5", "--seed", "3"),
        ("decompose", "--space", "simplex3", "--element", "[0.2, 0.3, 0.5]"),
        ("--help",),
        ("check", "locality", "--space", "simplex3", "--divergence", "kl", "--trials", "5"),
    ]
    reused = [run_cli(capsys, *argv) for argv in series]
    assert cli._parser.cache_info().currsize == 1
    fresh = []
    for argv in series:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0]
    assert reused[3][1].startswith("usage: spectral-cone")


def test_non_integer_seed_env_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_CONE_SEED", "abc")
    code, out, err = run_cli(
        capsys, "check", "locality", "--space", "simplex3", "--divergence", "kl", "--trials", "5"
    )
    assert_one_line_error(code, out, err)
    assert "SPECTRAL_CONE_SEED" in err


def test_landscape_too_large_to_allocate_exit_1(capsys, monkeypatch):
    """A grid whose arrays cannot be allocated prints one error line; the raise is stubbed, so nothing is."""
    def refuse(space, grid_resolution):
        raise MemoryError(f"Unable to allocate an array for a {grid_resolution} x {grid_resolution} grid")

    monkeypatch.setattr(spectral, "entropy_landscape", refuse)
    code, out, err = run_cli(capsys, "landscape", "--space", "square", "--grid", "3000000")
    assert_one_line_error(code, out, err)
    assert err == "error: Unable to allocate an array for a 3000000 x 3000000 grid\n"


def test_landscape_square(tmp_path, capsys):
    out_path = tmp_path / "sq.csv"
    code, _, _ = run_cli(
        capsys, "landscape", "--space", "square", "--grid", "41", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,y,entropy"
    assert len(lines) == 1 + 41 * 41  # all grid points lie in the square
    maxima = json.loads((tmp_path / "sq.csv.maxima.json").read_text())
    assert len(maxima) == 4


def test_landscape_triangle_stdout(capsys):
    code, out, err = run_cli(capsys, "landscape", "--space", "simplex3", "--grid", "100")
    assert code == 0
    maxima = json.loads(err)
    assert len(maxima) == 1
    assert abs(maxima[0]["entropy"] - math.log(3)) <= 1e-9


TETRAHEDRON = '{"kind": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}'


@pytest.mark.parametrize("space, kind, dim", [("simplex4", "simplex", 3), ("complex2", "density", 3),
                                              ("spin3", "spin", 3), ("ball1", "ball", 1), (TETRAHEDRON, "polytope", 3)],
                         ids=["simplex4", "complex2", "spin3", "ball1", "tetrahedron"])
def test_landscape_rejects_non_2d(capsys, space, kind, dim):
    code, out, err = run_cli(capsys, "landscape", "--space", space, "--grid", "5")
    assert_one_line_error(code, out, err)
    assert err == f"error: landscape needs a two-dimensional space, got a {kind} space of dimension {dim}\n"


def test_landscape_failed_decomposition_exit_2(capsys, monkeypatch):
    """A grid point no clique system solves is a failed invariant: main reports it on one line, exit 2.  The
    raise is stubbed, as no polygon is known whose grid points go unsolved."""
    def unsolved(self, coords, total):
        raise sc.DecompositionError("no orthogonal decomposition found")

    monkeypatch.setattr(geo.Polytope, "entropies", unsolved)
    code, out, err = run_cli(capsys, "landscape", "--space", "square", "--grid", "7")
    assert (code, out, err) == (2, "", "error: no orthogonal decomposition found\n")


OFFSET_TRIANGLE = '{"kind": "polytope", "vertices": [[100000,100000],[100001,100000],[100000,100001]]}'
CUBE_37, CUBE_1000 = (json.dumps({"kind": "polytope", "vertices": [[k * a, k * b, k * c] for a in (0, 1)
                                                                  for b in (0, 1) for c in (0, 1)]}) for k in (37, 1000))


@pytest.mark.parametrize("space, element, components", [
    (OFFSET_TRIANGLE, "[100000.2, 100000.3]", [[100000.0, 100000.0], [100000.0, 100001.0], [100001.0, 100000.0]]),
    (CUBE_37, "[36.99999997248048, 2.7519518117415968e-08, 2.7519518117415968e-08]", [[37.0, 0.0, 0.0]]),
    ('{"kind": "polytope", "vertices": [[0,0],[1000,0],[0,1000]]}', "[500, 5e-9]", [[1000.0, 0.0], [0.0, 0.0]]),
    (CUBE_1000, "[1.5099480959496002e-06, 4.497012721011762e-06, 999.9999984900519]",
     [[0.0, 0.0, 1000.0], [0.0, 1000.0, 1000.0]]),
], ids=["offset-triangle", "cube-x37-near-a-vertex", "triangle-x1000-near-an-edge", "cube-x1000-totals-apart"])
def test_polytope_far_from_unit_scale_decomposes(capsys, space, element, components):
    """Each polytope is solved in its own frame: the interior point of the triangle shifted by 1e5, the point
    2.75e-8 from a vertex of the cube x 37 and the point 5e-9 from an edge of the triangle x 1000 decompose,
    and reconstruct within the bound scaled to the frame.  On the cube x 1000, two clique solves of the point
    meet the residual bound with weights that total 1.2e-9 apart; their spectra are compared over their
    totals, so the point decomposes and is not refused for spectra of different totals."""
    code, out, err = run_cli(capsys, "decompose", "--space", space, "--element", element)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["components"] == components
    x = sc.ConeElement(geo.space_from_json(json.loads(space)), 1.0, json.loads(element))
    assert payload["reconstruction_error"] <= RECONSTRUCTION_TOL * x.space.coordinate_scale


def test_offset_triangle_locality_reaches_the_unit_triangle_verdict(capsys):
    """The offset triangle's vertices pass the membership test, so the squared Euclidean locality check runs
    to the unit triangle's verdict."""
    argv = ["check", "locality", "--divergence", "squared_euclidean", "--trials", "5"]
    code, out, err = run_cli(capsys, *argv, "--space", OFFSET_TRIANGLE)
    unit_code, unit_out, _ = run_cli(capsys, *argv, "--space", '{"kind": "polytope", "vertices": [[0,0],[1,0],[0,1]]}')
    assert (code, err, unit_code) == (2, "", 2)
    assert json.loads(out)["max_gap"] == pytest.approx(json.loads(unit_out)["max_gap"], abs=1e-9)
    assert json.loads(out)["max_gap"] == pytest.approx(0.81, abs=1e-9)


def test_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "check", "locality", "--space", "simplex3", "--divergence", "kl",
            "--trials", "25", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_CONE_SEED", "7")
    code, out, _ = run_cli(
        capsys, "check", "locality", "--space", "simplex3", "--divergence", "kl", "--trials", "5"
    )
    assert json.loads(out)["seed"] == 7
    # the --seed flag wins over the environment
    code, out, _ = run_cli(
        capsys, "check", "locality", "--space", "simplex3", "--divergence", "kl",
        "--trials", "5", "--seed", "11",
    )
    assert json.loads(out)["seed"] == 11


def test_element_with_trace(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--space", "simplex3",
        "--element", '{"trace": 2.0, "coords": [0.5, 0.25, 0.25]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == 2.0
    np.testing.assert_allclose(payload["spectrum"], [1.0, 0.5, 0.5], atol=1e-12)


def test_space_file_argument(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text('{"kind": "ball", "d": 2}')
    code, out, _ = run_cli(capsys, "decompose", "--space", f"@{path}", "--element", "[0.3, 0.4]")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(sorted(payload["weights"]), [0.25, 0.75], atol=1e-12)


def reference_report_json(report: dict) -> str:
    """The report writer before the strict first pass: _json_safe on every report."""
    return json.dumps(cli._json_safe(report), sort_keys=True, allow_nan=False) + "\n"


def test_report_json_non_finite_bytes_match_reference():
    nan, inf = math.nan, math.inf
    report = {"pass": False, "max_gap": nan, "values": [1.0, inf, (-inf, {"z": nan, "a": 0.5})],
              "witness": {"spectra": ((inf, -0.0), [nan]), "n": 3, "name": "kl"}}
    text = cli._report_json(report)
    assert text == reference_report_json(report)
    assert json.loads(text) == {"pass": False, "max_gap": "nan",
                                "values": [1.0, "inf", ["-inf", {"a": 0.5, "z": "nan"}]],
                                "witness": {"name": "kl", "n": 3, "spectra": [["inf", -0.0], ["nan"]]}}


def test_report_json_finite_reports_skip_the_walk(capsys, monkeypatch):
    report = {"b": [1.5, (2, -0.0)], "a": {"c": None, "d": "x"}, "e": True}
    want = reference_report_json(report)

    def refuse(value):
        raise AssertionError("_json_safe ran on a finite report")

    monkeypatch.setattr(cli, "_json_safe", refuse)
    assert cli._report_json(report) == want
    code, out, err = run_cli(capsys, "check", "locality", "--space", "simplex3", "--trials", "5")
    assert code == 0 and err == "" and json.loads(out)["pass"] is True


# ---------------------------------------------------------------------------
# the grammar of every command, as a generated property
# ---------------------------------------------------------------------------

GRAMMAR = settings(derandomize=True, database=None, max_examples=150, deadline=None)
SIZED_NAMES = ("simplex", "ball", "spin", "real", "complex", "quaternion")
ODD_VALUES = (math.nan, math.inf, -math.inf, True, False, None, "1", [1])


def shorthand(data) -> str:
    """A name with a size of 0 to 6 (unknown names included), or one of the bare names."""
    if data.draw(st.integers(0, 3)):
        name = data.draw(st.sampled_from(SIZED_NAMES + SIZED_NAMES + ("octonion", "cube", "")))
        return f"{name}{data.draw(st.integers(0, 6))}"
    return data.draw(st.sampled_from(["square", "disc", "disk", "simplex", "Simplex3", "simplex-1", " disc "]))


def vertex_list(data) -> list:
    """2 to 4-dimensional integer vertices, often with a flat, duplicate, non-extreme or odd entry."""
    m = data.draw(st.integers(2, 4))
    verts = np.array(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                                        min_size=m + 1, max_size=m + 4)), dtype=float)
    edit = data.draw(st.sampled_from(["none", "none", "flat", "duplicate", "inside", "odd"]))
    if edit == "flat":
        verts[:, -1] = 0.0
    elif edit == "duplicate":
        verts = np.vstack([verts, verts[:1]])
    elif edit == "inside":
        verts = np.vstack([verts, np.mean(verts, axis=0)])
    rows = verts.tolist()
    if edit == "odd":
        rows[0][0] = data.draw(st.sampled_from(ODD_VALUES))
    return rows


def descriptor(data) -> str:
    """A JSON space descriptor: a polytope, or a kind whose fields may have the wrong type."""
    kind = data.draw(st.sampled_from(["polytope", "polytope", "simplex", "ball", "spin", "density", "cube", 3]))
    if kind == "polytope":
        desc = {"kind": kind, "vertices": vertex_list(data)}
    else:
        size = data.draw(st.one_of(st.integers(0, 4), st.sampled_from(ODD_VALUES)))
        desc = {"kind": kind, "n": size, "d": size,
                "ring": data.draw(st.sampled_from(["real", "complex", "quaternion", "octonion", 2]))}
        if data.draw(st.booleans()):
            desc.pop(data.draw(st.sampled_from(sorted(desc))))
    return json.dumps(desc)


def element(data, space_text: str) -> str:
    """Mostly the space's barycenter, moved, scaled or cut short; else numbers or odd values."""
    try:
        coords = cli.parse_space(space_text).barycenter_coords().tolist()
    except ValueError:
        coords = [0.5, 0.5]
    how = data.draw(st.sampled_from(["center", "center", "moved", "short", "odd"]))
    if how == "moved":
        coords = [c + data.draw(st.floats(-1.0, 1.0)) for c in coords]
    elif how == "short":
        coords = coords[:-1]
    elif how == "odd":
        coords[0] = data.draw(st.sampled_from(ODD_VALUES))
    if data.draw(st.booleans()):
        return json.dumps(coords)
    trace = data.draw(st.one_of(st.floats(0.0, 3.0), st.sampled_from(ODD_VALUES + (-1.0, 1e308))))
    return json.dumps({"trace": trace, "coords": coords})


def argv(data) -> list:
    space = shorthand(data) if data.draw(st.booleans()) else descriptor(data)
    command = data.draw(st.sampled_from(["decompose", "check", "check", "landscape"]))
    if command == "decompose":
        return ["decompose", "--space", space, "--element", element(data, space)]
    if command == "landscape":
        return ["landscape", "--space", space, "--grid", str(data.draw(st.integers(0, 15)))]
    kind = data.draw(st.sampled_from(["locality", "sufficiency", "spectrality", "concavity"]))
    where = ["--algebra", shorthand(data)] if kind == "concavity" else ["--space", space]
    args = ["check", kind, *where, "--trials", str(data.draw(st.integers(-1, 12))), "--seed", "1"]
    if kind in ("locality", "sufficiency"):
        args += ["--divergence", data.draw(st.sampled_from(["kl", "squared_euclidean", "itakura_saito",
                                                             "matrix_negentropy"]))]
    if data.draw(st.integers(0, 3)) == 0:
        args += ["--tol", str(data.draw(st.sampled_from([1e-8, 0.0, -1.0, math.inf, math.nan])))]
    return args


@GRAMMAR
@given(data=st.data())
def test_property_every_command_exits_0_1_or_2(data):
    args = argv(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert code in (0, 1, 2), args
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, args


# ---------------------------------------------------------------------------
# one parse: main against the whole argv through the top-level parser
# ---------------------------------------------------------------------------

def reference_main(argv) -> int:
    """``cli.main`` with every argv parsed by ``_parser().parse_args``, whose top level hands a command's
    arguments on to its subparser."""
    try:
        args = cli._parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except SpectralConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cli._USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def assert_main_matches_reference(argv):
    runs = []
    for run in (cli.main, reference_main):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1], argv


# values for each option, some of them refused; every check gets --trials and every landscape --grid, so that no
# command runs its default 200 trials or 101 x 101 grid
COMMAND_OPTIONS = {
    "decompose": {"--space": ["simplex3", "square", "complex2", "bogus3"],
                  "--element": ["[0.2, 0.3, 0.5]", "[0.5, 0.25]", '{"trace": 2, "coords": [0.5, 0.25]}', "[1",
                                "[0.6, 0, 0.2, 0.1, 0.2, -0.1, 0.4, 0]"]},
    "check": {"--space": ["simplex3", "square", "disc", "complex2"],
              "--divergence": ["kl", "squared_euclidean", "matrix_negentropy", "bogus"],
              "--algebra": ["complex2", "spin3", "octonion2"], "--trials": ["1", "2", "abc", "-1"],
              "--tol": ["1e-6", "x"], "--seed": ["1", "s"]},
    "landscape": {"--space": ["square", "simplex3", "disc", "simplex4"], "--grid": ["3", "5", "x"]},
}
ALWAYS = ("--trials", "--grid")
CHECK_KINDS = ("locality", "sufficiency", "spectrality", "concavity", "purity")
ODD_TOKENS = ("surplus", "--bogus", "--bogus=1", "-x", "-h", "--help", "--", "-1")
TOP_LEVEL = [[], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["bogus", "--help"], ["--help", "decompose"],
             ["-h", "bogus"], ["Decompose"], ["decomp", "--space", "square"], ["--space", "square", "decompose"],
             ["--", "decompose", "--space", "square", "--element", "[0.5, 0.25]"], ["decompose", "--help"],
             ["check", "-h"], ["landscape", "--he"]]


def spelled(data, option: str, value: str) -> list:
    """option and value as two tokens, as --opt=value, with the option cut short, or the option alone."""
    form = data.draw(st.sampled_from(["apart"] * 6 + ["equals"] * 3 + ["short", "short-equals", "alone"]))
    if form.startswith("short"):
        option = option[: data.draw(st.integers(3, len(option) - 1))]
    if form == "alone":
        return [option]
    return [f"{option}={value}"] if form.endswith("equals") else [option, value]


def command_argv(data) -> list:
    """A command and its options in shuffled order, some left out, spelled out or cut short, plus odd tokens."""
    command = data.draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    groups = [spelled(data, option, data.draw(st.sampled_from(values)))
              for option, values in COMMAND_OPTIONS[command].items()
              if option in ALWAYS or data.draw(st.integers(0, 4))]
    if command == "check" and data.draw(st.integers(0, 5)):
        groups.append([data.draw(st.sampled_from(CHECK_KINDS))])
    if not data.draw(st.integers(0, 2)):
        groups += [[token] for token in data.draw(st.lists(st.sampled_from(ODD_TOKENS), min_size=1, max_size=2))]
    order = data.draw(st.permutations(range(len(groups))))
    return [command, *(token for i in order for token in groups[i])]


@pytest.mark.parametrize("argv", TOP_LEVEL, ids=[" ".join(argv) or "empty" for argv in TOP_LEVEL])
def test_main_matches_the_top_level_parse(argv):
    assert_main_matches_reference(argv)


@GRAMMAR
@given(data=st.data())
def test_property_main_matches_the_top_level_parse(data):
    assert_main_matches_reference(command_argv(data))
