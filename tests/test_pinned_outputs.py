"""Fixed-seed CLI output of the checkers, pinned from an earlier version of the code.

``tests/data/matrix_outputs.json`` holds the argv, exit code and JSON report
of 116 commands, written by ``tools/pin_matrix_outputs.py``: concavity,
locality and sufficiency on density matrices and spin factors, locality on
every geometry (simplices, polytopes, the disc), sufficiency on simplex3 and
simplex4, spectrality on the square, a triangle (at 20 and 200 trials), the
regular pentagon, the tetrahedron, the cube and two irregular polygons,
each at seeds 1 to 3, plus two locality runs whose per-trial loop rejects a
draw (a complement mass at or below 1e-6, and s2 equal to s1), and 18
polytope decompositions with their witnesses (square, triangle, regular
pentagon and 12-gon, two irregular polygons, the cube).  Exit codes,
verdicts and the witness trial, t, condition and channel must match
exactly; floats, witness coefficients included, may differ by rounding only.
"""

import io
import json
import math
import pathlib
from contextlib import redirect_stdout

import pytest

from spectral_cone import cli

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "matrix_outputs.json").read_text())
EXACT_WITNESS_FIELDS = ("trial", "t", "condition", "channel")
# Last-digit rounding of a stacked evaluation; see FD_REL_ERR_NOISE in test_jordan.py for fd_max_rel_err.
FLOAT_TOL = 1e-12
FD_REL_ERR_NOISE = 1e-6


def assert_close(got, want, path, tol):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key, value in want.items():
            exact = path.endswith(".witness") and key in EXACT_WITNESS_FIELDS
            assert_close(got[key], value, f"{path}.{key}",
                         0.0 if exact else FD_REL_ERR_NOISE if key == "fd_max_rel_err" else tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]", tol)
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert got == want or abs(got - want) <= tol * max(1.0, abs(want)) or (
            math.isnan(got) and math.isnan(want)), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"][1:]) for p in PINS])
def test_matrix_command_matches_pinned_output(pin):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(pin["argv"]))
    assert code == pin["code"]
    assert_close(json.loads(out.getvalue()), pin["report"], "report", FLOAT_TOL)


def test_pins_cover_failing_witnesses():
    witnesses = [p["report"]["witness"] for p in PINS if p["report"].get("witness")]
    assert {"t", "channel"} <= {key for w in witnesses for key in w}
    assert len(PINS) >= 98
    assert sum(len(p["report"].get("witnesses", ())) for p in PINS if p["argv"][0] == "decompose") >= 30
