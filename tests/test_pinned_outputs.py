"""Fixed-seed CLI output of the checkers, pinned from an earlier version of the code.

``tests/data/matrix_outputs.json`` holds the argv, exit code and JSON report
of 121 commands, written by ``tools/pin_matrix_outputs.py``: concavity,
locality and sufficiency on density matrices and spin factors, locality on
every geometry (simplices, polytopes, the disc), sufficiency on simplex3 and
simplex4, spectrality on the square, a triangle (at 20 and 200 trials), the
regular pentagon, the tetrahedron, the cube and two irregular polygons,
each at seeds 1 to 3, plus two locality runs whose sampler rejects a draw:
a complement mass at or below 1e-6 (real2 at seed 192), and s2 equal to s1
(simplex3 at seed 5, where s2 is drawn again in 4 trials, then in 2 of
them, then in 1).  Locality and spin concavity are pinned on stacked draws,
re-pinned when they replaced the per-trial loops (simplices first, then
density matrices, polytopes and the spin radii); kl and matrix_negentropy
gaps stayed at rounding level, since an entropy-generated regret takes the
same value for every orthogonal state.  Also
pinned: 18 polytope decompositions with their witnesses (square, triangle,
regular pentagon and 12-gon, two irregular polygons, the cube) and 5
density-matrix decompositions with theirs (complex2, real3, quaternion2).
Polygon witnesses are the closed-form interval solutions, the cube's come
from the phase-1 simplex (re-pinned when it replaced HiGHS, in those five
entries' witnesses alone), and every polytope witness is checked to be a
test on the face of its pair.  Exit codes, verdicts and the witness trial, t, condition
and channel must match exactly; floats, witness coefficients included, may
differ by rounding only.
"""

import io
import itertools
import json
import math
import pathlib
from contextlib import redirect_stdout

import numpy as np
import pytest

from test_polygons import reference_face

from spectral_cone import cli, geometries as geo
from spectral_cone.tolerances import WITNESS_FEASIBILITY_TOL

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


POLYTOPE_DECOMPOSITIONS = [p for p in PINS
                           if p["argv"][0] == "decompose" and p["report"]["space"]["kind"] == "polytope"]


@pytest.mark.parametrize("pin", POLYTOPE_DECOMPOSITIONS, ids=lambda p: " ".join(p["argv"][2:]))
def test_pinned_polytope_witnesses_are_tests_on_their_faces(pin):
    report = pin["report"]
    space = geo.space_from_json(report["space"])
    pairs = list(itertools.combinations(np.array(report["components"], dtype=float), 2))
    assert len(report["witnesses"]) == len(pairs) and pairs
    for (p0, p1), w in zip(pairs, report["witnesses"]):
        linear = np.array(w["linear"])
        assert abs(linear @ p0 + w["offset"]) <= 1e-12 and abs(linear @ p1 + w["offset"] - 1.0) <= 1e-12
        face = reference_face(space, geo._polytope_geometry(space).to_frame((p0 + p1) / 2.0))
        values = space.vertex_array[list(face) if face else slice(None)] @ linear + w["offset"]
        assert np.all(values >= -WITNESS_FEASIBILITY_TOL) and np.all(values <= 1.0 + WITNESS_FEASIBILITY_TOL)
