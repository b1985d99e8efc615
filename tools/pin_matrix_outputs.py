"""Record the CLI output of fixed-seed checker commands and polytope decompositions as a regression pin.

Run from the repository root on the commit whose output is to be pinned:

    PYTHONPATH=src python3 tools/pin_matrix_outputs.py > tests/data/matrix_outputs.json

Each entry holds the argv, the exit code and the parsed JSON report;
``tests/test_pinned_outputs.py`` replays the argv and compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

from spectral_cone import cli

SEEDS = (1, 2, 3)


def polytope(vertices) -> str:
    return json.dumps({"kind": "polytope", "vertices": [[float(c) for c in v] for v in vertices]})


def regular_polygon(k: int) -> str:
    return polytope([(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)])


TRIANGLE = polytope([(0, 0), (1, 0), (0, 1)])
PENTAGON = regular_polygon(5)
CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
TETRAHEDRON = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
QUADRILATERAL = polytope([(0, 0), (3, 0), (4, 2), (1, 3)])
HEXAGON = polytope([(0, 0), (2, -1), (4, 0), (5, 2), (2, 4), (-1, 2)])
# polytope decompositions print HiGHS witness coefficients; (space, elements) with and without a trace
DECOMPOSITIONS = (
    ("square", ("[0.3, 0.6]", '{"trace": 2.5, "coords": [0.5, 0.5]}', "[1.0, 0.25]")),
    (TRIANGLE, ("[0.2, 0.3]", '{"trace": 0.4, "coords": [0.5, 0.5]}')),
    (PENTAGON, ("[0.1, 0.2]", '{"trace": 3.0, "coords": [-0.3, -0.1]}')),
    (regular_polygon(12), ("[0.0, 0.0]", '{"trace": 1.5, "coords": [0.4, -0.2]}')),
    (QUADRILATERAL, ("[2.0, 1.0]", "[0.5, 0.2]")),
    (HEXAGON, ("[2.0, 1.5]", '{"trace": 2.0, "coords": [0.0, 1.0]}')),
    (CUBE, ("[0.5, 0.5, 0.5]", '{"trace": 2.0, "coords": [0.2, 0.7, 0.4]}', "[0.5, 0.5, 0.0]",
            '{"trace": 0.5, "coords": [0.25, 0.75, 0.5]}', "[0.9, 0.1, 0.3]")),
)
COMMANDS = (
    *(("check", "concavity", "--algebra", a, "--trials", "20")
      for a in ("real4", "complex3", "quaternion3", "spin3")),
    *(("check", kind, "--space", s, "--divergence", "matrix_negentropy", "--trials", trials)
      for kind, trials in (("locality", "8"), ("sufficiency", "20"))
      for s in ("complex2", "complex3", "quaternion2")),
    ("check", "sufficiency", "--space", "simplex4", "--divergence", "kl", "--trials", "40"),
    # failing checks, so that witnesses are pinned too
    ("check", "locality", "--space", "complex3", "--divergence", "squared_euclidean", "--trials", "8"),
    ("check", "sufficiency", "--space", "simplex4", "--divergence", "squared_euclidean", "--trials", "40"),
    # locality samplers of every geometry
    *(("check", "locality", "--space", s, "--divergence", "matrix_negentropy", "--trials", "8")
      for s in ("real2", "real3", "quaternion3")),
    *(("check", "locality", "--space", "simplex3", "--divergence", d, "--trials", "40")
      for d in ("kl", "squared_euclidean")),
    ("check", "locality", "--space", "simplex4", "--divergence", "kl", "--trials", "40"),
    *(("check", "locality", "--space", s, "--divergence", "squared_euclidean", "--trials", "20")
      for s in ("square", TRIANGLE, "disc", "spin3")),
    ("check", "sufficiency", "--space", "simplex3", "--divergence", "kl", "--trials", "40"),
    *(("check", "spectrality", "--space", s, "--trials", "20") for s in ("square", TRIANGLE, PENTAGON)),
    # the vector-grid size, a passing 3-D polytope, and failing polytopes beyond the regular polygons
    ("check", "spectrality", "--space", TRIANGLE, "--trials", "200"),
    *(("check", "spectrality", "--space", s, "--trials", "20")
      for s in (TETRAHEDRON, CUBE, QUADRILATERAL, HEXAGON)),
)
# seeds at which the per-trial locality loop rejects a draw: a complement
# mass at or below 1e-6 (real2, trial 1) and s2 equal to s1 (simplex3, twice in trial 4)
RETRY_COMMANDS = (
    ("check", "locality", "--space", "real2", "--divergence", "matrix_negentropy", "--trials", "8",
     "--seed", "22"),
    ("check", "locality", "--space", "simplex3", "--divergence", "kl", "--trials", "12", "--seed", "8"),
)


def main() -> int:
    entries = []
    runs = [[*argv, "--seed", str(seed)] for argv in COMMANDS for seed in SEEDS]
    runs += [list(argv) for argv in RETRY_COMMANDS]
    runs += [["decompose", "--space", space, "--element", x] for space, xs in DECOMPOSITIONS for x in xs]
    for args in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(args)
        entries.append({"argv": args, "code": code, "report": json.loads(out.getvalue())})
    json.dump(entries, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
