"""Record sha256 digests of landscape CSVs and their maxima sidecars as a regression pin.

Run from the repository root on the commit whose output is to be pinned:

    PYTHONPATH=src python3 tools/pin_landscape_digests.py > tests/data/landscape_digests.json

Each entry holds a name, the ``landscape`` arguments and the digests of the
two files that ``spectral-cone landscape ... --out NAME.csv`` writes.
``tests/test_landscape_kernels.py`` replays the arguments and compares; the
CI README step compares the files of the three README landscapes.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import sys
import tempfile

from spectral_cone import cli

HEXAGON = json.dumps({"kind": "polytope", "vertices": [[math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)]
                                                       for k in range(6)]})
# the three README landscapes, a regular hexagon centred at 0 (negative coordinates) and the square at other grids
LANDSCAPES = (
    ("square", "square", 101),
    ("disc", "disc", 101),
    ("triangle", "simplex3", 100),
    ("hexagon-33", HEXAGON, 33),
    ("square-2", "square", 2),
    ("square-7", "square", 7),
    ("square-401", "square", 401),
)


def digests(args, directory) -> dict:
    """sha256 of the CSV and of its maxima sidecar, as `landscape ARGS --out` writes them."""
    out = pathlib.Path(directory) / "landscape.csv"
    if cli.main(["landscape", *args, "--out", str(out)]) != 0:
        raise RuntimeError(f"landscape {args} failed")
    return {suffix: hashlib.sha256(pathlib.Path(str(out) + suffix).read_bytes()).hexdigest()
            for suffix in ("", ".maxima.json")}


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory() as directory:
        for name, space, grid in LANDSCAPES:
            args = ["--space", space, "--grid", str(grid)]
            pins = digests(args, directory)
            entries.append({"name": name, "args": args, "csv_sha256": pins[""],
                            "maxima_sha256": pins[".maxima.json"]})
    json.dump(entries, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
