"""Deterministic operation generators for the three benchmark workloads.

Everything here depends on numpy and the seed only, never on spectral_cone:
the program receives nothing but the argv lists and JSON strings built here.
Each operation carries what the oracle needs to judge its output.

Workloads
---------
matrix-checks  rounds of concavity / locality / sufficiency checks on density
               matrices; time goes to the jordan eigensolve and State()
               membership tests, and no polytope code runs.
vector-grid    rounds of the README landscapes plus vector checks; the jordan
               module is never called (the bypass for matrix-side changes).
queries        a stream of single decompose requests and entropy calls over
               all five families, with a fixed share of never-seen polygons
               (cold polytope caches on the request path) and a fixed share
               of invalid requests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("matrix-checks", "vector-grid", "queries")

# queries schedule: request i is invalid when i % INVALID_EVERY == INVALID_EVERY - 1
# (cycling through INVALID_CLASSES) and uses a never-seen polygon when
# i % COLD_EVERY == COLD_SLOT (cycling through COLD_SIZES vertices); the
# other requests cycle through QUERY_FAMILIES, two decompose requests for
# every entropy call.
INVALID_EVERY = 12
COLD_EVERY = 24
COLD_SLOT = 5
INVALID_CLASSES = ("malformed_json", "outside_space", "unknown_space", "sufficiency_disc")
BATCH = INVALID_EVERY * len(INVALID_CLASSES)

TRIANGLE = {"kind": "polytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
SQUARE_VERTICES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
CUBE_VERTICES = [[float(a), float(b), float(c)] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
WARM_POLYGON_SIZES = (5, 7, 9, 11)
COLD_SIZES = tuple(range(4, 13))


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    kind is "cli" (args = argv for cli.main) or "entropy" (args = (space
    text, element text) for spectral.entropy).  label names the operation
    type within a round; work is the number of work units it performs
    (checker trials, in-space landscape points, or 1 request); klass tags
    queries as "valid", "cold" or an invalid class; expect is the oracle's
    input.
    """

    kind: str
    args: tuple
    label: str
    work: int
    klass: str = "valid"
    expect: dict = field(default_factory=dict, compare=False, hash=False)


def _derived_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# matrix-checks
# ---------------------------------------------------------------------------

MATRIX_CHECKS = (
    # (label, argv without --seed, trials)
    ("concavity-quaternion3", ["check", "concavity", "--algebra", "quaternion3"], 20),
    ("concavity-complex3", ["check", "concavity", "--algebra", "complex3"], 20),
    ("concavity-real4", ["check", "concavity", "--algebra", "real4"], 20),
    ("locality-complex3", ["check", "locality", "--space", "complex3",
                           "--divergence", "matrix_negentropy"], 8),
    ("sufficiency-complex3", ["check", "sufficiency", "--space", "complex3",
                              "--divergence", "matrix_negentropy"], 20),
    ("locality-quaternion2", ["check", "locality", "--space", "quaternion2",
                              "--divergence", "matrix_negentropy"], 8),
    ("sufficiency-quaternion2", ["check", "sufficiency", "--space", "quaternion2",
                                 "--divergence", "matrix_negentropy"], 20),
)


def _check_op(label, argv, trials, seed, verdict=True, extra=None):
    full = list(argv) + ["--trials", str(trials), "--seed", str(seed)]
    expect = {"type": "check", "check": argv[1], "pass": verdict, "trials": trials}
    expect.update(extra or {})
    return Op("cli", tuple(full), label, trials, expect=expect)


def matrix_round(seed: int, r: int) -> list:
    return [
        _check_op(label, argv, trials, _derived_seed(seed, r, k))
        for k, (label, argv, trials) in enumerate(MATRIX_CHECKS)
    ]


# ---------------------------------------------------------------------------
# vector-grid
# ---------------------------------------------------------------------------

LANDSCAPES = (
    ("landscape-square", "square", 101),
    ("landscape-disc", "disc", 101),
    ("landscape-simplex3", "simplex3", 100),
)

# Trial counts keep the median command type (locality-kl) clear of its
# neighbours in latency, so the median latency of a round does not jump
# between types from run to run.
VECTOR_CHECKS = (
    # (label, argv without --seed, trials, expected verdict)
    ("locality-kl", ["check", "locality", "--space", "simplex3", "--divergence", "kl"], 220, True),
    ("locality-squared_euclidean", ["check", "locality", "--space", "simplex3",
                                    "--divergence", "squared_euclidean"], 150, False),
    ("locality-itakura_saito", ["check", "locality", "--space", "simplex3",
                                "--divergence", "itakura_saito"], 150, False),
    ("sufficiency-kl", ["check", "sufficiency", "--space", "simplex4", "--divergence", "kl"], 300, True),
    ("spectrality-square", ["check", "spectrality", "--space", "square"], 40, False),
    ("spectrality-triangle", ["check", "spectrality", "--space", json.dumps(TRIANGLE)], 200, True),
)


def landscape_points(space: str, grid: int) -> int:
    """In-space grid points of a README landscape, counted without the program."""
    if space == "square":
        return grid * grid
    axis = np.linspace(-1.0, 1.0, grid) if space == "disc" else np.linspace(0.0, 1.0, grid)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    if space == "disc":
        inside = np.hypot(x, y) <= 1.0 + 1e-12
    else:
        inside = 1.0 - x - y >= -1e-12
    return int(np.count_nonzero(inside))


def vector_round(seed: int, r: int) -> list:
    ops = [
        Op("cli", ("landscape", "--space", space, "--grid", str(grid)), label,
           landscape_points(space, grid),
           expect={"type": "landscape", "space": space, "grid": grid})
        for label, space, grid in LANDSCAPES
    ]
    for k, (label, argv, trials, verdict) in enumerate(VECTOR_CHECKS):
        extra = {"witness_coords": [0.5, 0.5]} if label == "spectrality-square" else None
        ops.append(_check_op(label, argv, trials, _derived_seed(seed, r, k), verdict, extra))
    return ops


# ---------------------------------------------------------------------------
# queries: random elements of all five families
# ---------------------------------------------------------------------------

def _floats(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]


def random_polygon(rng: np.random.Generator, k: int) -> list:
    """Convex polygon with k vertices on an ellipse, angles at least 0.2 apart."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
        if float(gaps.min()) > 0.2:
            break
    a, b = rng.uniform(0.6, 1.0, 2)
    pts = np.round(np.column_stack([a * np.cos(ang), b * np.sin(ang)]), 6)
    return [_floats(p) for p in pts]


def warm_polygons(seed: int) -> list:
    rng = np.random.default_rng(_derived_seed(seed, 999_999))
    return [random_polygon(rng, k) for k in WARM_POLYGON_SIZES]


def quaternion_to_complex(q: np.ndarray) -> np.ndarray:
    """(n, m, 4) quaternion matrix as its (2n, 2m) complex embedding."""
    alpha = q[..., 0] + 1j * q[..., 1]
    beta = q[..., 2] + 1j * q[..., 3]
    n, m = alpha.shape
    out = np.empty((2 * n, 2 * m), dtype=complex)
    out[0::2, 0::2] = alpha
    out[0::2, 1::2] = beta
    out[1::2, 0::2] = -np.conj(beta)
    out[1::2, 1::2] = np.conj(alpha)
    return out


def random_density_coords(ring: str, n: int, rng: np.random.Generator) -> list:
    """Row-major coordinates of a random full-rank density matrix over a ring."""
    if ring == "real":
        g = rng.standard_normal((n, n))
        m = g @ g.T
        m = (m + m.T) / 2.0
        return _floats(m / np.trace(m))
    if ring == "complex":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2.0
        m = m / np.trace(m).real
        return _floats(np.stack([m.real, m.imag], axis=-1))
    c = quaternion_to_complex(rng.standard_normal((n, n, 4)))
    m = c @ c.conj().T
    q = np.stack([m[0::2, 0::2].real, m[0::2, 0::2].imag,
                  m[0::2, 1::2].real, m[0::2, 1::2].imag], axis=-1)
    q_star = np.swapaxes(q, 0, 1) * np.array([1.0, -1.0, -1.0, -1.0])
    q = (q + q_star) / 2.0
    q = q / float(np.sum(q[np.arange(n), np.arange(n), 0]))
    return _floats(q)


def _ball_coords(rng: np.random.Generator, d: int) -> list:
    v = rng.standard_normal(d)
    return _floats(v / np.linalg.norm(v) * rng.uniform() ** (1.0 / d))


QUERY_FAMILIES = ("simplex5", "ball3", "spin4", "real3", "complex3", "quaternion3",
                  "square", "polygon", "cube")


def _descriptor(family: str, vertices=None) -> dict:
    """JSON descriptor of a query family, written without the program."""
    if family.startswith("simplex"):
        return {"kind": "simplex", "n": int(family[7:])}
    if family.startswith("ball"):
        return {"kind": "ball", "d": int(family[4:])}
    if family.startswith("spin"):
        return {"kind": "spin", "d": int(family[4:])}
    for ring in ("real", "complex", "quaternion"):
        if family.startswith(ring):
            return {"kind": "density", "ring": ring, "n": int(family[len(ring):])}
    return {"kind": "polytope", "vertices": vertices}


def _element_coords(desc: dict, rng: np.random.Generator) -> list:
    kind = desc["kind"]
    if kind == "simplex":
        return _floats(rng.dirichlet(np.ones(desc["n"])))
    if kind in ("ball", "spin"):
        return _ball_coords(rng, desc["d"])
    if kind == "density":
        return random_density_coords(desc["ring"], desc["n"], rng)
    verts = np.asarray(desc["vertices"])
    return _floats(rng.dirichlet(np.ones(len(verts))) @ verts)


def _space_text(family: str, desc: dict) -> str:
    """Shorthand where the CLI has one, inline JSON for the generated polytopes."""
    if family in ("polygon", "cube"):
        return json.dumps(desc)
    return family


def _invalid_request(klass: str, rng: np.random.Generator) -> Op:
    if klass == "malformed_json":
        family = str(rng.choice(["simplex5", "ball3", "complex3"]))
        text = json.dumps(_element_coords(_descriptor(family), rng))
        argv = ("decompose", "--space", family, "--element", text[: int(rng.integers(1, len(text)))])
        code = 1
    elif klass == "outside_space":
        family = str(rng.choice(["simplex5", "ball3", "spin4", "real3"]))
        coords = np.asarray(_element_coords(_descriptor(family), rng))
        if family == "simplex5":
            coords = coords * 1.5  # sums to 1.5
        elif family == "real3":
            coords = -coords  # negative definite
        else:
            coords = coords / np.linalg.norm(coords) * 1.5  # outside the unit ball
        argv = ("decompose", "--space", family, "--element", json.dumps(_floats(coords)))
        code = 2
    elif klass == "unknown_space":
        name = str(rng.choice(["simplex", "ballx", "hexagon", "complex"])) + "_" + str(int(rng.integers(100)))
        argv = ("decompose", "--space", name, "--element", "[1.0]")
        code = 1
    else:  # sufficiency_disc: the disc has no builtin channel suite
        argv = ("check", "sufficiency", "--space", "disc", "--divergence",
                str(rng.choice(["kl", "squared_euclidean"])), "--trials", str(int(rng.integers(5, 50))))
        code = 1
    return Op("cli", argv, "invalid-" + klass, 1, klass, expect={"type": "reject", "code": code})


def query_request(seed: int, i: int, warm: list) -> Op:
    """Request i of the queries stream; independent of every other request.

    The schedule (which family, kind and polygon size comes when) is fixed,
    so every seed sends the same mix; the seed draws the elements and the
    polygon shapes.
    """
    rng = np.random.default_rng(_derived_seed(seed, 1, i))
    if i % INVALID_EVERY == INVALID_EVERY - 1:
        return _invalid_request(INVALID_CLASSES[(i // INVALID_EVERY) % len(INVALID_CLASSES)], rng)
    if i % COLD_EVERY == COLD_SLOT:
        family, klass = "polygon", "cold"
        vertices = random_polygon(rng, COLD_SIZES[(i // COLD_EVERY) % len(COLD_SIZES)])
        decompose = (i // (COLD_EVERY * len(COLD_SIZES))) % 3 != 2
    else:
        # v counts the warm valid requests before this one
        v = i - i // INVALID_EVERY - (i + COLD_EVERY - 1 - COLD_SLOT) // COLD_EVERY
        family, klass = QUERY_FAMILIES[v % len(QUERY_FAMILIES)], "valid"
        vertices = {"square": SQUARE_VERTICES, "cube": CUBE_VERTICES}.get(family)
        if family == "polygon":
            vertices = warm[(v // (3 * len(QUERY_FAMILIES))) % len(warm)]
        decompose = (v // len(QUERY_FAMILIES)) % 3 != 2
    desc = _descriptor(family, vertices)
    coords = _element_coords(desc, rng)
    trace = 1.0
    if rng.uniform() < 0.3:
        trace = float(np.round(rng.uniform(0.2, 3.0), 6))
        element = json.dumps({"trace": trace, "coords": coords})
    else:
        element = json.dumps(coords)
    expect = {"space": desc, "trace": trace, "coords": coords}
    space = _space_text(family, desc)
    name = family
    if klass == "cold":  # three size bands, so each type has enough samples per run
        name += "-cold-" + ("small", "mid", "large")[(len(vertices) - 4) // 3]
    elif family == "polygon":
        name += str(len(vertices))
    if decompose:
        expect["type"] = "decompose"
        return Op("cli", ("decompose", "--space", space, "--element", element),
                  f"decompose-{name}", 1, klass, expect)
    expect["type"] = "entropy"
    return Op("entropy", (space, element), f"entropy-{name}", 1, klass, expect)


def query_batch(seed: int, r: int, warm: list) -> list:
    return [query_request(seed, i, warm) for i in range(r * BATCH, (r + 1) * BATCH)]


# ---------------------------------------------------------------------------
# Entry points used by the worker
# ---------------------------------------------------------------------------

def fixed_spaces(workload: str, seed: int) -> list:
    """(space text, warm) pairs built during set-up; warm ones get a first decompose."""
    if workload == "matrix-checks":
        return [("complex3", False), ("quaternion2", False), ("quaternion3", False), ("real4", False)]
    if workload == "vector-grid":
        return [("square", True), ("disc", False), ("simplex3", False), ("simplex4", False),
                (json.dumps(TRIANGLE), True)]
    fixed = [(family, family == "square") for family in QUERY_FAMILIES
             if family not in ("polygon", "cube")]
    fixed.append((json.dumps(_descriptor("cube", CUBE_VERTICES)), True))
    fixed += [(json.dumps(_descriptor("polygon", v)), True) for v in warm_polygons(seed)]
    return fixed


def make_round(workload: str, seed: int, r: int, warm=None) -> list:
    """Round r of a workload: the unit over which throughput is taken."""
    if workload == "matrix-checks":
        return matrix_round(seed, r)
    if workload == "vector-grid":
        return vector_round(seed, r)
    if workload == "queries":
        return query_batch(seed, r, warm if warm is not None else warm_polygons(seed))
    raise ValueError(f"unknown workload {workload!r}")


# fixed work of a traced run: enough rounds that every operation type shows
TRACE_ROUNDS = {"matrix-checks": 3, "vector-grid": 1, "queries": 8}
