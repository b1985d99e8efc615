"""The landscape kernels against the whole-grid passes they replaced, bit for bit.

``Polytope.entropies`` takes the least entropy over the cliques that solve a
point keeping every weight.  The reference runs the earlier partial rule: a
clique that drops a weight solves the point too, and a support that several
cliques yield counts once, from the first in clique order, by a sort of the
support bitmask of every point.  ``spectral._strict_maxima`` compares each
grid point with its eight neighbours one shift at a time; the reference
builds every 3 x 3 window.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from test_decompose_stacks import partial_rule_clique_solutions

import spectral_cone as sc
from spectral_cone import geometries as geo, spectral
from spectral_cone.errors import DecompositionError

PROPERTIES = settings(derandomize=True, database=None, max_examples=30, deadline=None)
TOTALS = (1.0, 2.5, 1e308)


def polytope(verts) -> geo.Polytope:
    return geo.Polytope(tuple(tuple(float(c) for c in v) for v in verts))


CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
TETRAHEDRON = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
PRISM = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
SIMPLEX8 = polytope(np.vstack([np.zeros(8), np.eye(8)]))  # cliques of up to 9 vertices, summed over 9 terms


@np.errstate(over="ignore")
def reference_entropies(space, coords, total) -> np.ndarray:
    """The full-sort kernel on the partial rule: the support bitmask of every point argsorted, weights clipped at
    0; inf if unsolved."""
    out = np.empty(len(coords))
    for start in range(0, len(coords), geo.POINT_BLOCK):
        stacks = partial_rule_clique_solutions(space, coords[start:start + geo.POINT_BLOCK], total)
        cols = [np.where(kept, np.clip(w, 0.0, None), 0.0).swapaxes(0, 1) for _, w, kept in stacks]
        h = np.concatenate([-np.sum(np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0), axis=0) + 0.0
                            for v in cols])  # -sum w ln w over each clique's weights, written out
        support = np.concatenate([np.sum(np.where(kept, 1 << idx[..., None], 0), axis=1) for idx, _, kept in stacks])
        order = np.argsort(support, axis=0, kind="stable")
        support = np.take_along_axis(support, order, axis=0)
        first = (support != 0) & (np.diff(support, axis=0, prepend=-1) != 0)
        h = np.take_along_axis(h, order, axis=0)
        out[start:start + geo.POINT_BLOCK] = np.min(np.where(first, h, np.inf), axis=0)
    return out


def dropping_points(space, coords) -> int:
    """Points that some clique solves while dropping a weight under the partial rule: where the rules differ."""
    stacks = partial_rule_clique_solutions(space, coords, 1.0)
    partial = np.concatenate([np.any(kept, axis=1) & ~np.all(kept, axis=1) for _, _, kept in stacks])
    return int(np.count_nonzero(np.any(partial, axis=0)))


def probe_points(space, rng) -> np.ndarray:
    """Vertices, midpoints and random points of every vertex pair (edges and diagonals), the barycenter and
    random interior points."""
    verts = space.vertex_array
    i, j = np.triu_indices(len(verts), 1)
    t = rng.random((len(i), 1))
    interior = rng.dirichlet(np.ones(len(verts)), 40) @ verts
    return np.concatenate([verts, (verts[i] + verts[j]) / 2.0, (1.0 - t) * verts[i] + t * verts[j],
                           np.mean(verts, axis=0)[None], interior])


@np.errstate(over="ignore", invalid="ignore")  # at trace 1e308 the clique solves overflow, in either kernel
def assert_same_entropies(space, coords, total):
    want = reference_entropies(space, coords, total)
    if not np.all(want < np.inf):
        with pytest.raises(DecompositionError):
            space.entropies(coords, total)
        return
    assert space.entropies(coords, total).tobytes() == want.tobytes()


@st.composite
def polygons(draw):
    """3- to 12-gons: jittered angles on an ellipse, so every vertex is extreme."""
    k = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = 0.0 if draw(st.booleans()) else 0.8
    angles = 2.0 * np.pi * (np.arange(k) + jitter * rng.random(k)) / k
    axes = rng.uniform(0.3, 1.0, 2)
    return polytope(np.stack([axes[0] * np.cos(angles), axes[1] * np.sin(angles)], axis=1))


@PROPERTIES
@given(space=polygons(), seed=st.integers(0, 2 ** 32 - 1))
def test_polygon_entropies_match_the_full_sort(space, seed):
    coords = probe_points(space, np.random.default_rng(seed))
    assert dropping_points(space, coords) > 0  # the vertices: a pair solving one keeps only its weight
    for total in TOTALS:
        assert_same_entropies(space, coords, total)


@pytest.mark.parametrize("space", [CUBE, TETRAHEDRON, PRISM, SIMPLEX8],
                         ids=["cube", "tetrahedron", "prism", "simplex8"])
def test_polytope_entropies_match_the_full_sort(space):
    coords = probe_points(space, np.random.default_rng(len(space.vertices)))
    assert dropping_points(space, coords) > 0
    for total in TOTALS:
        assert_same_entropies(space, coords, total)
        for row in coords[::12]:  # one point alone: the weights of a clique lie next to each other
            assert_same_entropies(space, row[None], total)


def test_square_grid_entropies_match_the_full_sort_across_point_blocks():
    square = geo.unit_square()
    xs = np.linspace(0.0, 1.0, 71)
    coords = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    assert len(coords) > geo.POINT_BLOCK and 0 < dropping_points(square, coords) < len(coords)
    for total in TOTALS:
        assert_same_entropies(square, coords, total)


SCALES = st.floats(-20.0, 40.0).map(lambda e: 2.0 ** e)  # 2**-20 to 2**40
SHIFTS = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)  # per coordinate, in scale times the extent
# Entropy error per unit of coordinate rounding: each frame coordinate of a vertex or a probe point is off by at
# most (ratio + 1) 2**-52 of the frame's extent (the image coordinate, rounded at |offset| + scale * extent, and
# its centring), a clique solve turns that into a weight error of at most 32 times as much (the condition of the
# systems), and w ln w moves by at most |1 + ln w| <= 32 times the weight error (weights above e**-33).
ROUNDING_GAIN = 32.0 * 32.0


def assert_affine_invariant(space, scale, shift, seed):
    """The entropies of the probe points agree with those of their images on scale * space + offset, offset the
    shift times scale times the extent of the space, within ROUNDING_GAIN times the rounding of the centring:
    (ratio + 1) 2**-52, ratio the largest offset coordinate over scale times the extent."""
    verts = space.vertex_array
    extent = np.max(verts.max(axis=0) - verts.min(axis=0))
    offset = np.array(shift[:space.dim]) * scale * extent
    image = polytope(scale * verts + offset)
    coords = probe_points(space, np.random.default_rng(seed))
    bound = ROUNDING_GAIN * (np.max(np.abs(offset)) / (scale * extent) + 1.0) * 2.0 ** -52
    for total in (1.0, 2.5):
        want = space.entropies(coords, total)
        np.testing.assert_allclose(image.entropies(scale * coords + offset, total), want, rtol=0.0, atol=bound)


@PROPERTIES
@given(space=polygons(), scale=SCALES, shift=SHIFTS, seed=st.integers(0, 2 ** 32 - 1))
def test_property_polygon_entropies_are_affine_invariant(space, scale, shift, seed):
    assert_affine_invariant(space, scale, shift, seed)


@PROPERTIES
@given(scale=SCALES, shift=SHIFTS)
def test_property_cube_entropies_are_affine_invariant(scale, shift):
    assert_affine_invariant(CUBE, scale, shift, 5)


def test_unsolved_point_still_raises():
    square = geo.unit_square()
    with pytest.raises(DecompositionError):
        square.entropies(np.array([[0.5, 0.5], [3.0, 3.0]]), 1.0)


def test_point_that_only_a_dropping_clique_solves():
    """(500, 5e-9) on the triangle (0, 0), (1000, 0), (0, 1000): the triangle's system solves it with a third
    weight of 5e-12, at or below WEIGHT_DROP_TOL.  In the user's coordinates the pair system of the bottom edge
    leaves a residual of 5e-9, above SINGULARITY_TOL; in the record's frame (extent 1000 / 1024) it leaves
    about 5e-12, so the pair solves the point keeping both weights, and that solve is its decomposition."""
    triangle = polytope([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)])
    point = np.array([500.0, 5e-9])
    assert abs(triangle.entropies(point[None], 1.0)[0] - math.log(2)) <= 1e-11
    assert abs(spectral.entropy(triangle, sc.State(triangle, point)) - math.log(2)) <= 1e-11
    (dec,) = geo.enumerate_orthogonal_decompositions(triangle, sc.State(triangle, point))
    assert [tuple(c.coords) for c in dec.components] == [(1000.0, 0.0), (0.0, 0.0)]


# ---------------------------------------------------------------------------
# maxima
# ---------------------------------------------------------------------------

def reference_maxima(values) -> np.ndarray:
    """The sliding-window maxima: every (g, g, 8) neighbourhood copied, present points only."""
    windows = sliding_window_view(np.pad(values, 1, constant_values=np.nan), (3, 3))
    neighbors = np.delete(windows.reshape(*values.shape, 9), 4, axis=-1)
    present = ~np.isnan(neighbors)
    strict = np.all(~present | (values[..., None] > neighbors), axis=-1)
    return ~np.isnan(values) & strict & np.any(present, axis=-1)


LEVELS = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 0.5, math.log(2.0), 1.0, -1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(8))
def test_maxima_match_the_window_reference_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    for size in range(2, 16):
        for _ in range(6):
            values = rng.normal(size=(size, size))
            levels = rng.random((size, size)) < rng.random()  # plateaus, holes and signed zeros
            values[levels] = rng.choice(LEVELS, size=int(np.count_nonzero(levels)))
            assert np.array_equal(spectral._strict_maxima(values), reference_maxima(values))


def test_maxima_corner_cases():
    nan, inf = np.nan, np.inf
    lone = np.array([[nan, nan, nan], [nan, 1.0, nan], [nan, nan, nan]])
    signed = np.array([[0.0, -0.0], [-0.0, -0.0]])
    rising = np.array([[-inf, 0.0], [0.0, inf]])
    for values, maxima in ((lone, []), (signed, []), (rising, [(1, 1)])):
        assert np.argwhere(spectral._strict_maxima(values)).tolist() == [list(m) for m in maxima]
        assert np.array_equal(spectral._strict_maxima(values), reference_maxima(values))


@pytest.mark.parametrize("name, grid, count", [("square", 101, 4), ("disc", 101, 1), ("simplex3", 100, 1)])
def test_readme_landscape_maxima_match_the_window_reference(name, grid, count):
    from spectral_cone import cli

    land = sc.entropy_landscape(cli.parse_space(name), grid)
    assert np.array_equal(spectral._strict_maxima(land.values), reference_maxima(land.values))
    assert len(land.maxima) == count


# ---------------------------------------------------------------------------
# CSV formatting
# ---------------------------------------------------------------------------

def near(centres, steps=6) -> np.ndarray:
    """Each centre and the doubles up to steps away from it on either side."""
    out = [np.asarray(centres, dtype=float)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def format_classes(rng, m) -> np.ndarray:
    """Random bit patterns, uniform [0, 1.2), log-uniform +-[1e-4.5, 1e16], ties (mantissas of at most 20 bits),
    53-bit mantissas below 2^52, and the boundaries of the fixed range and of the decimal exponents."""
    signs = rng.choice([-1.0, 1.0], m)
    ties = np.ldexp(rng.integers(1, 2 ** 20, m).astype(float), rng.integers(-33, 33, m)) * signs
    full = rng.integers(2 ** 52, 2 ** 53, m) * np.ldexp(1.0, rng.integers(-66, 0, m)) * signs
    nines = [float(f"9.9999999999999999e{k}") for k in range(-6, 17)]  # rounds up to the next power of ten
    edges = near(np.concatenate([10.0 ** np.arange(-6, 18), nines, [1e-4, 2.0 ** 52, 2.0 ** 53, 0.5]]))
    return np.concatenate([rng.integers(-2 ** 63, 2 ** 63, m, dtype=np.int64).view(np.float64),
                           rng.random(m) * 1.2, 10.0 ** rng.uniform(-4.5, 16.0, m) * signs, ties, full,
                           edges, -edges, [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0]])


def test_formatted_matches_per_value_format_on_any_bits():
    rng = np.random.default_rng(5)
    values = format_classes(rng, 200_000)
    fixed = (np.abs(values) >= 1e-4) & (np.abs(values) < 2.0 ** 52)
    assert len(values) >= 10 ** 6 and np.count_nonzero(fixed) >= 700_000 and np.count_nonzero(~fixed) >= 200_000
    ends = rng.choice(np.frombuffer(b",\n", np.uint8), len(values))
    want = [f"{v:.17g}{chr(e)}".encode() for v, e in zip(values.tolist(), ends.tolist())]
    assert spectral._formatted(values, ends).tolist() == want
    assert spectral._formatted(values[:0], ends[:0]).tolist() == []


DIGESTS = json.loads((pathlib.Path(__file__).parent / "data" / "landscape_digests.json").read_text())


@pytest.mark.parametrize("pin", DIGESTS, ids=[p["name"] for p in DIGESTS])
def test_landscape_files_match_pinned_digests(pin, tmp_path):
    """The CSV and maxima sidecar bytes of ``tools/pin_landscape_digests.py``, pinned before the fixed-notation
    kernel replaced the per-value % formatting."""
    from spectral_cone import cli

    out = tmp_path / "landscape.csv"
    assert cli.main(["landscape", *pin["args"], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin["csv_sha256"]
    assert hashlib.sha256(pathlib.Path(f"{out}.maxima.json").read_bytes()).hexdigest() == pin["maxima_sha256"]
