"""The landscape kernels against the whole-grid passes they replaced, bit for bit.

``Polytope.entropies`` applies the first-support rule (a support that several
cliques yield counts once, from the first in clique order) only on the points
where some clique drops a weight; the reference sorts the support bitmask of
every point.  ``spectral._strict_maxima`` compares each grid point with its
eight neighbours one shift at a time; the reference builds every 3 x 3 window.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import spectral_cone as sc
from spectral_cone import geometries as geo, spectral
from spectral_cone.decomposition import weights_entropy
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
    """The full-sort kernel: the support bitmask of every point argsorted, weights clipped at 0; inf if unsolved."""
    out = np.empty(len(coords))
    for start in range(0, len(coords), geo.POINT_BLOCK):
        stacks, _ = geo._clique_solutions(space, coords[start:start + geo.POINT_BLOCK], total)
        h = np.concatenate([weights_entropy(np.where(kept, np.clip(w, 0.0, None), 0.0).swapaxes(0, 1))
                            for _, w, kept in stacks])
        support = np.concatenate([np.sum(np.where(kept, 1 << idx[..., None], 0), axis=1) for idx, _, kept in stacks])
        order = np.argsort(support, axis=0, kind="stable")
        support = np.take_along_axis(support, order, axis=0)
        first = (support != 0) & (np.diff(support, axis=0, prepend=-1) != 0)
        h = np.take_along_axis(h, order, axis=0)
        out[start:start + geo.POINT_BLOCK] = np.min(np.where(first, h, np.inf), axis=0)
    return out


def dropping_points(space, coords) -> int:
    """Points where some clique that solves them drops a weight: where the first-support rule runs."""
    stacks, solved = geo._clique_solutions(space, coords, 1.0)
    partial = np.concatenate([~np.all(kept, axis=1) for _, _, kept in stacks])
    return int(np.count_nonzero(np.any(solved & partial, axis=0)))


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


def test_unsolved_point_still_raises():
    square = geo.unit_square()
    with pytest.raises(DecompositionError):
        square.entropies(np.array([[0.5, 0.5], [3.0, 3.0]]), 1.0)


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

def test_formatted_matches_per_value_format_on_any_bits():
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.integers(-2 ** 63, 2 ** 63, 2000, dtype=np.int64).view(np.float64),
                             [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0]])
    assert spectral._formatted(values, "\n") == [f"{v:.17g}\n" for v in values.tolist()]
    assert spectral._formatted(values[:0], ",") == []
