"""Polygons against their scipy oracles, and scipy imported only where a polytope needs it.

A polygon's orthogonality graph comes from a closed-form interval test and
its facets from a monotone chain.  The oracles are the ones they replace:
``_affine_test_feasible`` (the HiGHS linear program behind ``orthogonal``)
for the graph and ``scipy.spatial.ConvexHull`` for the facets.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from spectral_cone import geometries as geo
from spectral_cone.spectral import is_spectral
from spectral_cone.tolerances import FACET_DIGITS

PROPERTIES = settings(derandomize=True, database=None, max_examples=25, deadline=None)
SQUARE = geo.unit_square()
TRIANGLE = geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def regular_polygon(k: int, scale=None) -> np.ndarray:
    verts = np.array([(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)])
    if scale is not None:
        verts[0] *= scale
    return verts


def polytope(verts) -> geo.Polytope:
    return geo.Polytope(tuple(tuple(float(c) for c in v) for v in verts))


def lp_orthogonal(space: geo.Polytope, i: int, j: int) -> bool:
    """The verdict of the HiGHS witness program on the smallest face of the vertex pair."""
    return geo.orthogonal(space.vertex_state(i), space.vertex_state(j))


def lp_graph(space: geo.Polytope) -> np.ndarray:
    nv = len(space.vertices)
    adj = np.zeros((nv, nv), dtype=bool)
    for i in range(nv):
        for j in range(i + 1, nv):
            adj[i, j] = adj[j, i] = lp_orthogonal(space, i, j)
    return adj


def qhull_facets(verts) -> np.ndarray:
    return np.unique(np.round(ConvexHull(np.asarray(verts, dtype=float)).equations, FACET_DIGITS), axis=0)


def chain_facets(space: geo.Polytope) -> np.ndarray:
    geometry = geo._polytope_geometry(space)
    return np.column_stack([geometry.facet_normals, geometry.facet_offsets])


@st.composite
def convex_polygons(draw, min_size=3, max_size=10):
    """3 to 10 points (or min_size to max_size) on an ellipse, at least 0.05 rad apart,
    rounded to 6 digits, moved and turned."""
    k = draw(st.integers(min_size, max_size))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    angles = np.cumsum(gaps) * (2 * math.pi) / np.sum(gaps) + draw(st.floats(0.0, 2 * math.pi))
    a, b, turn = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)), draw(st.floats(0.0, math.pi))
    shift = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return np.round(np.column_stack([a * np.cos(angles), b * np.sin(angles)]) @ rot.T + shift, 6)


# ---------------------------------------------------------------------------
# orthogonality graph: closed form against the linear program
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons())
def test_property_polygon_graph_matches_lp(verts):
    space = polytope(verts)
    np.testing.assert_array_equal(geo._orthogonality_graph(space), lp_graph(space))


@pytest.mark.parametrize("space", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_square_and_triangle_graphs_match_lp(space):
    graph = geo._orthogonality_graph(space)
    np.testing.assert_array_equal(graph, lp_graph(space))
    assert np.all(graph[~np.eye(len(space.vertices), dtype=bool)])


@pytest.mark.parametrize("k", range(3, 41))
def test_regular_polygon_graph_matches_lp(k):
    # the graph of a regular polygon is circulant, so the pairs (0, m) carry every verdict
    space = polytope(regular_polygon(k))
    graph = geo._orthogonality_graph(space)
    i, j = np.indices((k, k))
    np.testing.assert_array_equal(graph, graph[0][(j - i) % k])
    assert [bool(graph[0, m]) for m in range(1, k // 2 + 1)] == [
        lp_orthogonal(space, 0, m) for m in range(1, k // 2 + 1)]


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-9, -1e-4, -1e-6, -1e-9])
@pytest.mark.parametrize("k", [6, 8])
def test_near_parallel_edges_match_lp(k, eps):
    # opposite edges of an even regular polygon are parallel, and the witness interval of
    # some pairs is a single point; moving one vertex by eps closes it or opens it slightly
    space = polytope(regular_polygon(k, scale=1.0 + eps))
    np.testing.assert_array_equal(geo._orthogonality_graph(space), lp_graph(space))


@PROPERTIES
@given(verts=convex_polygons())
def test_property_polygon_orthogonality_symmetric(verts):
    space = polytope(verts)
    i, j = np.triu_indices(len(verts), 1)
    geometry = geo._polytope_geometry(space)
    np.testing.assert_array_equal(geo._polygon_orthogonal(geometry, i, j), geo._polygon_orthogonal(geometry, j, i))
    pairs = [(int(a), int(b)) for a, b in zip(i, j)][:3]
    assert [lp_orthogonal(space, a, b) for a, b in pairs] == [lp_orthogonal(space, b, a) for a, b in pairs]


def test_polygon_graph_calls_no_scipy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy called for a polygon")

    monkeypatch.setattr(geo, "linprog", refuse)
    monkeypatch.setattr(geo, "ConvexHull", refuse)
    space = polytope(regular_polygon(7) * 1.25)  # not built elsewhere, so no cache holds it
    assert geo._orthogonality_graph(space).any()
    assert is_spectral(space, samples=5, seed=1).spectral is False


# ---------------------------------------------------------------------------
# facets: monotone chain against qhull
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons())
def test_property_chain_facets_match_qhull(verts):
    np.testing.assert_array_equal(chain_facets(polytope(verts)), qhull_facets(verts))


@pytest.mark.parametrize("verts", [SQUARE.vertices, TRIANGLE.vertices, *map(regular_polygon, (5, 12, 40))],
                         ids=["square", "triangle", "pentagon", "12-gon", "40-gon"])
def test_chain_facets_match_qhull(verts):
    np.testing.assert_array_equal(chain_facets(polytope(verts)), qhull_facets(verts))


def qhull_accepts(verts) -> bool:
    """Whether the qhull path of the parent code accepted the vertex list."""
    try:
        return len(ConvexHull(np.asarray(verts, dtype=float)).vertices) == len(verts)
    except QhullError:
        return False


def chain_accepts(verts) -> bool:
    try:
        polytope(verts)
    except ValueError:
        return False
    return True


REJECTED_POLYGONS = {
    "duplicate": [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)],
    "collinear": [(0, 0), (1, 1), (2, 2)],
    "collinear4": [(0, 0), (1, 0), (2, 0), (3, 0)],
    "all equal": [(1, 2), (1, 2), (1, 2)],
    "interior": [(0, 0), (1, 0), (0, 1), (0.25, 0.25)],
    "edge midpoint": [(0, 0), (2, 0), (0, 2), (1, 0)],
    "square edge midpoint": [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 1)],
}


@pytest.mark.parametrize("name", sorted(REJECTED_POLYGONS))
def test_chain_and_qhull_reject_the_same_lists(name):
    verts = REJECTED_POLYGONS[name]
    assert chain_accepts(verts) is qhull_accepts(verts) is False


@PROPERTIES
@given(data=st.data())
def test_property_chain_and_qhull_agree_on_extra_points(data):
    # integer vertices keep edge midpoints exactly on their edge
    verts = np.round(data.draw(convex_polygons()) * 4.0)
    if not chain_accepts(verts):  # rounding can make a vertex repeated or collinear
        assert not qhull_accepts(verts)
        return
    k = len(verts)
    w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    i = data.draw(st.integers(0, k - 1))
    for extra in (verts[i], w @ verts / np.sum(w), (verts[i] + verts[i - 1]) / 2.0):
        with_extra = np.vstack([verts, extra])
        assert chain_accepts(with_extra) is qhull_accepts(with_extra) is False


# ---------------------------------------------------------------------------
# scipy is imported only where a polytope needs it
# ---------------------------------------------------------------------------

LAZY_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
def loaded():
    return [name in sys.modules for name in ("scipy.optimize", "scipy.spatial")]
import spectral_cone
from spectral_cone import cli, geometries
steps, hulls = [loaded()], []
qhull = geometries.ConvexHull
geometries.ConvexHull = lambda points: hulls.append(1) or qhull(points)
with redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert cli.main(argv) in (0, 2), argv
        steps.append(loaded())
print(json.dumps({"steps": steps, "hulls": len(hulls)}))
"""
PENTAGON = json.dumps({"kind": "polytope", "vertices": regular_polygon(5).tolist()})
CUBE = json.dumps({"kind": "polytope", "vertices": [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]})


def loaded_after(*argvs) -> dict:
    """[scipy.optimize loaded, scipy.spatial loaded] after the import and after each command,
    in a fresh interpreter, and the number of qhull calls."""
    out = subprocess.run([sys.executable, "-c", LAZY_SCRIPT, json.dumps(argvs)], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


def test_scipy_loaded_only_for_polytopes():
    run = loaded_after(["check", "concavity", "--algebra", "complex3", "--trials", "3", "--seed", "1"],
                       ["decompose", "--space", "simplex3", "--element", "[0.2, 0.3, 0.5]"],
                       ["check", "spectrality", "--space", "square", "--trials", "5", "--seed", "1"],
                       ["decompose", "--space", PENTAGON, "--element", "[0.1, 0.2]"])
    # after the import and the first three commands, neither is loaded
    assert run["steps"][:4] == [[False, False]] * 4
    # the witnesses a polygon decompose prints are HiGHS solutions; scipy.optimize imports
    # scipy.spatial itself, so that qhull is not used shows in its call count instead
    assert run["steps"][4][0] is True and run["hulls"] == 0
    cube = loaded_after(["decompose", "--space", CUBE, "--element", "[0.2, 0.7, 0.4]"])
    assert cube == {"steps": [[False, False], [True, True]], "hulls": 1}
