"""Polygons against their scipy oracles, and no scipy on any polygon path.

A polygon's orthogonality graph and its witnesses come from one closed-form
interval test, and its facets from a monotone chain.  The oracles are the
ones they replace: the HiGHS witness program (``_affine_test_feasible`` on
the vertices of the pair's smallest face, which 3-D polytopes still solve)
for the graph and the witnesses, and ``scipy.spatial.ConvexHull`` for the
facets.
"""

import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

import spectral_cone as sc
from spectral_cone import cli, geometries as geo
from spectral_cone.spectral import is_spectral
from spectral_cone.tolerances import FACET_DIGITS, MEMBERSHIP_TOL, SAME_STATE_TOL, WITNESS_FEASIBILITY_TOL

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


def face_vertices(space: geo.Polytope, p0, p1, whole=False) -> np.ndarray:
    """The vertices of the smallest face of the pair, or every vertex when whole."""
    face = None if whole else geo._face_vertices(space, np.mean([p0, p1], axis=0))
    return space.vertex_array if face is None else space.vertex_array[list(face)]


def lp_witness(space: geo.Polytope, p0, p1, whole=False):
    """The HiGHS witness program on the pair's face: what ``orthogonality_witness``
    (``mutually_singular`` when whole) solved on polygons before the closed form."""
    return geo._affine_test_feasible(face_vertices(space, p0, p1, whole), np.asarray(p0), np.asarray(p1))


def lp_orthogonal(space: geo.Polytope, i: int, j: int) -> bool:
    """The verdict of the HiGHS witness program on the smallest face of the vertex pair."""
    return lp_witness(space, space.vertex_array[i], space.vertex_array[j]) is not None


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
    points = geometry.vertex_array
    np.testing.assert_array_equal(geo._polygon_orthogonal(geometry, points[i], points[j])[0],
                                  geo._polygon_orthogonal(geometry, points[j], points[i])[0])
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
    dec = geo.decompose(space, sc.ConeElement(space, 1.0, [0.1, 0.2]), with_witnesses=True)
    assert dec.size >= 2 and all(w is not None for w in dec.witnesses)
    s0, s3, inside = space.vertex_state(0), space.vertex_state(3), sc.State(space, [0.05, -0.1])
    assert geo.orthogonality_witness(s3, s0) is not None and geo.orthogonal(s0, s3)
    assert geo.mutually_singular(s0, s3)[0] and not geo.mutually_singular(s0, inside)[0]


# ---------------------------------------------------------------------------
# witnesses: closed form against the linear program
# ---------------------------------------------------------------------------

def polygon_point(data, verts) -> np.ndarray:
    """A vertex, a point inside an edge or, less often, an interior point of the polygon."""
    k, i = len(verts), data.draw(st.integers(0, len(verts) - 1))
    kind = data.draw(st.sampled_from(["vertex", "vertex", "edge", "edge", "interior"]))
    if kind == "vertex":
        return verts[i].copy()
    if kind == "edge":  # the points of convex_polygons run round the boundary, so i - 1 and i are adjacent
        w = data.draw(st.floats(0.05, 0.95))
        return (1.0 - w) * verts[i - 1] + w * verts[i]
    w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    return w @ verts / np.sum(w)


def assert_valid_witness(space: geo.Polytope, w, p0, p1, whole: bool, clear: bool):
    """f(p0) = 0 and f(p1) = 1 up to rounding, and f in [0, 1] on the face of the pair: within
    WITNESS_FEASIBILITY_TOL, and where the verdict is clear within is_test's tolerance (is_test
    itself on the whole polygon)."""
    scale = 1.0 + np.max(np.abs(w.linear)) * max(np.max(np.abs(p0)), np.max(np.abs(p1)))
    assert abs(w.value_at_coords(p0)) <= 1e-12 * scale
    assert abs(w.value_at_coords(p1) - 1.0) <= 1e-12 * scale
    values = face_vertices(space, p0, p1, whole) @ w.linear + w.offset
    slack = MEMBERSHIP_TOL if clear else WITNESS_FEASIBILITY_TOL
    assert np.all(values >= -slack) and np.all(values <= 1.0 + slack)
    if clear and (whole or len(values) == len(space.vertices)):
        assert sc.is_test(w, space)


def verdict_at(space: geo.Polytope, p0, p1, whole: bool, tol: float) -> bool:
    """The closed-form verdict with the slack WITNESS_FEASIBILITY_TOL replaced by tol."""
    with mock.patch.object(geo, "WITNESS_FEASIBILITY_TOL", tol):
        return bool(geo._polygon_orthogonal(geo._polytope_geometry(space), p0[None], p1[None], whole)[0][0])


@settings(PROPERTIES, max_examples=60)
@given(data=st.data())
def test_property_polygon_witness_matches_lp(data):
    # HiGHS and the closed form apply their 1e-7 slack differently (HiGHS to scaled rows), so near
    # parallel edges they can differ on a pair that is feasible only within the slack.  Such a pair
    # changes verdict between slacks of 1e-10 and 1e-6; on every other pair the verdicts must agree.
    verts = data.draw(convex_polygons())
    pairs = [(polygon_point(data, verts), polygon_point(data, verts)) for _ in range(3)]
    if data.draw(st.booleans()):  # one more pair, of two vertices with the first at the origin: zero coordinates
        i, j = data.draw(st.integers(0, len(verts) - 1)), data.draw(st.integers(0, len(verts) - 1))
        origin = verts[i].copy()
        verts, pairs = verts - origin, [(p0 - origin, p1 - origin) for p0, p1 in [(verts[i], verts[j]), *pairs]]
    space = polytope(verts)
    for p0, p1 in pairs:
        # each 0.0 coordinate is drawn as 0.0 or -0.0
        p0, p1 = (np.where(p == 0.0, data.draw(st.sampled_from([0.0, -0.0])), p) for p in (p0, p1))
        if np.max(np.abs(p0 - p1)) <= SAME_STATE_TOL:
            continue
        s0, s1 = sc.State(space, p0), sc.State(space, p1)
        for whole, witness, swapped in ((False, geo.orthogonality_witness(s0, s1), geo.orthogonality_witness(s1, s0)),
                                        (True, geo.mutually_singular(s0, s1)[1], geo.mutually_singular(s1, s0)[1])):
            clear = verdict_at(space, p0, p1, whole, 1e-10) is verdict_at(space, p0, p1, whole, 1e-6)
            if clear:
                assert (witness is None) is (lp_witness(space, p0, p1, whole) is None)
            assert (swapped is None) is (witness is None)
            if witness is not None:
                assert_valid_witness(space, witness, p0, p1, whole, clear)
                assert_valid_witness(space, swapped, p1, p0, whole, clear)


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


# the first three vertices are collinear in decimal, but their float cross product is slightly positive
DECIMAL_COLLINEAR_11GON = [[4.73, 3.33], [4.83, 3.23], [4.84, 3.22], [5.08, 3.21], [5.22, 3.35], [5.22, 3.59],
                           [4.97, 3.78], [4.93, 3.78], [4.87, 3.77], [4.69, 3.56], [4.69, 3.53]]


def test_decimal_collinear_vertex_is_not_extreme(capsys):
    assert len(ConvexHull(np.array(DECIMAL_COLLINEAR_11GON)).vertices) == 10
    space = json.dumps({"kind": "polytope", "vertices": DECIMAL_COLLINEAR_11GON})
    code = cli.main(["decompose", "--space", space, "--element", "[5.0, 3.5]"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: vertex list contains non-extreme points\n")


@st.composite
def decimal_polygons(draw):
    """convex_polygons rounded to 1 to 8 decimals; in half of them a point is added on an edge, in decimal.

    Every point is the float nearest a decimal, as a user writes it: the vertices have d decimals and the
    added point, a decimal fraction t of the way along an edge, d + 1.
    """
    d = draw(st.integers(1, 8))
    ints = np.round(draw(convex_polygons()) * 10 ** d).astype(int).tolist()
    points = [[x / 10 ** d for x in p] for p in ints]
    if draw(st.booleans()):
        i, t = draw(st.integers(0, len(ints) - 1)), draw(st.integers(1, 9))
        p, q = ints[i], ints[i - 1]
        points.append([((10 - t) * a + t * b) / 10 ** (d + 1) for a, b in zip(p, q)])
    return np.array(points)


def hull_count(hull, verts):
    """The extreme-point count of a hull routine, or None where it finds the points flat."""
    try:
        return hull(verts)
    except (ValueError, QhullError):
        return None


@settings(PROPERTIES, max_examples=100)
@given(verts=decimal_polygons())
def test_property_chain_and_qhull_agree_on_decimal_vertices(verts):
    # beside the integer vertices above: the turn test must see through the rounding of decimal inputs
    assert hull_count(lambda v: geo._polygon_hull(v)[0], verts) == hull_count(
        lambda v: len(ConvexHull(v).vertices), verts)


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
    # after the import and every command, the polygon decompose with its witnesses included, neither is loaded
    assert run == {"steps": [[False, False]] * 5, "hulls": 0}
    cube = loaded_after(["decompose", "--space", CUBE, "--element", "[0.2, 0.7, 0.4]"])
    assert cube == {"steps": [[False, False], [True, True]], "hulls": 1}
