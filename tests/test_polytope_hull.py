"""Polytopes in 3 or more dimensions against their scipy oracles.

Their facets come from the hyperplanes of the vertex m-subsets
(``_subset_facets``) and their witnesses from a phase-1 simplex under Bland's
rule (``_affine_test_feasible``).  The oracles are the solvers they replace:
``scipy.spatial.ConvexHull`` for the facets and the extreme points, and the
HiGHS witness program (``highs_witness``) for every orthogonality and
mutual-singularity verdict.  The facet, face and witness oracles run on the
vertices and points in the polytope record's frame, where the kernels work.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError
from test_polygons import (FACET_DIGITS, PROPERTIES, convex_polygons, highs_witness, polytope, record_facets,
                           reference_face, vertex_state)

from spectral_cone import cli, geometries as geo
from spectral_cone.tolerances import WITNESS_FEASIBILITY_TOL

CUBE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
OCTAHEDRON = [tuple(s * e) for s in (1, -1) for e in np.eye(3)]
TETRAHEDRON = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
PRISM = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
FACET_MATCH = 2e-12  # one unit in the 12th decimal either way, as FACET_DIGITS rounding leaves it


@st.composite
def point_lists(draw):
    """4 to 11 points in 3 to 5 dimensions: on a sphere (all extreme) or Gaussian (some inside), often
    rounded to 1 to 8 decimals, with a duplicate or a midpoint of two points added to some."""
    m = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((draw(st.integers(m + 1, m + 6)), m))
    if draw(st.booleans()):
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    if draw(st.booleans()):
        points = np.round(points, draw(st.integers(1, 8)))
    extra = draw(st.sampled_from(["none", "none", "duplicate", "midpoint"]))
    if extra == "duplicate":
        points = np.vstack([points, points[-1]])
    elif extra == "midpoint":
        points = np.vstack([points, (points[0] + points[1]) / 2.0])
    return points


def qhull(points):
    """(extreme point count, facet equations rounded to FACET_DIGITS) of qhull, or None for a flat list."""
    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return len(hull.vertices), np.unique(np.round(hull.equations, FACET_DIGITS), axis=0)


def assert_same_facets(ours, theirs):
    """Every facet of one list is within FACET_MATCH of a facet of the other; qhull lists one per
    simplex of its triangulation, so two of its rows may round one unit apart."""
    gaps = np.max(np.abs(ours[:, None, :] - theirs[None, :, :]), axis=-1)
    assert np.all(np.min(gaps, axis=1) <= FACET_MATCH) and np.all(np.min(gaps, axis=0) <= FACET_MATCH)


# ---------------------------------------------------------------------------
# facets: vertex subsets against qhull
# ---------------------------------------------------------------------------

@settings(PROPERTIES, max_examples=60)
@given(points=point_lists())
def test_property_subset_facets_match_qhull(points):
    oracle = qhull(points)
    if oracle is None:
        with pytest.raises(ValueError, match="^vertex list is not full-dimensional$"):
            geo._subset_facets(points)
        return
    n_extreme, equations = geo._subset_facets(points)
    assert n_extreme == oracle[0]
    if n_extreme == len(points):
        record = geo._polytope_geometry(polytope(points))
        assert_same_facets(record_facets(polytope(points)), qhull(record.frame_vertices)[1])


@pytest.mark.parametrize("verts", [CUBE, OCTAHEDRON, TETRAHEDRON, PRISM, np.vstack([np.eye(5), -np.eye(5)])],
                         ids=["cube", "octahedron", "tetrahedron", "prism", "5-cross"])
def test_subset_facets_match_qhull(verts):
    record = geo._polytope_geometry(polytope(verts))
    assert qhull(np.array(verts, dtype=float))[0] == len(verts)
    n_extreme, facets = qhull(record.frame_vertices)
    assert n_extreme == len(verts)
    np.testing.assert_array_equal(record_facets(polytope(verts)), facets)


REFUSED = {
    "coplanar": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], "vertex list is not full-dimensional"),
    "collinear": ([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], "vertex list is not full-dimensional"),
    "duplicate": ([*CUBE, CUBE[5]], "vertex list contains non-extreme points"),
    "face centre": ([*CUBE, (0.5, 0.5, 1.0)], "vertex list contains non-extreme points"),
    "edge midpoint": ([*CUBE, (0.5, 0.0, 0.0)], "vertex list contains non-extreme points"),
    "inside": ([*TETRAHEDRON, (0.1, 0.1, 0.1)], "vertex list contains non-extreme points"),
    "flat in 4-D": ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]],
                    "vertex list is not full-dimensional"),
    "too many subsets": ([[math.cos(i), math.sin(i), (i % 7) / 7] for i in range(98)],
                         "facet search supports at most 450000 vertex subsets times dimension, got 456288 "
                         "(152096 subsets of 98 vertices in 3 dimensions)"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_vertex_lists_exit_1_with_one_line(capsys, name):
    verts, message = REFUSED[name]
    space = json.dumps({"kind": "polytope", "vertices": [list(map(float, v)) for v in verts]})
    code = cli.main(["decompose", "--space", space, "--element", json.dumps([0.2] * len(verts[0]))])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
    if name != "too many subsets":  # qhull agrees on every list it can see
        oracle = qhull(np.array(verts, dtype=float))
        assert oracle is None if "full-dimensional" in message else oracle[0] < len(verts)


def test_facet_search_cost_refused_before_any_svd(capsys, monkeypatch):
    """19 points in 10-D are 92 378 subsets, under the 3-D subset count but 923 780 subset entries:
    refused with one line before the first stacked SVD."""
    def no_svd(*args, **kwargs):
        raise AssertionError("the facet search ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    verts = np.random.default_rng(5).standard_normal((19, 10))
    space = json.dumps({"kind": "polytope", "vertices": verts.tolist()})
    code = cli.main(["decompose", "--space", space, "--element", json.dumps([0.0] * 10)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: facet search supports at most 450000 vertex subsets times dimension, got 923780 "
                            "(92378 subsets of 19 vertices in 10 dimensions)\n")


# ---------------------------------------------------------------------------
# faces: the stacked rule against the facet-by-facet one
# ---------------------------------------------------------------------------

@settings(PROPERTIES, max_examples=40)
@given(verts=st.one_of(convex_polygons(), st.sampled_from([CUBE, PRISM, TETRAHEDRON, OCTAHEDRON])),
       seed=st.integers(0, 2**32 - 1), whole=st.booleans())
def test_property_faces_match_the_facet_rule(verts, seed, whole):
    # vertices, midpoints of every vertex pair (edges, face diagonals, inner diagonals) and Dirichlet points of
    # random vertex subsets, which lie on every kind of face and inside; the faces are found in the record's frame
    space = polytope(verts)
    record, va, rng = geo._polytope_geometry(space), space.vertex_array, np.random.default_rng(seed)
    i, j = np.triu_indices(len(va), 1)
    subsets = rng.random((20, len(va))) < rng.uniform(0.2, 0.9, (20, 1))
    subsets[np.arange(20), rng.integers(len(va), size=20)] = True
    weights = np.where(subsets, rng.exponential(size=subsets.shape), 0.0)
    centers = np.vstack([va, (va[i] + va[j]) / 2.0, weights @ va / np.sum(weights, axis=1, keepdims=True)])
    got = geo._faces(record, record.to_frame(centers), whole)
    assert got.shape == (len(centers), len(va)) and got.dtype == bool
    for mask, center in zip(got, centers):
        face = None if whole else reference_face(space, record.to_frame(center))
        assert mask.tolist() == [face is None or k in face for k in range(len(va))]
        if not whole:  # the Face of one state reads the same rule
            found = space.smallest_face([geo.State(space, center)])
            assert (found.kind, found.vertex_indices) == (
                ("whole", tuple(range(len(va)))) if face is None else ("vertices", face))


# ---------------------------------------------------------------------------
# witnesses: the phase-1 simplex against HiGHS
# ---------------------------------------------------------------------------

def least_violation(verts, p0, p1) -> float:
    d = p1 - p0
    basis = np.linalg.svd(d[None])[2][1:]
    rel = verts - p0
    return geo._least_violation(rel @ basis.T, rel @ d / (d @ d))[1]


def check_pairs(space: geo.Polytope, points) -> int:
    """Compare the verdicts of every ordered pair of points of the record's frame, on their face and on the whole
    polytope, with HiGHS's, and check every witness; returns the number of pairs compared."""
    verts, compared = geo._polytope_geometry(space).frame_vertices, 0
    for p0, p1 in itertools.permutations(points, 2):
        if np.max(np.abs(p0 - p1)) <= 1e-12:
            continue
        for whole in (False, True):
            face = None if whole else reference_face(space, (p0 + p1) / 2.0)
            on_face = verts if face is None else verts[list(face)]
            witness = geo._pair_witness(geo._polytope_geometry(space), p0, p1, whole)
            if not 0.5 <= least_violation(on_face, p0, p1) / WITNESS_FEASIBILITY_TOL <= 2.0:
                assert (witness is None) is (highs_witness(on_face, p0, p1) is None)
                compared += 1
            if witness is not None:
                scale = 1.0 + np.max(np.abs(witness.linear)) * max(np.max(np.abs(p0)), np.max(np.abs(p1)))
                assert abs(witness.value_at_coords(p0)) <= 1e-12 * scale
                assert abs(witness.value_at_coords(p1) - 1.0) <= 1e-12 * scale
                values = on_face @ witness.linear + witness.offset
                assert np.all(values >= -WITNESS_FEASIBILITY_TOL) and np.all(values <= 1.0 + WITNESS_FEASIBILITY_TOL)
    return compared


@pytest.mark.parametrize("verts", [CUBE, OCTAHEDRON, TETRAHEDRON, PRISM], ids=["cube", "octahedron", "tetrahedron",
                                                                            "prism"])
def test_witnesses_match_highs(verts):
    # vertices, two midpoints of vertex 0 and another (so that a vertex can lie on the line of a pair)
    # and two points inside
    space = polytope(verts)
    rng = np.random.default_rng(len(verts))
    va = geo._polytope_geometry(space).frame_vertices
    inside = [w @ va for w in rng.dirichlet(np.full(len(verts), 0.3), 2)]
    assert check_pairs(space, [*va, (va[0] + va[1]) / 2.0, (va[0] + va[-1]) / 2.0, *inside]) > 0


@settings(PROPERTIES, max_examples=8)
@given(points=point_lists())
def test_property_witnesses_match_highs(points):
    if qhull(points) is None or geo._subset_facets(points)[0] < len(points):
        return
    space = polytope(points)
    rng = np.random.default_rng(len(points))
    va = geo._polytope_geometry(space).frame_vertices
    check_pairs(space, [*va[:5], rng.dirichlet(np.full(len(points), 0.3)) @ va])


@pytest.mark.parametrize("gap", [2e-8, 1.8e-7, 2.2e-7, 2e-6])
def test_witness_exists_while_the_least_violation_is_within_the_tolerance(gap):
    # f = 0 at p0 and 1 at p1 gives f(v1) = y and f(v2) = 1 + gap + y for one free parameter y, so the
    # least violation is gap / 2, at y = -gap / 2; HiGHS agrees outside [0.5, 2] times the tolerance
    p0, p1 = np.zeros(3), np.array([1.0, 0.0, 0.0])
    verts = np.array([p0, p1, [0.0, 1.0, 0.0], [1.0 + gap, 1.0, 0.0]])
    assert least_violation(verts, p0, p1) == pytest.approx(gap / 2.0, rel=1e-6)
    witness = geo._affine_test_feasible(verts, p0, p1)
    assert (witness is None) is (gap / 2.0 > WITNESS_FEASIBILITY_TOL)
    if not 0.5 <= gap / 2.0 / WITNESS_FEASIBILITY_TOL <= 2.0:
        assert (highs_witness(verts, p0, p1) is None) is (witness is None)


def test_segment_witness_is_the_coordinate():
    segment = geo.Polytope(((2.0,), (4.0,)))
    w = geo.orthogonality_witness(vertex_state(segment, 0), vertex_state(segment, 1))
    assert w.value_at_coords(np.array([2.0])) == 0.0 and w.value_at_coords(np.array([4.0])) == 1.0
    inner = geo.State(segment, [3.0])
    assert not geo.mutually_singular(vertex_state(segment, 0), inner)[0]
