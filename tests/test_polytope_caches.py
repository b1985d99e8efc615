"""Polytope caches: the one polytope record cache, the vertex-pair witnesses it keeps, and the clique enumeration.

Everything derived from a polytope's vertices (facets, vertex states, a
polygon's vertex-pair tests, orthogonality graph, clique systems, the
witnesses of vertex pairs) lives in one record per polytope, cached by
``_polytope_geometry`` and evicted as a unit.  ``decompose`` prints one
witness per ordered component pair (in closed form on polygons, read from
the record's table of every ordered vertex pair; from the phase-1 simplex on
the cube), and the record keeps each as it is found, once per ordered vertex
pair (``_PolytopeGeometry.witness``); a pair of other points is solved on
every call.  The clique enumeration (by level: each clique extended by every
later vertex adjacent to all its members) is checked against the walk over
all vertex subsets, kept here as the oracle.
"""

import dataclasses
import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_polygons import PROPERTIES, SQUARE, convex_polygons, polytope, regular_polygon, vertex_state

import spectral_cone as sc
from spectral_cone import cli
from spectral_cone import geometries as geo

CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
PENTAGON = polytope(regular_polygon(5))
DODECAGON = polytope(regular_polygon(12))
DERIVED = {"vertex_states", "vertex_pairs", "graph", "clique_systems"}  # the record's attributes built on first use


def subset_walk(adj: np.ndarray) -> list:
    """Every pairwise-adjacent vertex subset, by size and then lexicographically, from all 2^n subsets."""
    nv = len(adj)
    return [idx for size in range(1, nv + 1) for idx in itertools.combinations(range(nv), size)
            if all(adj[a, b] for a, b in itertools.combinations(idx, 2))]


def flat_cliques(adj: np.ndarray) -> list:
    """The per-size arrays of ``_cliques`` as one list of index tuples; each array holds one size."""
    levels = geo._cliques(adj)
    assert [level.shape[1] for level in levels] == list(range(1, len(levels) + 1))
    return [tuple(i) for level in levels for i in level.tolist()]


def clique_order(space: geo.Polytope) -> list:
    """Every clique of the cached systems in clique order; each of the two parts must already be in it."""
    determined, underdetermined = geo._polytope_geometry(space).clique_systems
    determined = [tuple(i) for idx, _, _ in determined for i in idx.tolist()]
    for part in (determined, list(underdetermined)):
        assert part == sorted(part, key=lambda idx: (len(idx), idx))
    return sorted(determined + list(underdetermined), key=lambda idx: (len(idx), idx))


# ---------------------------------------------------------------------------
# clique enumeration: by level against the subset walk
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons())
def test_property_polygon_cliques_match_walk(verts):
    space = polytope(verts)
    assert clique_order(space) == subset_walk(geo._polytope_geometry(space).graph)


@pytest.mark.parametrize("space", [SQUARE, CUBE, *(polytope(regular_polygon(k)) for k in range(3, 13))],
                         ids=["square", "cube", *(f"{k}-gon" for k in range(3, 13))])
def test_cliques_match_walk(space):
    assert clique_order(space) == subset_walk(geo._polytope_geometry(space).graph)


@PROPERTIES
@given(data=st.data())
def test_property_graph_cliques_match_walk(data):
    # any graph, not only orthogonality graphs: dense ones have large cliques
    nv = data.draw(st.integers(1, 10))
    upper = data.draw(st.lists(st.booleans(), min_size=nv * (nv - 1) // 2, max_size=nv * (nv - 1) // 2))
    adj = np.zeros((nv, nv), dtype=bool)
    i, j = np.triu_indices(nv, 1)
    adj[i, j] = adj[j, i] = upper
    assert flat_cliques(adj) == subset_walk(adj)


# ---------------------------------------------------------------------------
# one record cache per polytope, holding its vertex-pair witnesses
# ---------------------------------------------------------------------------

def test_polytope_caches_share_one_bound():
    # the record cache is the one cache of the module; the witnesses live in the records
    assert [name for name in dir(geo) if hasattr(getattr(geo, name), "cache_info")] == ["_polytope_geometry"]
    assert geo._polytope_geometry.cache_info().maxsize == geo.POLYTOPE_CACHE_SIZE


def test_polytope_caches_stay_within_bound():
    first = polytope(regular_polygon(5, scale=1.45))  # not built elsewhere
    geo.decompose(first, sc.ConeElement(first, 1.0, [0.1, 0.2]), with_witnesses=True)
    record = geo._polytope_geometry(first)
    assert record.vertex_states  # decompose reads the vertex array, not the vertex states: build them here
    assert DERIVED <= set(vars(record)) and record.space is first
    record = weakref.ref(record)
    for k in range(geo.POLYTOPE_CACHE_SIZE + 10):
        space = polytope(regular_polygon(5, scale=1.5 + k / 1000))  # not built elsewhere
        geo.decompose(space, sc.ConeElement(space, 1.0, [0.1, 0.2]), with_witnesses=True)
    # the cache took more polygons than it holds, so it is full and no fuller
    assert geo._polytope_geometry.cache_info().currsize == geo.POLYTOPE_CACHE_SIZE
    # the first record went as a unit, although the polytope lives on in this test
    assert record() is None
    misses = geo._polytope_geometry.cache_info().misses
    rebuilt = geo._polytope_geometry(polytope(regular_polygon(5, scale=1.45)))
    assert geo._polytope_geometry.cache_info().misses == misses + 1 and not DERIVED & set(vars(rebuilt))
    assert geo._polytope_geometry(first) is rebuilt


@pytest.mark.parametrize("verts", [regular_polygon(6, scale=1.45), [(0, 0, 0), (1, 0, 0), (0, 1.45, 0), (0, 0, 1)]],
                         ids=["hexagon", "tetrahedron"])
def test_evicted_record_frees_its_witnesses(verts):
    space = polytope(verts)  # not built elsewhere
    witnesses = geo.decompose(space, sc.ConeElement(space, 1.0, np.mean(space.vertex_array, axis=0) * 0.9),
                              with_witnesses=True).witnesses
    record = geo._polytope_geometry(space)
    assert witnesses and all(w is not None for w in witnesses)
    assert all(any(w is kept for kept in record.witnesses.values()) for w in witnesses)
    assert 0 < len(record.witnesses) <= len(verts) * (len(verts) - 1)
    refs = [weakref.ref(w) for w in witnesses]
    del witnesses, record
    for k in range(geo.POLYTOPE_CACHE_SIZE):
        other = polytope(regular_polygon(5, scale=1.6 + k / 1000))  # not built elsewhere
        geo.decompose(other, sc.ConeElement(other, 1.0, [0.1, 0.2]))
    # the polytope lives on in this test; its record, and with it every witness, went
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# the witnesses a record keeps
# ---------------------------------------------------------------------------

@pytest.fixture
def program_calls(monkeypatch):
    """The witness programs solved (``_affine_test_feasible`` calls) while the test runs."""
    calls = []
    solve = geo._affine_test_feasible

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geo, "_affine_test_feasible", counted)
    return calls


def ordered_pairs(dec) -> list:
    return [(a.coords.tobytes(), b.coords.tobytes()) for a, b in itertools.combinations(dec.components, 2)]


@pytest.mark.parametrize("space, coords", [(SQUARE, [0.2, 0.3]), (CUBE, [0.2, 0.5, 0.7]),
                                           (DODECAGON, [0.1, 0.2])], ids=["square", "cube", "12-gon"])
def test_second_decompose_solves_no_program(space, coords, program_calls):
    first = geo.decompose(space, sc.ConeElement(space, 1.0, coords), with_witnesses=True)
    # the same components with weights spread further apart: a new element, the same pairs
    weights = first.weights * np.linspace(1.0, 0.9, first.size)
    other = sc.ConeElement(space, 2.0, weights @ np.array([c.coords for c in first.components]) / np.sum(weights))
    program_calls.clear()
    second = geo.decompose(space, other, with_witnesses=True)
    assert ordered_pairs(second) == ordered_pairs(first)
    assert not np.array_equal(second.weights / second.weights.sum(), first.weights / first.weights.sum())
    assert program_calls == []
    assert all(a is b for a, b in zip(second.witnesses, first.witnesses, strict=True))


def vertex_pairs(space: geo.Polytope) -> list:
    adj = geo._polytope_geometry(space).graph
    return [(i, j) for i, j in itertools.permutations(range(len(space.vertices)), 2) if adj[i, j]]


def witness(space: geo.Polytope, i: int, j: int):
    return geo.orthogonality_witness(vertex_state(space, i), vertex_state(space, j))


@pytest.mark.parametrize("space", [SQUARE, CUBE, PENTAGON], ids=["square", "cube", "pentagon"])
def test_kept_witnesses_equal_cold_solves(space):
    pairs = vertex_pairs(space)
    assert pairs
    kept = [witness(space, i, j) for i, j in pairs]
    assert all(witness(space, i, j) is w for (i, j), w in zip(pairs, kept))  # second call: the kept witness
    record = geo._polytope_geometry(space)
    assert all(record.witnesses[i, j] is w for (i, j), w in zip(pairs, kept))
    va = space.vertex_array
    cold = [geo._PolytopeGeometry(space).witness(va[i], va[j]) for i, j in pairs]  # a fresh record each
    for w, c in zip(kept, cold):
        assert w.linear.tobytes() == c.linear.tobytes()
        assert np.float64(w.offset).tobytes() == np.float64(c.offset).tobytes()


def test_swapped_pair_is_its_own_program(program_calls):
    # the cube, whose witnesses are phase-1 programs; 0 and 3 are a diagonal of the face x = 0
    record = geo._PolytopeGeometry(CUBE)  # a fresh record: no witness kept
    forward = record.witness(record.vertex_array[0], record.vertex_array[3])
    backward = record.witness(record.vertex_array[3], record.vertex_array[0])
    assert len(program_calls) == 2
    assert list(record.witnesses) == [(0, 3), (3, 0)]
    cold = geo._PolytopeGeometry(CUBE).witness(record.vertex_array[3], record.vertex_array[0])
    assert backward.linear.tobytes() == cold.linear.tobytes() and backward.offset == cold.offset
    # the swapped witness maps vertex 3 to 0 and vertex 0 to 1, as 1 - forward would
    s0, s3 = vertex_state(CUBE, 0), vertex_state(CUBE, 3)
    assert (forward(s0), forward(s3), backward(s3), backward(s0)) == pytest.approx((0.0, 1.0, 0.0, 1.0))


def test_negative_zero_is_its_own_key(program_calls):
    plus = sc.State(CUBE, [0.0, 0.0, 0.0])
    minus = sc.State(CUBE, [-0.0, 0.0, 0.0])
    far = vertex_state(CUBE, 7)
    geo.orthogonality_witness(plus, far)
    program_calls.clear()
    geo.orthogonality_witness(minus, far)
    assert len(program_calls) == 1


@pytest.fixture
def pair_test_calls(monkeypatch):
    """The polygon interval tests run (``_polygon_orthogonal`` calls) while the test runs."""
    calls = []
    test = geo._polygon_orthogonal

    def counted(*args, **kwargs):
        calls.append(1)
        return test(*args, **kwargs)

    monkeypatch.setattr(geo, "_polygon_orthogonal", counted)
    return calls


def test_cube_stream_solves_fewer_programs_than_it_decomposes(program_calls):
    # a cube no other test builds: its graph and every witness are solved within the stream
    space = polytope([(a, b, c) for a in (0, 1.75) for b in (0, 1.75) for c in (0, 1.75)])
    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(8), size=100) @ space.vertex_array
    for trace, point in zip(rng.uniform(0.1, 3.0, size=len(points)), points):
        geo.decompose(space, sc.ConeElement(space, trace, point), with_witnesses=True)
    assert 0 < len(program_calls) < len(points)


# ---------------------------------------------------------------------------
# one interval-test call per polygon: the vertex-pair table
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons())
def test_property_vertex_pairs_match_single_pair_tests(verts):
    space = polytope(verts)
    record = geo._polytope_geometry(space)
    found, t = record.vertex_pairs
    va, fa = record.vertex_array, record.frame_vertices  # keyed by the user's coordinates, tested in the frame
    assert found.shape == t.shape == (len(va), len(va))
    assert record.vertex_index == {v.tobytes(): i for i, v in enumerate(va)}
    for i, j in itertools.product(range(len(va)), repeat=2):
        one_found, one_t = geo._polygon_orthogonal(record, fa[i][None], fa[j][None])
        assert found[i, j] == one_found[0] and t[i, j].tobytes() == one_t[0].tobytes()
        witness = record.witness(va[i], va[j])
        assert (witness is not None) == one_found[0]
        if witness is not None:  # the pair's own entry: t of (j, i) may differ in the last bit
            d = fa[j] - fa[i]
            linear = d / (d @ d) + one_t[0] * np.array([-d[1], d[0]])  # of the frame, times 2**-exponent outside
            assert witness.linear.tobytes() == np.ldexp(linear, -record.exponent).tobytes()


def test_cold_polygon_decompose_tests_its_pairs_once(pair_test_calls):
    space = polytope(regular_polygon(9, scale=1.37))  # not built elsewhere
    assert pair_test_calls == []  # building the record finds the facets only
    x = sc.ConeElement(space, 1.0, [0.1, 0.2])
    first = geo.decompose(space, x, with_witnesses=True)
    assert first.size > 1 and all(w is not None for w in first.witnesses)
    assert len(pair_test_calls) == 1
    pair_test_calls.clear()
    again = geo.decompose(space, x, with_witnesses=True)
    assert pair_test_calls == []
    assert all(a is b for a, b in zip(again.witnesses, first.witnesses, strict=True))


# ---------------------------------------------------------------------------
# the cached hash
# ---------------------------------------------------------------------------

def test_equal_vertex_tuples_hash_and_compare_equal():
    verts = regular_polygon(7, scale=1.25)
    a, b = polytope(verts), geo.Polytope([list(v) for v in verts])  # numpy floats, lists
    assert a is not b and a == b and hash(a) == hash(b) == hash(a.vertices)
    assert polytope(regular_polygon(7, scale=1.5)) != a
    assert "_hash" not in repr(a) and [f.name for f in dataclasses.fields(a)] == ["vertices"]


def test_reparsed_polytope_hits_clique_systems():
    text = json.dumps({"kind": "polytope", "vertices": [[0, 0], [2, 0.5], [2.5, 2], [0.3, 1.6]]})
    first = cli.parse_space(text)
    systems = geo._polytope_geometry(first).clique_systems
    info = geo._polytope_geometry.cache_info()
    again = cli.parse_space(text)
    after = geo._polytope_geometry.cache_info()
    assert again is not first and (after.hits, after.misses) == (info.hits + 1, info.misses)
    assert geo._polytope_geometry(again) is geo._polytope_geometry(first)
    assert geo._polytope_geometry(again).clique_systems is systems
