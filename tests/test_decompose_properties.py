"""Generated properties of decompositions and orthogonality on every geometry.

``decompose`` must rebuild its element within RECONSTRUCTION_TOL * max(1,
trace) from at most dim + 1 components, on simplices, polygons, the cube,
balls, spin factors and density matrices, at interior and boundary points.
Orthogonality must be symmetric on simplices, balls and density matrices,
and its witness must be a test that maps the first state to 0 and the
second to 1.  The checks recompute what they assert from the returned
components, so they do not lean on the checks inside ``decompose``.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_geometries import DENSITY_IDS, DENSITY_SPACES, PROPERTIES, pure_states
from test_polygons import SQUARE, convex_polygons, polytope, vertex_state

import spectral_cone as sc
from spectral_cone import cli, geometries as geo
from spectral_cone.tolerances import RECONSTRUCTION_TOL, SINGULARITY_TOL, WEIGHT_DROP_TOL

CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
VECTOR_SPACES = [geo.Simplex(1), geo.Simplex(2), geo.Simplex(3), geo.Simplex(5), SQUARE, CUBE,
                 geo.Ball(1), geo.Ball(2), geo.Ball(3), geo.SpinFactor(2), geo.SpinFactor(4)]
VECTOR_IDS = ["simplex1", "simplex2", "simplex3", "simplex5", "square", "cube",
              "ball1", "ball2", "ball3", "spin2", "spin4"]
WEIGHTS = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def elements(draw, space):
    """A trace in [0.1, 3] times a mixture of 1 to dim + 1 pure states, some of them weighted 0.

    A single pure state, fewer pure states than the rank, or (on a polytope) two vertices next
    to each other in the vertex list give points on the boundary.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if isinstance(space, geo.Polytope) and draw(st.booleans()):
        i = draw(st.integers(0, len(space.vertices) - 1))
        pure = [vertex_state(space, i), vertex_state(space, (i + 1) % len(space.vertices))]
    else:
        pure = pure_states(space, rng, draw(st.integers(1, space.dim + 1)))
    weights = np.array(draw(st.lists(WEIGHTS, min_size=len(pure), max_size=len(pure))))
    assume(np.sum(weights) > 0)
    coords = weights / np.sum(weights) @ np.array([s.coords for s in pure])
    return sc.ConeElement(space, draw(st.floats(0.1, 3.0)), coords)


def assert_reconstructs(space, x):
    dec = geo.decompose(space, x)
    assert 1 <= dec.size <= space.dim + 1
    assert np.all(dec.weights > 0)
    # decompose builds its components without the membership test: they must pass it all the same
    for c in dec.components:
        assert space.contains_state(c.coords) and not c.coords.flags.writeable
    rebuilt = dec.weights @ np.array([c.coords for c in dec.components])
    assert np.max(np.abs(rebuilt - x.embedded())) <= RECONSTRUCTION_TOL * max(1.0, x.trace_weight)


@pytest.mark.parametrize("space", VECTOR_SPACES + DENSITY_SPACES, ids=VECTOR_IDS + DENSITY_IDS)
@PROPERTIES
@given(data=st.data())
def test_property_decompose_reconstructs_within_the_dimension_bound(space, data):
    assert_reconstructs(space, data.draw(elements(space)))


@PROPERTIES
@given(verts=convex_polygons(), data=st.data())
def test_property_polygon_decompose_reconstructs_within_the_dimension_bound(verts, data):
    space = polytope(verts)
    assert_reconstructs(space, data.draw(elements(space)))


ORTHOGONALITY_SPACES = [geo.Simplex(2), geo.Simplex(3), geo.Simplex(5), geo.Ball(1), geo.Ball(2), geo.Ball(3),
                        *DENSITY_SPACES]
ORTHOGONALITY_IDS = ["simplex2", "simplex3", "simplex5", "ball1", "ball2", "ball3", *DENSITY_IDS]


def orthogonal_both_ways(space, s0, s1) -> bool:
    """Whether s0 and s1 are orthogonal, after checking that the verdict is symmetric and each witness a test."""
    forward, backward = geo.orthogonality_witness(s0, s1), geo.orthogonality_witness(s1, s0)
    assert sc.orthogonal(s0, s1) == sc.orthogonal(s1, s0) == (forward is not None) == (backward is not None)
    for w, zero, one in ((forward, s0, s1), (backward, s1, s0)):
        if w is not None:
            assert sc.is_test(w, space)
            assert abs(w(zero)) <= SINGULARITY_TOL and abs(w(one) - 1.0) <= SINGULARITY_TOL
    return forward is not None


@pytest.mark.parametrize("space", ORTHOGONALITY_SPACES, ids=ORTHOGONALITY_IDS)
@PROPERTIES
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_property_orthogonality_is_symmetric_with_a_test_witness(space, seed, data):
    rng = np.random.default_rng(seed)
    x = space.random_state(rng)
    components = geo.decompose(space, sc.ConeElement(space, 1.0, x.coords)).components
    # mixtures of two disjoint sets of one decomposition's components are orthogonal
    side = np.array(data.draw(st.lists(st.booleans(), min_size=len(components), max_size=len(components))))
    if 0 < np.count_nonzero(side) < len(components):
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(components),
                                              max_size=len(components))))
        coords = np.array([c.coords for c in components])
        s0, s1 = (sc.State(space, weights[part] / np.sum(weights[part]) @ coords[part]) for part in (side, ~side))
        assert orthogonal_both_ways(space, s0, s1)
    # a pure state against random states, mixed and pure, and the state against itself
    pure, other_pure = pure_states(space, rng, 2)
    for other in (x, space.random_state(rng), other_pure, pure):
        orthogonal_both_ways(space, pure, other)
    assert not orthogonal_both_ways(space, x, x)


# ---------------------------------------------------------------------------
# polytopes far from unit scale: a valid state is never reported as bad input
# ---------------------------------------------------------------------------

TETRAHEDRON = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@st.composite
def scaled_polytopes(draw):
    """A convex polygon, the cube or the tetrahedron times 2**k (k in [-20, 40]), shifted by up to 1e6 times its
    extent."""
    verts = draw(st.one_of(convex_polygons(), st.sampled_from([CUBE.vertex_array, TETRAHEDRON.vertex_array])))
    scale = 2.0 ** draw(st.floats(-20.0, 40.0))
    shift = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=verts.shape[1], max_size=verts.shape[1])))
    try:
        return polytope(scale * verts + shift * scale * np.max(np.ptp(verts, axis=0)))
    except ValueError:  # rounding at a large shift can leave a vertex inside the hull: no polytope, no state
        assume(False)


@settings(PROPERTIES, max_examples=60)
@given(space=scaled_polytopes(), seed=st.integers(0, 2**32 - 1))
def test_property_polytope_states_at_any_scale_raise_only_package_errors(space, seed):
    """On valid states of a polytope at any scale and position, decompose and entropy (and the enumeration, on a
    few) either answer or raise a SpectralConeError (exit 2 on the command line), never a bare ValueError (exit
    1).  The states mix a vertex with weights 1e-14 to 1e-6 on two others, so they lie in the tolerance band of
    a vertex, an edge or a face, at traces 0.3 to 3."""
    rng, verts = np.random.default_rng(seed), space.vertex_array
    i, j, k = rng.integers(len(verts), size=(3, 30))
    a, b = 10.0 ** rng.uniform(-14.0, -6.0, size=(2, 30, 1))
    for n, (point, trace) in enumerate(zip((1.0 - a - b) * verts[i] + a * verts[j] + b * verts[k],
                                           rng.uniform(0.3, 3.0, 30))):
        try:
            x = sc.ConeElement(space, trace, point)
            geo.decompose(space, x)
            sc.entropy(space, x)
            if n < 3:
                geo.enumerate_orthogonal_decompositions(space, x)
        except Exception as err:  # the property is about the class of every error
            assert isinstance(err, sc.SpectralConeError), repr(err)


PRISM = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
OCTAHEDRON = polytope([tuple(s * e) for s in (1, -1) for e in np.eye(3)])


@settings(PROPERTIES, max_examples=60)
@given(verts=st.one_of(convex_polygons(), st.sampled_from([p.vertex_array for p in (CUBE, PRISM, OCTAHEDRON,
                                                                                      TETRAHEDRON)])),
       exponent=st.integers(-20, 40), seed=st.integers(0, 2**32 - 1))
def test_property_clique_solutions_keep_every_weight_on_distinct_supports(verts, exponent, seed):
    """Of the clique systems that solve a point, ``_solutions`` lists each once with every weight kept: the supports
    are pairwise distinct and each weight is above WEIGHT_DROP_TOL * max(1, total), so the enumeration needs no
    per-clique dedup.  The polytope and the total are scaled by 2**exponent; the points are band points (a vertex
    mixed with weights 1e-14 to 1e-6 on two others) and Dirichlet(1) points, solved as one block."""
    space, rng = polytope(2.0 ** exponent * verts), np.random.default_rng(seed)
    verts, total = space.vertex_array, 2.0 ** exponent * rng.uniform(0.3, 3.0)
    i, j, k = rng.integers(len(verts), size=(3, 20))
    a, b = 10.0 ** rng.uniform(-14.0, -6.0, size=(2, 20, 1))
    points = np.vstack([(1.0 - a - b) * verts[i] + a * verts[j] + b * verts[k],
                        rng.dirichlet(np.ones(len(verts)), 20) @ verts])
    stacks = geo._clique_solutions(space, points, total)[0]
    solutions = [geo._solutions(stacks, n) for n in range(len(points))]
    assert all(solutions)  # every point is solved, so the property is not vacuous
    for sols in solutions:
        supports = [support for _, support in sols]
        assert len(set(supports)) == len(supports)
        assert all(np.all(w > WEIGHT_DROP_TOL * max(1.0, total)) and len(w) == len(support) for w, support in sols)


# ---------------------------------------------------------------------------
# the decompose report, against per-entry float() conversions
# ---------------------------------------------------------------------------

QUERY_FAMILIES = [geo.Simplex(5), geo.Ball(3), geo.SpinFactor(4),
                  *(geo.DensityMatrices(ring, 3) for ring in ("real", "complex", "quaternion")), SQUARE, CUBE]
QUERY_IDS = ["simplex5", "ball3", "spin4", "real3", "complex3", "quaternion3", "square", "cube"]


def reference_to_json(dec) -> dict:
    """``OrthogonalDecomposition.to_json`` entry by entry, with the spectrum that ``Spectrum`` sorts."""
    return {"weights": [float(w) for w in dec.weights],
            "components": [[float(c) for c in s.coords] for s in dec.components],
            "spectrum": [float(w) for w in sc.Spectrum(dec.weights).weights]}


def reference_report(space, x) -> str:
    """The decompose report with the reconstruction error computed again and each witness entry converted."""
    dec = geo.decompose(space, x, with_witnesses=True)
    payload = {**reference_to_json(dec), "space": space.to_json(), "trace": x.trace_weight, "n": dec.size,
               "dim": space.dim, "caratheodory_ok": dec.size <= space.dim + 1,
               "reconstruction_error": dec.reconstruction_error(x),
               "witnesses": [None if w is None else {"linear": [float(c) for c in w.linear], "offset": w.offset}
                             for w in dec.witnesses]}
    return cli._report_json(payload)


def assert_report_matches_reference(space, x):
    space_text = json.dumps(space.to_json())
    element_text = json.dumps({"trace": x.trace_weight, "coords": x.coords.tolist()})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", "--space", space_text, "--element", element_text]) == 0
    space = cli.parse_space(space_text)
    assert out.getvalue() == reference_report(space, cli.parse_element(element_text, space))
    dec = geo.decompose(space, x)
    assert json.dumps(dec.to_json()) == json.dumps(reference_to_json(dec))


@pytest.mark.parametrize("space", QUERY_FAMILIES, ids=QUERY_IDS)
@PROPERTIES
@given(data=st.data())
def test_property_decompose_report_matches_per_entry_floats(space, data):
    assert_report_matches_reference(space, data.draw(elements(space)))


@PROPERTIES
@given(verts=convex_polygons(4, 12), data=st.data())
def test_property_polygon_decompose_report_matches_per_entry_floats(verts, data):
    space = polytope(verts)
    assert_report_matches_reference(space, data.draw(elements(space)))


@PROPERTIES
@given(weights=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4), negative_zeros=st.booleans())
def test_property_built_decomposition_json_matches_per_entry_floats(weights, negative_zeros):
    """Unsorted weights on simplex vertices whose zero coordinates may be -0.0."""
    space = geo.Simplex(4)
    rows = np.where(np.eye(4) == 1.0, 1.0, -0.0 if negative_zeros else 0.0)
    dec = sc.OrthogonalDecomposition(space, weights, [sc.State(space, row) for row in rows[: len(weights)]])
    assert json.dumps(dec.to_json()) == json.dumps(reference_to_json(dec))
