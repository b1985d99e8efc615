"""Tests for geometries: singularity, faces, orthogonality, decomposition."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_polygons import polytope, regular_polygon, vertex_state

import spectral_cone as sc
from spectral_cone import geometries as geo
from spectral_cone.spectral import Ordering, majorizes
from spectral_cone.tolerances import SAME_STATE_TOL, SUPPORT_TOL

SQUARE = geo.unit_square()
SIMPLEX3 = geo.Simplex(3)
DISC = geo.Ball(2)
QUBITS = geo.DensityMatrices("complex", 2)


def pure_states(space, rng, k: int) -> list:
    """k random pure states: the s0 rows of the locality sampler, which draws a uniform vertex, a normalised
    Gaussian or a pure-density kernel draw, by the space."""
    return [sc.State(space, c) for c in space.orthogonal_triples(rng, k)[0]]


def qubit_state(matrix) -> sc.State:
    return QUBITS.state_from_matrix(sc.HermitianMatrix("complex", np.asarray(matrix, dtype=complex)))


def ring_trace(m) -> float:
    """Ring trace of a HermitianMatrix from its complex form, where each eigenvalue appears m.mult times."""
    return float(np.trace(m.to_complex()).real) / m.mult


# ---------------------------------------------------------------------------
# mutual singularity
# ---------------------------------------------------------------------------

def test_square_diagonal_mutually_singular():
    s0 = sc.State(SQUARE, [0.0, 0.0])
    s1 = sc.State(SQUARE, [1.0, 1.0])
    flag, witness = geo.mutually_singular(s0, s1)
    assert flag
    assert abs(witness(s0)) <= 1e-9
    assert abs(witness(s1) - 1.0) <= 1e-9
    assert sc.is_test(witness, SQUARE)


def test_disc_antipodal_mutually_singular():
    s0 = sc.State(DISC, [1.0, 0.0])
    s1 = sc.State(DISC, [-1.0, 0.0])
    flag, witness = geo.mutually_singular(s0, s1)
    assert flag
    assert abs(witness(s0) - 1.0) <= 1e-12 or abs(witness(s0)) <= 1e-12
    # non-antipodal boundary points are not mutually singular
    other = sc.State(DISC, [0.0, 1.0])
    assert not geo.mutually_singular(s0, other)[0]


def test_self_never_mutually_singular():
    for space, coords in [(SQUARE, [0.3, 0.7]), (SIMPLEX3, [0.2, 0.5, 0.3]), (DISC, [1.0, 0.0])]:
        s = sc.State(space, coords)
        assert not geo.mutually_singular(s, s)[0]


SQUARE_POINT, DISC_POINT = sc.State(SQUARE, [0.5, 0.25]), sc.State(DISC, [0.5, 0.25])
VERTEX, BALL3_POINT = vertex_state(SIMPLEX3, 0), sc.State(geo.Ball(3), [0.0, 1.0, 0.0])


@pytest.mark.parametrize("function, args", [
    (geo.decompose, (SQUARE, DISC_POINT)),
    (geo.enumerate_orthogonal_decompositions, (SQUARE, DISC_POINT)),
    (geo.smallest_face, (SQUARE, [SQUARE_POINT, DISC_POINT])),
    (sc.entropy, (SQUARE, DISC_POINT)),
    (geo.mutually_singular, (VERTEX, BALL3_POINT)),
    (geo.orthogonal, (VERTEX, BALL3_POINT)),
    (geo.orthogonality_witness, (VERTEX, BALL3_POINT)),
], ids=["decompose", "enumerate", "smallest_face", "entropy", "mutually_singular", "orthogonal",
        "orthogonality_witness"])
def test_elements_of_another_space_are_refused(function, args):
    with pytest.raises(sc.SpaceMismatchError):
        function(*args)


# ---------------------------------------------------------------------------
# smallest face
# ---------------------------------------------------------------------------

def test_square_edge_face():
    face = geo.smallest_face(SQUARE, [sc.State(SQUARE, [0.5, 0.0])])
    assert face.kind == "vertices"
    verts = {SQUARE.vertices[i] for i in face.vertex_indices}
    assert verts == {(0.0, 0.0), (1.0, 0.0)}


def test_simplex_interior_face_is_whole():
    face = geo.smallest_face(SIMPLEX3, [sc.State(SIMPLEX3, [0.2, 0.3, 0.5])])
    assert face.kind == "whole"


def test_qubit_pure_support_face():
    s = qubit_state(np.diag([1.0, 0.0]))
    face = geo.smallest_face(QUBITS, [s])
    assert face.kind == "support"
    assert abs(ring_trace(face.projection) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def test_square_adjacent_and_diagonal_vertices_orthogonal():
    # adjacent pairs are mutually singular inside their edge face,
    # diagonal pairs inside the whole square
    for i in range(4):
        for j in range(i + 1, 4):
            assert geo.orthogonal(vertex_state(SQUARE, i), vertex_state(SQUARE, j))


def test_density_diagonal_orthogonal():
    assert geo.orthogonal(qubit_state(np.diag([1.0, 0.0])), qubit_state(np.diag([0.0, 1.0])))


def test_simplex_overlapping_not_orthogonal():
    s0 = sc.State(SIMPLEX3, [0.5, 0.5, 0.0])
    s1 = sc.State(SIMPLEX3, [0.0, 0.5, 0.5])
    assert not geo.orthogonal(s0, s1)


def test_orthogonality_symmetric():
    rng = np.random.default_rng(3)
    for space in (SQUARE, SIMPLEX3, QUBITS):
        for _ in range(10):
            a, b = pure_states(space, rng, 2)
            assert geo.orthogonal(a, b) == geo.orthogonal(b, a)


def test_density_orthogonality_matches_numpy_support_oracle():
    # independent check: support overlap through numpy eigendecomposition
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = geo.random_state(QUBITS, rng)
        (b,) = pure_states(QUBITS, rng, 1)
        ours = geo.orthogonal(a, b)
        ma = QUBITS.state_matrix(a).data
        mb = QUBITS.state_matrix(b).data
        wa, va = np.linalg.eigh(ma)
        wb, vb = np.linalg.eigh(mb)
        pa = va[:, wa > 1e-9] @ va[:, wa > 1e-9].conj().T
        pb = vb[:, wb > 1e-9] @ vb[:, wb > 1e-9].conj().T
        oracle = abs(np.trace(pa @ pb).real) <= 1e-9
        assert ours == oracle


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_square_point_decomposition():
    dec = geo.decompose(SQUARE, sc.State(SQUARE, [0.5, 0.25]))
    np.testing.assert_allclose(dec.spectrum().weights, [0.5, 0.25, 0.25], atol=1e-12)
    assert dec.size <= SQUARE.dim + 1


def test_pure_state_decomposes_to_itself():
    for space, s in [
        (SQUARE, vertex_state(SQUARE, 2)),
        (SIMPLEX3, vertex_state(SIMPLEX3, 1)),
        (DISC, sc.State(DISC, [0.0, 1.0])),
        (QUBITS, qubit_state(np.diag([1.0, 0.0]))),
    ]:
        dec = geo.decompose(space, s)
        assert dec.size == 1
        np.testing.assert_allclose(dec.weights, [1.0], atol=1e-12)
        np.testing.assert_allclose(dec.components[0].coords, s.coords, atol=1e-9)


def test_qubit_decomposition():
    dec = geo.decompose(QUBITS, qubit_state([[0.75, 0.0], [0.0, 0.25]]))
    np.testing.assert_allclose(dec.spectrum().weights, [0.75, 0.25], atol=1e-12)
    mats = [QUBITS.state_matrix(c).data for c in dec.components]
    np.testing.assert_allclose(mats[0], np.diag([1.0, 0.0]), atol=1e-9)
    np.testing.assert_allclose(mats[1], np.diag([0.0, 1.0]), atol=1e-9)


def test_ball_center_uses_fixed_diameter():
    dec = geo.decompose(DISC, sc.State(DISC, [0.0, 0.0]))
    np.testing.assert_allclose(dec.weights, [0.5, 0.5], atol=0)
    np.testing.assert_allclose(dec.components[0].coords, [1.0, 0.0], atol=0)
    np.testing.assert_allclose(dec.components[1].coords, [-1.0, 0.0], atol=0)


def test_decompose_with_witnesses():
    dec = geo.decompose(SQUARE, sc.State(SQUARE, [0.5, 0.25]), with_witnesses=True)
    assert dec.witnesses is not None
    assert len(dec.witnesses) == dec.size * (dec.size - 1) // 2
    k = 0
    for i in range(dec.size):
        for j in range(i + 1, dec.size):
            w = dec.witnesses[k]
            k += 1
            assert w is not None
            # witness separates the pair inside its smallest face
            assert abs(w(dec.components[i])) <= 1e-7
            assert abs(w(dec.components[j]) - 1.0) <= 1e-7


@pytest.mark.parametrize(
    "space",
    [
        SIMPLEX3,
        geo.Simplex(5),
        SQUARE,
        geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
        DISC,
        geo.Ball(3),
        geo.SpinFactor(4),
        QUBITS,
        geo.DensityMatrices("real", 3),
        geo.DensityMatrices("quaternion", 2),
    ],
)
def test_decomposition_invariants(space):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = geo.random_cone_element(space, rng)
        dec = geo.decompose(space, x)
        assert dec.size <= space.dim + 1
        assert dec.reconstruction_error(x) <= 1e-9
        assert float(np.min(dec.weights)) > 0.0
        for i in range(dec.size):
            for j in range(i + 1, dec.size):
                assert geo.orthogonal(dec.components[i], dec.components[j])
        assert abs(float(np.sum(dec.weights)) - x.trace_weight) <= 1e-9


def test_decompose_apex_raises():
    with pytest.raises(sc.ApexError):
        geo.decompose(SIMPLEX3, sc.ConeElement(SIMPLEX3, 0.0, SIMPLEX3.barycenter_coords()))


def test_decompose_rejects_nan_reconstruction():
    x = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    object.__setattr__(x, "trace_weight", float("nan"))  # bypasses the constructor's finiteness test
    with np.errstate(invalid="ignore"), pytest.raises(sc.DecompositionError):
        geo.decompose(SIMPLEX3, x)


@pytest.mark.parametrize("space", [SIMPLEX3, geo.Ball(2), geo.DensityMatrices("complex", 2)],
                         ids=["simplex3", "disc", "complex2"])
def test_decompose_refuses_a_trace_whose_weights_all_drop(space):
    """Every weight at or below WEIGHT_DROP_TOL * max(1, trace) leaves no component: one error, no 0 / 0."""
    with pytest.raises(sc.DecompositionError, match="no decomposition weight above the drop tolerance"):
        geo.decompose(space, sc.ConeElement(space, 1e-12, space.barycenter_coords()))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_square_center():
    decs = geo.enumerate_orthogonal_decompositions(SQUARE, sc.State(SQUARE, [0.5, 0.5]))
    spectra = {tuple(np.round(d.spectrum().weights, 9)) for d in decs}
    assert (0.5, 0.5) in spectra
    assert (0.25, 0.25, 0.25, 0.25) in spectra


@pytest.mark.filterwarnings("error")
def test_enumerate_square_center_near_the_float_limit_without_warning():
    # the rounded keys of weights near 5e307 overflow to inf
    decs = geo.enumerate_orthogonal_decompositions(SQUARE, sc.ConeElement(SQUARE, 1e308, [0.5, 0.5]))
    assert any(d.size == 2 and np.allclose(d.weights, 5e307, rtol=1e-12) for d in decs)


@pytest.mark.parametrize("space,coords", [(DISC, [0.3, -0.4]),
                                          (QUBITS, [0.75, 0, 0, 0, 0, 0, 0.25, 0])])
def test_enumerate_canonical_space_yields_the_decomposition(space, coords):
    s = sc.State(space, coords)
    (dec,) = geo.enumerate_orthogonal_decompositions(space, s)
    np.testing.assert_array_equal(dec.weights, geo.decompose(space, s).weights)


def test_enumerate_simplex_unique():
    decs = geo.enumerate_orthogonal_decompositions(SIMPLEX3, sc.State(SIMPLEX3, [0.2, 0.3, 0.5]))
    assert len(decs) == 1


def test_enumerate_square_point_majorization():
    # the maximal spectrum (1/2, 1/4, 1/4) majorizes every enumerated spectrum
    point = sc.State(SQUARE, [0.5, 0.25])
    top = geo.decompose(SQUARE, point).spectrum()
    decs = geo.enumerate_orthogonal_decompositions(SQUARE, point)
    assert len(decs) >= 3
    for d in decs:
        rel = majorizes(top, d.spectrum())
        assert rel in (Ordering.DOMINATES, Ordering.EQUAL)
        # every reconstruction is faithful
        assert d.reconstruction_error(point) <= 1e-9
        for i in range(d.size):
            for j in range(i + 1, d.size):
                assert geo.orthogonal(d.components[i], d.components[j])


def test_enumerate_needs_three_vertices_off_the_edges_and_diagonals():
    # no edge or diagonal passes through (1/2, 1/4): every decomposition needs three vertices
    decs = geo.enumerate_orthogonal_decompositions(SQUARE, sc.State(SQUARE, [0.5, 0.25]))
    assert decs and all(d.size >= 3 for d in decs)


@pytest.mark.parametrize("verts", [SQUARE.vertices, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                   [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
                                   *(regular_polygon(k) for k in (5, 8, 12))],
                         ids=["square", "tetrahedron", "cube", "pentagon", "octagon", "dodecagon"])
def test_determined_cliques_have_at_most_dim_plus_one_vertices(verts):
    # a determined clique system is a (dim + 1) x k matrix of full column rank, so no size bound cuts one
    space = polytope(verts)
    determined, _ = geo._polytope_geometry(space).clique_systems
    assert max(idx.shape[1] for idx, _, _ in determined) == space.dim + 1


def test_enumerate_rejects_large_polytopes():
    rng = np.random.default_rng(0)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=13))
    verts = tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)
    big = geo.Polytope(verts)
    with pytest.raises(ValueError):
        geo.enumerate_orthogonal_decompositions(big, sc.State(big, [0.0, 0.0]))


# ---------------------------------------------------------------------------
# descriptor validation and serialization
# ---------------------------------------------------------------------------

def test_polytope_rejects_non_extreme_vertex():
    with pytest.raises(ValueError):
        geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25)))


def test_polytope_rejects_flat_vertex_set():
    with pytest.raises(ValueError):
        geo.Polytope(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))


def test_space_json_roundtrip():
    spaces = [
        SIMPLEX3,
        SQUARE,
        DISC,
        geo.SpinFactor(3),
        geo.DensityMatrices("quaternion", 2),
    ]
    for space in spaces:
        assert geo.space_from_json(space.to_json()) == space


@pytest.mark.parametrize(
    "desc, field",
    [({"n": 3}, "'kind'"), ({"kind": "simplex"}, "simplex .* 'n'"), ({"kind": "polytope"}, "polytope .* 'vertices'"),
     ({"kind": "ball"}, "ball .* 'd'"), ({"kind": "spin"}, "spin .* 'd'"),
     ({"kind": "density", "n": 2}, "density .* 'ring'"), ({"kind": "density", "ring": "real"}, "density .* 'n'")],
)
def test_space_json_names_missing_field(desc, field):
    with pytest.raises(ValueError, match=f"{field}$"):
        geo.space_from_json(desc)


def test_density_matrix_coords_roundtrip():
    rng = np.random.default_rng(6)
    for ring in ("real", "complex", "quaternion"):
        space = geo.DensityMatrices(ring, 3)
        m = sc.jordan.random_density_matrix(ring, 3, rng)
        s = space.state_from_matrix(m)
        assert (space.state_matrix(s) - m).frobenius_norm() <= 1e-12
        # trace inner product equals the coordinate dot product
        other = sc.jordan.random_density_matrix(ring, 3, rng)
        assert abs(
            float(np.trace(m.to_complex() @ other.to_complex()).real) / m.mult
            - float(np.dot(s.coords, space.state_from_matrix(other).coords))
        ) <= 1e-12


def test_random_samplers_produce_members():
    rng = np.random.default_rng(7)
    for space in (SIMPLEX3, SQUARE, DISC, geo.SpinFactor(3), QUBITS):
        for _ in range(10):
            s = geo.random_state(space, rng)
            assert space.contains_state(s.coords)
            (p,) = pure_states(space, rng, 1)
            assert space.contains_state(p.coords)


CUBE = geo.Polytope(tuple((float(a), float(b), float(c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)))
PENTAGON = geo.Polytope(((2.0, 0.0), (1.0, 2.0), (-1.0, 2.0), (-2.0, 0.0), (0.0, -2.0)))


@pytest.mark.parametrize(
    "space, trace, coords, support",
    [
        (SQUARE, 1.0, [0.5, 0.5], (2, 1)),
        (SQUARE, 1.0, [0.5, 0.25], (1, 2, 0)),
        (SQUARE, 2.0, [0.25, 0.75], (2, 1)),
        (SQUARE, 1.0, [0.3, 0.6], (2, 1, 0)),
        (SQUARE, 0.5, [0.9, 0.2], (1, 2, 3)),
        (CUBE, 1.0, [0.5, 0.5, 0.5], (3, 4)),
        (CUBE, 1.0, [0.2, 0.5, 0.7], (3, 0, 5)),
        (CUBE, 3.0, [0.1, 0.8, 0.4], (2, 3, 1, 5)),
        (CUBE, 1.0, [0.5, 0.5, 0.25], (4, 2, 3)),
        (PENTAGON, 1.0, [0.0, 0.8], (2, 0, 4)),
        (PENTAGON, 1.0, [0.5, 0.5], (1, 4, 3)),
        (PENTAGON, 2.5, [-1.0, 0.5], (3, 1, 0)),
        (PENTAGON, 1.0, [0.3, -0.6], (4, 1, 2)),
    ],
)
def test_decompose_frozen_supports(space, trace, coords, support):
    """Supports (in weight order) are pinned, so ties keep picking the same clique."""
    dec = geo.decompose(space, sc.ConeElement(space, trace, coords))
    assert tuple(space.vertices.index(tuple(c.coords)) for c in dec.components) == support


def reference_density_member(space, coords, tol):
    """Membership of one row through HermitianMatrix and jordan.eigenvalues_of."""
    m = sc.jordan.from_form(space.ring, space.forms(coords))
    if np.max(np.abs(coords - space.coords_of(m.to_complex()))) > tol:
        return False  # not Hermitian within tolerance
    if abs(ring_trace(m) - 1.0) > tol:
        return False
    return float(np.min(sc.jordan.eigenvalues_of(m))) >= -tol


@pytest.mark.parametrize(
    "space",
    [SIMPLEX3, SQUARE, PENTAGON, DISC, geo.SpinFactor(3), geo.DensityMatrices("real", 3), QUBITS,
     geo.DensityMatrices("quaternion", 2)],
    ids=["simplex3", "square", "pentagon", "disc", "spin3", "real3", "complex2", "quaternion2"],
)
def test_stacked_contains_state_matches_rows(space):
    rng = np.random.default_rng(12)
    base = [geo.random_state(space, rng).coords for _ in range(20)]
    base += [s.coords for s in pure_states(space, rng, 20)]
    # straddle both tolerances below, and leave the space by far
    noise = rng.standard_normal((3, len(base), space.coords_len)) * np.array([1e-13, 1e-10, 0.3])[:, None, None]
    points = np.array(base)[None, :, :] + noise
    # step out of the space away from the barycenter: density matrices stay
    # Hermitian with unit trace, and pure ones get an eigenvalue near -3e-11
    outward = np.array(base) + 1e-10 * (np.array(base) - space.barycenter_coords())
    points = np.concatenate([points, outward[None]])
    member = space.contains_state
    if isinstance(space, geo.DensityMatrices):
        def member(p, tol):
            return reference_density_member(space, p, tol)
    for tol in (1e-12, 1e-9):
        stacked = space.contains_state(points, tol=tol)
        assert stacked.shape == points.shape[:-1]
        rows = [[bool(member(p, tol=tol)) for p in block] for block in points]
        assert stacked.tolist() == rows
        assert 0 < np.count_nonzero(stacked) < stacked.size


# ---------------------------------------------------------------------------
# generated properties of the density-matrix forms
# ---------------------------------------------------------------------------

# derandomized and bounded, so the suite stays deterministic and quick
PROPERTIES = settings(derandomize=True, database=None, max_examples=20, deadline=None)
DENSITY_SPACES = [geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion") for n in (1, 2, 3)]
DENSITY_IDS = [f"{space.ring}{space.n}" for space in DENSITY_SPACES]


def reference_simplex_witnesses(states) -> list:
    """Per pair, the earlier per-pair loop: None for one state (within SAME_STATE_TOL), else the mask of b where
    the supports (above SUPPORT_TOL) are disjoint."""
    out = []
    for a, b in itertools.combinations(states, 2):
        supp_a, supp_b = a.coords > SUPPORT_TOL, b.coords > SUPPORT_TOL
        same = np.max(np.abs(a.coords - b.coords)) <= SAME_STATE_TOL
        out.append(None if same or np.any(supp_a & supp_b) else supp_b.astype(float))
    return out


def simplex_states(n: int, rng: np.random.Generator, k: int) -> list:
    """k states of the n-simplex on random supports, with repeats, near-repeats and weights at SUPPORT_TOL."""
    rows = []
    for _ in range(k):
        pick = rng.integers(5)
        if rows and pick == 0:
            rows.append(rows[rng.integers(len(rows))].copy())
        elif rows and pick == 1:  # within SAME_STATE_TOL of an earlier state, on its support
            row = rows[rng.integers(len(rows))].copy()
            rows.append(np.where(row > 0.5, row - 4e-13, row))
        else:
            support = rng.random(n) < 0.5
            support[rng.integers(n)] = True
            row = np.where(support, rng.dirichlet(np.ones(n)), 0.0)
            row[~support & (rng.random(n) < 0.3)] = rng.choice([SUPPORT_TOL, 2 * SUPPORT_TOL])
            rows.append(row / np.sum(row))
    return [sc.State(geo.Simplex(n), row) for row in rows]


@PROPERTIES
@given(n=st.integers(1, 6), k=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_property_simplex_witnesses_match_the_pair_loop(n, k, seed):
    space, states = geo.Simplex(n), simplex_states(n, np.random.default_rng(seed), k)
    got, want = space.orthogonality_witnesses(states), reference_simplex_witnesses(states)
    assert [w is None for w in got] == [w is None for w in want]
    for g, w in zip(got, want):
        assert g is None or (g.linear.tobytes() == w.tobytes() and g.offset == 0.0)
    for (a, b), w in zip(itertools.combinations(states, 2), want):
        if np.max(np.abs(a.coords - b.coords)) > SAME_STATE_TOL:
            flag, witness = space.mutually_singular(a, b)
            assert flag == (w is not None) and (witness is None or witness.linear.tobytes() == w.tobytes())


def test_simplex_witnesses_of_equal_overlapping_and_disjoint_states():
    e0, e1, mid, half = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0])
    states = [sc.State(SIMPLEX3, c) for c in (e0, e0, e1, mid, half)]
    got = SIMPLEX3.orthogonality_witnesses(states)
    assert [w is not None for w in got] == [w is not None for w in reference_simplex_witnesses(states)]
    assert [w is not None for w in got] == [False, True, True, False, True, True, False, False, False, False]


def raw_rows(space):
    """1 to 4 coordinate rows with entries in [-1, 1]; neither Hermitian nor states."""
    return arrays(float, st.tuples(st.integers(1, 4), st.just(space.coords_len)),
                  elements=st.floats(-1.0, 1.0))


# rows as wide as the widest space, cut to each space's coords_len, so that examples can be given
WIDEST = max(space.coords_len for space in DENSITY_SPACES)
WIDE_ROWS = arrays(float, st.tuples(st.integers(1, 4), st.just(WIDEST)), elements=st.floats(-1.0, 1.0))
# rows of signed zeros, alone and among other values: a Hermitian part keeps -0.0 only where both
# entries it averages are -0.0 after conjugation, since -0.0 + 0.0 rounds to +0.0
SIGNED_ZERO_ROWS = tuple(np.resize(pattern, (k, WIDEST)) for k, pattern in enumerate(
    ([-0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0, 0.0], [0.5, -0.0, -0.25, 0.0, -0.0]), start=1))


def ring_data(space, row):
    """The ring matrix whose row-major entry flattening is row, bit for bit."""
    entries = row.reshape(space.n, space.n, space.components_per_entry)
    if space.ring == "complex":  # a + 1j * b would turn a -0.0 into 0.0
        return np.ascontiguousarray(entries).view(complex)[..., 0]
    return entries if space.ring == "quaternion" else entries[..., 0]


def ring_coords(space, m):
    """Row-major entry flattening of a HermitianMatrix."""
    if space.ring == "complex":
        return np.stack([m.data.real, m.data.imag], axis=-1).reshape(-1)
    return np.asarray(m.data, dtype=float).reshape(-1)


def density_rows(space, rows):
    """States h^2 / Tr h^2 from the Hermitian parts h of the rows, built in the ring."""
    out = []
    for row in rows:
        h = sc.jordan.hermitian_part(space.ring, ring_data(space, row))
        sq = sc.jordan.hermitian_part(space.ring, h.matmul(h))
        assume(ring_trace(sq) > 1e-6)
        out.append(ring_coords(space, sq.scale(1.0 / ring_trace(sq))))
    return np.array(out)


@pytest.mark.parametrize("space", DENSITY_SPACES, ids=DENSITY_IDS)
@PROPERTIES
@given(rows=WIDE_ROWS, other=WIDE_ROWS)
@example(rows=SIGNED_ZERO_ROWS[0], other=SIGNED_ZERO_ROWS[1])
@example(rows=SIGNED_ZERO_ROWS[2], other=SIGNED_ZERO_ROWS[3])
@example(rows=SIGNED_ZERO_ROWS[3], other=SIGNED_ZERO_ROWS[0])
def test_property_coords_of_forms_is_hermitian_part(space, rows, other):
    rows = rows[:, : space.coords_len]
    forms = space.forms(rows)
    assert forms.shape == (len(rows), space.mult * space.n, space.mult * space.n)
    np.testing.assert_array_equal(forms, np.conj(np.swapaxes(forms, -1, -2)))
    want = np.array([ring_coords(space, sc.jordan.hermitian_part(space.ring, ring_data(space, row)))
                     for row in rows])
    assert space.coords_of(forms).tobytes() == want.tobytes()  # bytes tell -0.0 from 0.0
    # i times a Hermitian form is anti-Hermitian: coords_of drops it with the rest of the non-Hermitian part
    skew = 1j * space.forms(np.resize(other[:, : space.coords_len], rows.shape))
    np.testing.assert_allclose(space.coords_of(forms + skew), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("space", DENSITY_SPACES, ids=DENSITY_IDS)
@PROPERTIES
@given(rows=WIDE_ROWS)
@example(rows=SIGNED_ZERO_ROWS[0])
@example(rows=SIGNED_ZERO_ROWS[1])
@example(rows=SIGNED_ZERO_ROWS[2])
@example(rows=SIGNED_ZERO_ROWS[3])
def test_property_state_matrix_round_trip_keeps_every_bit(space, rows):
    # diagonally dominant Hermitian parts, so the rows are states, taken in float arithmetic so that
    # zeros keep their signs: -0.0 stays where both averaged components are -0.0 after conjugation
    entries = rows[:, : space.coords_len].reshape(-1, space.n, space.n, space.components_per_entry)
    signs = np.array([1.0] + [-1.0] * (space.components_per_entry - 1))  # the real part keeps its sign
    herm = (entries + np.swapaxes(entries, 1, 2) * signs) / 2.0
    herm[:, np.arange(space.n), np.arange(space.n), 0] += 4.0 * space.n
    herm = herm.reshape(len(rows), -1)
    for coords in herm / space.traces(herm)[:, None]:
        s = sc.State(space, coords)
        assert space.state_from_matrix(space.state_matrix(s)).coords.tobytes() == coords.tobytes()


@pytest.mark.parametrize("space", DENSITY_SPACES, ids=DENSITY_IDS)
@PROPERTIES
@given(data=st.data(), total=st.floats(0.1, 3.0))
def test_property_entropies_match_row_entropy(space, data, total):
    coords = density_rows(space, data.draw(raw_rows(space)))
    want = [sc.von_neumann_entropy(space.state_matrix(sc.State(space, c)).scale(total)) for c in coords]
    # the row path drops eigenvalues at or below 1e-12, which carry at most 1e-12 ln 1e12 each
    np.testing.assert_allclose(space.entropies(coords, total), want, rtol=0, atol=3 * 2.8e-11 + 1e-13)


@pytest.mark.parametrize("ring", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_entropy_follows_the_zero_eigenvalue_rule_of_von_neumann_entropy(ring, n):
    """Both count eigenvalues at or below ZERO_EIGENVALUE_TOL as 0, so pure and mixed states agree to rounding.

    Clipping at 0 instead kept the ~1e-17 eigenvalues of pure states, about 1e-14 off.
    """
    space, rng = geo.DensityMatrices(ring, n), np.random.default_rng(n)
    pure = pure_states(space, rng, 150)
    states = [pure[k // 2] if k % 2 else space.random_state(rng) for k in range(300)]
    coords = np.array([s.coords for s in states])
    for total in (1.0, 0.3, 2.7):
        want = [sc.von_neumann_entropy(space.state_matrix(s).scale(total)) for s in states]
        got = [sc.entropy(space, sc.ConeElement(space, total, s.coords)) for s in states[:20]]
        np.testing.assert_allclose(space.entropies(coords, total), want, rtol=0, atol=5e-15 * max(1.0, total))
        np.testing.assert_array_equal(got, space.entropies(coords[:20], total))


def spectrum_rows(space, rng):
    """Random and pure states, and a random state's idempotents reweighted to spectra with repeated and
    zero entries: uniform, pure, two equal halves, and random with one weight zeroed."""
    n = space.n
    _, comps = space.decompositions(space.random_state(rng).coords[None], 1.0)
    zeroed = rng.dirichlet(np.ones(n))
    zeroed[rng.integers(n)] = 0.0 if n > 1 else zeroed[0]
    spectra = [rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n), np.eye(n)[0], np.eye(n)[0] / 2 + np.eye(n)[-1] / 2,
               zeroed / np.sum(zeroed)]
    states = [space.random_state(rng).coords for _ in range(4)] + [pure_states(space, rng, 1)[0].coords]
    return np.concatenate([np.array(spectra) @ comps[0], states])


@pytest.mark.parametrize("ring", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_density_entropies_take_the_decomposition_weights_bit_for_bit(ring, n):
    space = geo.DensityMatrices(ring, n)
    coords = spectrum_rows(space, np.random.default_rng(n))
    t = sc.jordan.ring_eigenvalues(np.linalg.eigh(space.forms(coords))[0], space.mult)
    if n > 1:  # the rows carry repeated eigenvalues (one cluster) and zero weights
        assert np.any(np.all(np.abs(t - t[..., :1]) < 1e-9, axis=-1))
        assert np.any(space.decompositions(coords, 1.0)[0] == 0.0)
    for total in (1.0, 0.3, 2.7):
        weights = space.decompositions(coords, total)[0]
        with mock.patch.object(sc.jordan, "rank_one_forms", side_effect=AssertionError("idempotents built")):
            got = space.entropies(coords, total)
        assert got.tobytes() == sc.decomposition.weights_entropy(weights.T).tobytes()


@pytest.mark.parametrize("space", DENSITY_SPACES, ids=DENSITY_IDS)
@PROPERTIES
@given(data=st.data(), scale=st.sampled_from([0.0, 1e-13, 1e-10, 1e-3, 0.3]))
def test_property_stacked_contains_state_matches_rows(space, data, scale):
    states = density_rows(space, data.draw(raw_rows(space)))
    noise = data.draw(arrays(float, states.shape, elements=st.floats(-1.0, 1.0)))
    points = np.concatenate([states, states + scale * noise, data.draw(raw_rows(space))])
    for tol in (1e-12, 1e-9):
        want = [reference_density_member(space, p, tol) for p in points]
        assert space.contains_state(points, tol=tol).tolist() == want
