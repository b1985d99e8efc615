"""Tests for cone elements: mixing, traces, membership, affine functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_geometries import PROPERTIES, pure_states
from test_polygons import vertex_state

import spectral_cone as sc
from spectral_cone import cone
from spectral_cone import geometries as geo


SQUARE = geo.unit_square()
SIMPLEX3 = geo.Simplex(3)


def test_mix_identity():
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    out = sc.mix([1.0], [s])
    np.testing.assert_allclose(out.coords, s.coords, atol=0)


def test_mix_square_example():
    # (1/2, 1/4, 1/4) over vertices (1,0), (0,1), (0,0) lands on (1/2, 1/4)
    states = [sc.State(SQUARE, v) for v in [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]]
    out = sc.mix([0.5, 0.25, 0.25], states)
    np.testing.assert_allclose(out.coords, [0.5, 0.25], atol=1e-15)


def test_mix_simplex_vertices():
    out = sc.mix([0.5, 0.5], [vertex_state(SIMPLEX3, 0), vertex_state(SIMPLEX3, 1)])
    np.testing.assert_allclose(out.coords, [0.5, 0.5, 0.0], atol=0)


def test_mix_symmetric_and_nested_mixtures_flatten():
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y, z = (geo.random_state(SQUARE, rng) for _ in range(3))
        a, b = rng.uniform(0.0, 1.0, 2)
        np.testing.assert_allclose(sc.mix([a, 1 - a], [x, y]).coords, sc.mix([1 - a, a], [y, x]).coords, atol=1e-12)
        nested = sc.mix([b, 1 - b], [sc.mix([a, 1 - a], [x, y]), z])
        flat = sc.mix([b * a, b * (1 - a), 1 - b], [x, y, z])
        np.testing.assert_allclose(nested.coords, flat.coords, atol=1e-12)


def test_mix_rejects_bad_weights():
    s = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    with pytest.raises(sc.InvalidWeightsError):
        sc.mix([0.6, 0.6], [s, s])
    with pytest.raises(sc.InvalidWeightsError):
        sc.mix([1.5, -0.5], [s, s])


@pytest.mark.parametrize("space", [SIMPLEX3, SQUARE, geo.DensityMatrices("complex", 2)],
                         ids=["simplex3", "square", "complex2"])
def test_mix_coords_matches_mix(space):
    rng = np.random.default_rng(4)
    a = [geo.random_state(space, rng) for _ in range(6)]
    b = pure_states(space, rng, 6)
    t = np.array([0.0, 0.1, 0.5, 0.9, 1.0])[:, None, None]
    rows = cone.mix_coords(t, np.array([s.coords for s in a]), np.array([s.coords for s in b]))
    assert rows.shape == (5, 6, space.coords_len)
    for i, ti in enumerate(t[:, 0, 0]):
        for j in range(6):
            assert rows[i, j].tolist() == sc.mix([1.0 - ti, ti], [a[j], b[j]]).coords.tolist()
    with pytest.raises(sc.InvalidWeightsError):
        cone.mix_coords(1.5, a[0].coords, b[0].coords)


def test_mix_rejects_mixed_spaces():
    a = sc.State(SIMPLEX3, [1.0, 0.0, 0.0])
    b = sc.State(SQUARE, [0.0, 0.0])
    with pytest.raises(sc.SpaceMismatchError):
        sc.mix([0.5, 0.5], [a, b])


def test_trace_values():
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    assert s.trace_weight == 1.0
    assert sc.ConeElement(SIMPLEX3, 2.5, s.coords).trace_weight == 2.5
    assert sc.ConeElement(SIMPLEX3, 0.0, s.coords).is_apex


def test_evaluate_constant():
    a = sc.AffineFunctional.constant(0.7, SIMPLEX3.coords_len)
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    assert sc.evaluate(a, s) == 0.7


def test_evaluate_coordinate_projection():
    a = sc.AffineFunctional([1.0, 0.0], 0.0)  # phi(x, y) = x
    s = sc.State(SQUARE, [0.5, 0.25])
    assert sc.evaluate(a, s) == 0.5


def test_evaluate_affinity_forces_interpolation():
    s0 = sc.State(SQUARE, [0.0, 0.0])
    s1 = sc.State(SQUARE, [1.0, 1.0])
    phi = sc.AffineFunctional([0.5, 0.5], 0.0)
    assert phi(s0) == 0.0 and phi(s1) == 1.0
    for t in (0.1, 0.35, 0.8):
        mixed = sc.mix([1 - t, t], [s0, s1])
        assert abs(sc.evaluate(phi, mixed) - t) < 1e-15


def test_evaluate_commutes_with_mix():
    rng = np.random.default_rng(2)
    for _ in range(40):
        states = [geo.random_state(SQUARE, rng) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        a = sc.AffineFunctional(rng.standard_normal(2), rng.standard_normal())
        direct = sc.evaluate(a, sc.mix(w, states))
        expected = sum(wi * sc.evaluate(a, si) for wi, si in zip(w, states))
        assert abs(direct - expected) <= 1e-12


def test_membership_validation():
    with pytest.raises(sc.NotInConeError):
        sc.State(SIMPLEX3, [0.5, 0.5, 0.5])
    with pytest.raises(sc.NotInConeError):
        sc.State(SQUARE, [1.5, 0.0])
    with pytest.raises(sc.NotInConeError):
        sc.ConeElement(SIMPLEX3, -1.0, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("trace", [math.nan, math.inf, -math.inf])
def test_non_finite_trace_weight_rejected(trace):
    # NaN and infinite weights used to skip the membership test (lam > 0 is false for NaN)
    with pytest.raises(sc.NotInConeError):
        sc.ConeElement(SIMPLEX3, trace, [5.0, -3.0, 7.0])
    with pytest.raises(sc.NotInConeError):
        sc.ConeElement(geo.DensityMatrices("complex", 2), trace, [0.5, 0, 0, 0, 0, 0, 0.5, 0])


def test_state_is_immutable():
    s = sc.State(SIMPLEX3, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        s.coords[0] = 1.0


def test_is_test_validation():
    # trace restricted to the states: constantly one, a valid test
    ones = sc.AffineFunctional(np.ones(3), 0.0)
    assert sc.is_test(ones, SIMPLEX3)
    assert sc.is_test(sc.AffineFunctional([1.0, 0.0, 0.0], 0.0), SIMPLEX3)
    assert not sc.is_test(sc.AffineFunctional([2.0, 0.0, 0.0], 0.0), SIMPLEX3)
    # ball: range is offset +- |linear|
    ball = geo.Ball(2)
    assert sc.is_test(sc.AffineFunctional([0.5, 0.0], 0.5), ball)
    assert not sc.is_test(sc.AffineFunctional([0.6, 0.0], 0.5), ball)
    # density matrices: eigenvalue range of the Hermitian part
    dm = geo.DensityMatrices("complex", 2)
    proj = dm.state_from_matrix(sc.HermitianMatrix("complex", np.diag([1.0, 0.0]).astype(complex))).coords
    assert sc.is_test(sc.AffineFunctional(proj, 0.0), dm)
    assert not sc.is_test(sc.AffineFunctional(2.0 * proj, 0.0), dm)



@pytest.mark.parametrize("space", [geo.Simplex(2), SQUARE], ids=["simplex2", "square"])
def test_is_test_refuses_a_functional_of_the_wrong_length(space):
    # three coefficients on two coordinates: the simplex read them as vertex values, the square failed in matmul
    with pytest.raises(ValueError, match="^functional has 3 coefficients, the space 2 coordinates$"):
        sc.is_test(sc.AffineFunctional([0.5, 0.5, 0.5], 0.0), space)

def test_state_json_roundtrip():
    s = sc.State(SQUARE, [0.5, 0.25])
    data = s.to_json()
    assert data["trace"] == 1.0
    assert data["coords"] == [0.5, 0.25]
    space = geo.space_from_json(data["space"])
    assert space == SQUARE
    again = sc.ConeElement(space, data["trace"], np.array(data["coords"]))
    np.testing.assert_allclose(again.coords, s.coords, atol=0)


ROW_ENTRIES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
# 1-D rows, one-column and zero-row stacks, and stacks of stacks
ROW_SHAPES = st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(0, 40), st.integers(1, 9)),
                       st.tuples(st.integers(0, 40), st.just(1)), st.tuples(st.integers(0, 3), st.integers(0, 9),
                                                                            st.integers(1, 9)))


@settings(PROPERTIES, max_examples=200)
@given(a=arrays(float, ROW_SHAPES, elements=ROW_ENTRIES))
def test_property_reduce_rows_is_the_last_axis_reduction(a):
    """The reductions of numpy over the last axis, shape and dtype included.  They agree as floats: the sign
    of a zero and the payload of a NaN may differ (numpy's vector loops pick among ties by their own order),
    and no comparison reads either."""
    for reduce in (np.min, np.max, np.any):
        got, want = np.asarray(cone._reduce_rows(reduce, a)), np.asarray(reduce(a, axis=-1))
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want, equal_nan=want.dtype == float)
