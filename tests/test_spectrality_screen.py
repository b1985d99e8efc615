"""The stacked spectrality screen and the stacked maximality against the loops they replaced.

``is_spectral`` on a polytope solves the clique systems of every probe in
one block and enumerates only the probes that two clique systems solve;
``Polytope.decomposition`` compares all candidate spectra at once.  The
references below are the per-probe and pairwise loops of the earlier code,
kept here as oracles.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_polygons import PROPERTIES, SQUARE, TRIANGLE, convex_polygons, polytope, regular_polygon

import spectral_cone as sc
from spectral_cone import geometries as geo
from spectral_cone import spectral
from spectral_cone.decomposition import Ordering, Spectrum, majorizes, maximal_spectra
from spectral_cone.tolerances import SPECTRUM_DIGITS, SPECTRUM_GAP_TOL

CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
TETRAHEDRON = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
SAMPLES = st.sampled_from([1, 5, 40, 200])
SEEDS = st.integers(0, 2**16)


def reference_distinct_spectra(space, state):
    """Sorted distinct spectra over the enumerated decompositions of one state."""
    specs = []
    for dec in geo.enumerate_orthogonal_decompositions(space, state):
        specs.append(tuple(np.round(dec.spectrum().weights, SPECTRUM_DIGITS)))
    unique = sorted(set(specs), key=lambda s: (len(s), s))
    pruned = []
    for s in unique:
        if not any(
            len(s) == len(t) and max(abs(a - b) for a, b in zip(s, t)) <= SPECTRUM_GAP_TOL for t in pruned
        ):
            pruned.append(s)
    return pruned


def reference_probes(space, samples, seed) -> list:
    """The barycenter, then one random_state draw per sample."""
    rng = np.random.default_rng(seed)
    probes = [sc.State(space, space.barycenter_coords())]
    return probes + [geo.random_state(space, rng) for _ in range(samples)]


def reference_is_spectral(space, samples, seed):
    """Per-probe loop: one State and one enumeration per probe, the barycenter first."""
    for state in reference_probes(space, samples, seed):
        distinct = reference_distinct_spectra(space, state)
        if len(distinct) > 1:
            shortest = distinct[0]
            longest_len = len(distinct[-1])
            candidates = [s for s in distinct if len(s) == longest_len and s != shortest]
            longest = min(candidates) if candidates else distinct[-1]
            return spectral.SpectralityReport(False, "enumeration", samples, seed,
                                              witness_coords=np.asarray(state.coords),
                                              witness_spectra=(shortest, longest))
    return spectral.SpectralityReport(True, "enumeration", samples, seed)


def reference_decomposition(space, x):
    """Pairwise majorizes loop over the determined solutions, then the lexicographic tie-break."""
    sols = geo._determined_solutions(space, x.coords, x.trace_weight, space.dim + 1)
    spectra = [Spectrum(w) for w, _ in sols]
    maximal = [
        i for i, spec in enumerate(spectra)
        if not any(majorizes(other, spec) is Ordering.DOMINATES for j, other in enumerate(spectra) if j != i)
    ]
    length = max(len(s) for s in spectra)
    weights, support = sols[max(maximal, key=lambda i: tuple(spectra[i].padded(length)))]
    return weights, [space.vertex_state(int(i)) for i in support]


def solving_cliques(space, coords) -> int:
    """Clique systems that solve one point with a kept weight, from its own column solve."""
    _, support = geo._clique_solutions(space, coords[None, :], 1.0, len(space.vertices))
    return int(np.count_nonzero(support))


def screened(space, samples, seed) -> dict:
    """{reference probe index: decompositions} of the probes the screen passes to the enumeration.

    Fails unless each yielded probe equals a reference probe bit for bit, in probe order.
    """
    probes = [state.coords.tobytes() for state in reference_probes(space, samples, seed)]
    out = {}
    for coords, decompositions in space.ambiguous_probes(np.random.default_rng(seed), samples):
        out[probes.index(coords.tobytes(), max(out, default=-1) + 1)] = decompositions
    return out


def assert_same_report(space, samples, seed):
    assert spectral.is_spectral(space, samples, seed).to_json() == reference_is_spectral(
        space, samples, seed).to_json()


def assert_same_decomposition(space, x):
    weights, components = space.decomposition(x)
    ref_weights, ref_components = reference_decomposition(space, x)
    assert weights.tobytes() == ref_weights.tobytes()
    assert [c.coords.tobytes() for c in components] == [c.coords.tobytes() for c in ref_components]


# ---------------------------------------------------------------------------
# is_spectral against the per-probe loop
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons(4, 12), samples=SAMPLES, seed=SEEDS)
def test_property_polygon_report_matches_reference(verts, samples, seed):
    assert_same_report(polytope(verts), samples, seed)


@PROPERTIES
@given(space=st.sampled_from([CUBE, TETRAHEDRON, TRIANGLE]), samples=SAMPLES, seed=SEEDS)
def test_property_polytope_report_matches_reference(space, samples, seed):
    assert_same_report(space, samples, seed)


@pytest.mark.parametrize("nv", [3, 5, 8, 12])
def test_probes_follow_the_random_state_stream(nv):
    space = polytope(regular_polygon(nv))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        single = [rng.dirichlet(np.ones(nv)) for _ in range(200)]
        assert np.random.default_rng(seed).dirichlet(np.ones(nv), 200).tobytes() == np.array(single).tobytes()
        # one clique system solves each probe of the triangle, two or more each probe of the others
        assert len(screened(space, 5, seed)) == (0 if nv == 3 else 6)


@pytest.mark.parametrize("space", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_probes_take_the_state_membership_test(space, monkeypatch):
    def outside(self, coords, tol=None):
        return np.zeros(np.shape(coords)[:-1], dtype=bool)

    monkeypatch.setattr(geo.Polytope, "contains_state", outside)
    for check in (spectral.is_spectral, reference_is_spectral):
        with pytest.raises(sc.NotInConeError, match="^state coordinates fail the membership test$"):
            check(space, 5, 1)


@pytest.mark.parametrize("space", [TRIANGLE, TETRAHEDRON], ids=["triangle", "tetrahedron"])
def test_simplex_probes_skip_the_enumeration(space, monkeypatch):
    calls = []
    enumerate_solutions = geo._decompositions
    monkeypatch.setattr(geo, "_decompositions", lambda *args: calls.append(1) or enumerate_solutions(*args))
    assert spectral.is_spectral(space, samples=200, seed=1).spectral
    assert calls == []


# ---------------------------------------------------------------------------
# the screen: sound, and read from the same block solve as the enumeration
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons(4, 12), seed=SEEDS)
def test_property_screened_probes_have_one_spectrum(verts, seed):
    space = polytope(verts)
    ambiguous = screened(space, 5, seed)
    for i, state in enumerate(reference_probes(space, 5, seed)):
        reference = reference_distinct_spectra(space, state)
        if solving_cliques(space, state.coords) <= 1:
            assert len(reference) <= 1
        if i in ambiguous:
            assert spectral._distinct_spectra(ambiguous[i]) == reference
        else:
            assert len(reference) <= 1


@pytest.mark.parametrize("space, samples", [(SQUARE, 40), (CUBE, 1), (TETRAHEDRON, 40)],
                         ids=["square", "cube", "tetrahedron"])
def test_screened_probes_have_one_spectrum(space, samples):
    # an interior point of the cube takes about a second to enumerate
    ambiguous = screened(space, samples, 7)
    for i, state in enumerate(reference_probes(space, samples, 7)):
        reference = reference_distinct_spectra(space, state)
        assert (solving_cliques(space, state.coords) > 1) is (i in ambiguous)
        assert len(reference) <= 1 or i in ambiguous


# ---------------------------------------------------------------------------
# Polytope.decomposition against the pairwise majorizes loop
# ---------------------------------------------------------------------------

@PROPERTIES
@given(verts=convex_polygons(4, 12), seed=SEEDS)
def test_property_polygon_decomposition_matches_reference(verts, seed):
    space = polytope(verts)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        assert_same_decomposition(space, geo.random_cone_element(space, rng))
    assert_same_decomposition(space, sc.ConeElement(space, 2.0, space.barycenter_coords()))


@pytest.mark.parametrize("space", [SQUARE, CUBE, TETRAHEDRON], ids=["square", "cube", "tetrahedron"])
def test_decomposition_matches_reference(space):
    rng = np.random.default_rng(3)
    elements = [geo.random_cone_element(space, rng) for _ in range(30)]
    elements += [sc.ConeElement(space, 1.0, c) for c in (space.barycenter_coords(), space.vertices[0])]
    for x in elements:
        assert_same_decomposition(space, x)


def test_maximal_spectra_match_pairwise_majorizes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spectra = [Spectrum(w / np.sum(w)) for w in rng.dirichlet(np.ones(4), size=rng.integers(1, 7))]
        spectra += [Spectrum([0.5, 0.5]), Spectrum([0.5, 0.5 - 1e-13, 1e-13])][: rng.integers(0, 3)]
        expect = [not any(majorizes(b, a) is Ordering.DOMINATES for j, b in enumerate(spectra) if j != i)
                  for i, a in enumerate(spectra)]
        assert maximal_spectra(spectra).tolist() == expect


def test_maximal_spectra_raise_on_different_totals_as_majorizes_does():
    spectra = [Spectrum([0.5, 0.5]), Spectrum([1.0]), Spectrum([0.7, 0.4])]
    with pytest.raises(ValueError) as pairwise:
        majorizes(spectra[2], spectra[0])
    with pytest.raises(ValueError) as stacked:
        maximal_spectra(spectra)
    assert str(stacked.value) == str(pairwise.value)
