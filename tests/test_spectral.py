"""Tests for spectra, majorization, entropy and entropy landscapes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polygons import vertex_state

import spectral_cone as sc
from spectral_cone import geometries as geo
from spectral_cone import jordan
from spectral_cone.decomposition import _weak_majorization, weights_entropy
from spectral_cone.spectral import Ordering, Spectrum, majorizes

SQUARE = geo.unit_square()
CUBE = geo.Polytope(tuple((float(a), float(b), float(c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)))
TRIANGLE = geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
PENTAGON = geo.Polytope(tuple(
    (math.cos(2.0 * math.pi * k / 5), math.sin(2.0 * math.pi * k / 5)) for k in range(5)
))
SIMPLEX3 = geo.Simplex(3)
DISC = geo.Ball(2)

LN2 = math.log(2.0)


def brute_force_square_entropy(x, y):
    """Entropy oracle for the unit square by direct linear algebra.

    Scans every vertex subset, solves the barycentric system with plain
    numpy least squares, and keeps nonnegative solutions.  Concavity of
    -sum w ln w puts the family minimum at the solutions with minimal
    support, so scanning determined subsets suffices.
    """
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    target = np.array([x, y, 1.0])
    best = math.inf
    import itertools
    for size in range(1, 5):
        for idx in itertools.combinations(range(4), size):
            a = np.vstack([verts[list(idx)].T, np.ones(size)])
            if np.linalg.matrix_rank(a) < size:
                continue
            w, *_ = np.linalg.lstsq(a, target, rcond=None)
            if np.min(w) < -1e-12 or np.max(np.abs(a @ w - target)) > 1e-9:
                continue
            w = w[w > 1e-12]
            best = min(best, float(-np.sum(w * np.log(w))))
    return best


def test_spectrum_sorts_descending():
    s = Spectrum([0.25, 0.5, 0.25])
    np.testing.assert_allclose(s.weights, [0.5, 0.25, 0.25], atol=0)
    assert len(Spectrum([1.0])) == 1


@pytest.mark.parametrize("weights, low", [([0.5, math.nan], "nan"), ([0.5, -0.1], "-0.1")])
def test_spectrum_and_decomposition_refuse_negative_or_nan_weights(weights, low):
    with pytest.raises(ValueError, match=f"spectrum entries must be nonnegative, got {low}$"):
        Spectrum(weights)
    components = [vertex_state(geo.Simplex(2), i) for i in (0, 1)]
    with pytest.raises(ValueError, match="decomposition weights must be strictly positive"):
        sc.OrthogonalDecomposition(geo.Simplex(2), weights[::-1], components)


def test_spectrum_of_square_point():
    dec = geo.decompose(SQUARE, sc.State(SQUARE, [0.5, 0.25]))
    np.testing.assert_allclose(dec.spectrum().weights, [0.5, 0.25, 0.25], atol=1e-12)


def test_majorizes_basic():
    assert majorizes(Spectrum([1.0, 0.0]), Spectrum([0.5, 0.5])) is Ordering.DOMINATES
    assert majorizes(Spectrum([0.5, 0.25, 0.25]), Spectrum([0.5, 0.25, 0.25])) is Ordering.EQUAL
    assert majorizes(Spectrum([0.5, 0.5]), Spectrum([1.0, 0.0])) is Ordering.DOMINATED


def test_majorizes_pads_zeros():
    assert majorizes(Spectrum([1.0]), Spectrum([0.5, 0.5])) is Ordering.DOMINATES


def test_majorizes_square_point_vs_center():
    # partial sums 1/2 = 1/2 then 3/4 < 1: the center spectrum dominates
    rel = majorizes(Spectrum([0.5, 0.25, 0.25]), Spectrum([0.5, 0.5, 0.0]))
    assert rel is Ordering.DOMINATED


def test_majorizes_incomparable():
    # 0.5 > 0.4 at k=1 but 0.75 < 0.8 at k=2
    rel = majorizes(Spectrum([0.5, 0.25, 0.25]), Spectrum([0.4, 0.4, 0.2]))
    assert rel is Ordering.INCOMPARABLE


@st.composite
def dyadic_spectra(draw):
    """Two to five spectra of one total in units of 1/16, then the first again, reversed and with zeros:
    every partial sum is exact in floats, so no comparison turns on MAJORIZATION_TOL."""
    units = draw(st.integers(1, 40))

    def parts():
        cuts = sorted(draw(st.sets(st.integers(1, units - 1), max_size=5))) if units > 1 else []
        return list(np.diff([0, *cuts, units]) / 16.0) + [0.0] * draw(st.integers(0, 2))

    spectra = [parts() for _ in range(draw(st.integers(2, 5)))]
    return [Spectrum(w) for w in spectra + [spectra[0][::-1] + [0.0]]]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(spectra=dyadic_spectra())
def test_property_weak_majorization_is_a_partial_order(spectra):
    dominates, dominated = _weak_majorization([s.weights for s in spectra])
    assert np.array_equal(dominated, dominates.T) and np.all(np.diag(dominates))
    length = max(len(s) for s in spectra)
    sums = np.cumsum([s.padded(length) for s in spectra], axis=1)
    assert np.array_equal(dominates, np.all(sums[:, None] >= sums[None], axis=-1))  # the exact partial sums
    # antisymmetric: a pair that dominates both ways is one spectrum, zeros aside
    i, j = np.nonzero(dominates & dominates.T)
    assert np.array_equal(sums[i], sums[j]) and dominates[0, -1] and dominates[-1, 0]
    # transitive: no i >= j >= k without i >= k
    assert not np.any(dominates[:, :, None] & dominates[None] & ~dominates[:, None])


def test_majorizes_rejects_unequal_totals():
    with pytest.raises(ValueError):
        majorizes(Spectrum([1.0]), Spectrum([0.5]))


def test_entropy_pure_state_is_zero():
    assert sc.entropy(SIMPLEX3, vertex_state(SIMPLEX3, 0)) == 0.0
    assert sc.entropy(SQUARE, vertex_state(SQUARE, 3)) == 0.0
    assert sc.entropy(DISC, sc.State(DISC, [0.0, 1.0])) == 0.0


def test_entropy_square_frozen_values():
    oracle = brute_force_square_entropy(0.5, 0.25)
    assert abs(oracle - 1.5 * LN2) <= 1e-12
    assert abs(sc.entropy(SQUARE, sc.State(SQUARE, [0.5, 0.25])) - 1.5 * LN2) <= 1e-12
    assert abs(sc.entropy(SQUARE, sc.State(SQUARE, [0.5, 0.5])) - LN2) <= 1e-12


def test_entropy_square_matches_oracle_on_random_points():
    rng = np.random.default_rng(8)
    for _ in range(30):
        s = geo.random_state(SQUARE, rng)
        ours = sc.entropy(SQUARE, s)
        oracle = brute_force_square_entropy(*s.coords)
        assert abs(ours - oracle) <= 1e-9


def test_entropy_matches_enumeration_minimum():
    rng = np.random.default_rng(9)
    for space in (SQUARE, CUBE):
        for _ in range(10):
            s = geo.random_state(space, rng)
            decs = geo.enumerate_orthogonal_decompositions(space, s)
            assert abs(sc.entropy(space, s) - min(weights_entropy(d.weights) for d in decs)) <= 1e-12


def test_entropy_apex_raises():
    with pytest.raises(sc.ApexError):
        sc.entropy(SIMPLEX3, sc.ConeElement(SIMPLEX3, 0.0, SIMPLEX3.barycenter_coords()))


def test_entropy_decreasing_under_majorization():
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = geo.random_state(SQUARE, rng)
        decs = geo.enumerate_orthogonal_decompositions(SQUARE, s)
        for i in range(len(decs)):
            for j in range(len(decs)):
                a, b = decs[i].spectrum(), decs[j].spectrum()
                if majorizes(a, b) is Ordering.DOMINATES:
                    assert weights_entropy(a.weights) <= weights_entropy(b.weights) + 1e-12


def test_entropy_bounds():
    rng = np.random.default_rng(11)
    for space in (SIMPLEX3, SQUARE, DISC, geo.DensityMatrices("complex", 3)):
        for _ in range(15):
            s = geo.random_state(space, rng)
            h = sc.entropy(space, s)
            assert -1e-12 <= h <= math.log(space.dim + 1) + 1e-12


def test_entropy_symmetry_invariance():
    rng = np.random.default_rng(12)
    # permutations on the simplex
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        h1 = sc.entropy(SIMPLEX3, sc.State(SIMPLEX3, p))
        h2 = sc.entropy(SIMPLEX3, sc.State(SIMPLEX3, p[rng.permutation(3)]))
        assert abs(h1 - h2) <= 1e-12
    # rotations on the disc
    for _ in range(10):
        s = geo.random_state(DISC, rng)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert abs(sc.entropy(DISC, s) - sc.entropy(DISC, sc.State(DISC, rot @ s.coords))) <= 1e-12
    # unitary conjugation on density matrices
    dm = geo.DensityMatrices("complex", 3)
    for _ in range(5):
        s = geo.random_state(dm, rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = dm.state_matrix(s).data
        rotated = dm.state_from_matrix(sc.HermitianMatrix("complex", q @ m @ q.conj().T))
        assert abs(sc.entropy(dm, s) - sc.entropy(dm, rotated)) <= 1e-10


def regular_polygon(k: int) -> geo.Polytope:
    return geo.Polytope(tuple((math.cos(2.0 * math.pi * i / k), math.sin(2.0 * math.pi * i / k)) for i in range(k)))


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def symmetry(space, rng: np.random.Generator):
    """A random symmetry of the space as a map on coordinate rows: a permutation of a simplex's vertices, a
    Haar orthogonal map of a ball, conjugation by a Haar unitary of a density space, and a rotation by a
    multiple of 2 pi / k, then a reflection half the time, of a regular k-gon."""
    if isinstance(space, geo.Simplex):
        return lambda c: c[rng.permutation(space.n)]
    if isinstance(space, geo.Ball):
        q = np.linalg.qr(rng.standard_normal((space.d, space.d)))[0]
        return lambda c: q @ c
    if isinstance(space, geo.DensityMatrices):
        u = jordan.random_unitary(space.ring, space.n, rng)
        return lambda c: space.coords_of(u @ space.forms(c) @ u.conj().T)
    k = len(space.vertices)
    m = rotation(2.0 * math.pi * rng.integers(k) / k) @ np.diag([1.0, rng.choice([1.0, -1.0])])
    return lambda c: m @ c


SYMMETRIC_SPACES = [*(geo.Simplex(n) for n in (2, 3, 5)), DISC, geo.Ball(3), geo.SpinFactor(4),
                    *(geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion") for n in (2, 3)),
                    *(regular_polygon(k) for k in (3, 4, 5, 8))]
ENTROPY_SLACK = 1e-12  # rounding of -sum w ln w over at most a few weights, and of the symmetry's arithmetic


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(space=st.sampled_from(SYMMETRIC_SPACES), seed=st.integers(0, 2**32 - 1))
def test_property_entropy_is_bounded_and_invariant_under_symmetries(space, seed):
    # the bound is ln rank; a polygon that is not a simplex has no rank, and its decompositions have at most
    # dim + 1 components
    rng = np.random.default_rng(seed)
    bound = math.log(space.dim + 1 if isinstance(space, geo.Polytope) and len(space.vertices) > 3 else space.rank)
    act = symmetry(space, rng)
    for s in [space.random_state(rng) for _ in range(4)] + [sc.State(space, space.barycenter_coords())]:
        h = sc.entropy(space, s)
        assert 0.0 <= h <= bound + ENTROPY_SLACK
        assert abs(sc.entropy(space, sc.State(space, act(s.coords))) - h) <= ENTROPY_SLACK


def test_entropy_of_cone_elements():
    x = sc.ConeElement(SIMPLEX3, 2.0, [0.5, 0.25, 0.25])
    expect = -(1.0 * math.log(1.0) + 0.5 * math.log(0.5) * 2)
    assert abs(sc.entropy(SIMPLEX3, x) - expect) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, coords", [(DISC, [0.5, 0.0]), (SQUARE, [0.5, 0.5]), (SIMPLEX3, [0.5, 0.5, 0.0])],
                         ids=["disc", "square", "simplex3"])
def test_entropy_near_the_float_limit_is_minus_inf_without_warning(space, coords):
    # -w ln w at w = 5e307 is about -3.5e310, beyond the float range
    assert sc.entropy(space, sc.ConeElement(space, 1e308, coords)) == -math.inf


# ---------------------------------------------------------------------------
# spectrality
# ---------------------------------------------------------------------------

def test_simplex_and_ball_spectral():
    assert sc.is_spectral(SIMPLEX3).spectral
    assert sc.is_spectral(DISC).spectral
    assert sc.is_spectral(geo.DensityMatrices("quaternion", 2)).spectral


def test_square_not_spectral_with_center_witness():
    report = sc.is_spectral(SQUARE, samples=5, seed=0)
    assert not report.spectral
    np.testing.assert_allclose(report.witness_coords, [0.5, 0.5], atol=1e-12)
    a, b = report.witness_spectra
    assert len(a) != len(b)
    np.testing.assert_allclose(a, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(b, [0.25, 0.25, 0.25, 0.25], atol=1e-9)
    # sup-norm distance of (0.5, 0.5, 0, 0) and (0.25, 0.25, 0.25, 0.25)
    assert report.to_json()["max_gap"] == 0.25


def test_triangle_polytope_spectral():
    tri = geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    report = sc.is_spectral(tri, samples=25, seed=1)
    assert report.spectral
    assert report.to_json()["max_gap"] == 0.0


def test_spectral_rank():
    assert geo.Ball(3).rank == 2
    assert geo.SpinFactor(5).rank == 2
    assert geo.Simplex(4).rank == 4
    assert geo.DensityMatrices("complex", 3).rank == 3
    tri = geo.Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert tri.rank == 3
    with pytest.raises(sc.NonSpectralSpaceError):
        SQUARE.rank


# ---------------------------------------------------------------------------
# entropy landscape
# ---------------------------------------------------------------------------

def test_square_landscape_has_four_maxima():
    land = sc.entropy_landscape(SQUARE, 101)
    assert len(land.maxima) == 4
    points = {(round(x, 3), round(y, 3)) for x, y, _ in land.maxima}
    assert points == {(0.5, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 0.5)}
    for _, _, h in land.maxima:
        assert abs(h - 1.5 * LN2) <= 1e-9


def test_disc_landscape_single_maximum_at_center():
    land = sc.entropy_landscape(DISC, 101)
    assert len(land.maxima) == 1
    x, y, h = land.maxima[0]
    assert (x, y) == (0.0, 0.0)
    assert abs(h - LN2) <= 1e-12
    # exterior points are absent
    assert math.isnan(land.values[0, 0])


def test_simplex_landscape_maximum_at_barycenter():
    # 100 grid points put 1/3 on the grid exactly; 101 would not
    land = sc.entropy_landscape(SIMPLEX3, 100)
    assert len(land.maxima) == 1
    x, y, h = land.maxima[0]
    assert abs(x - 1.0 / 3.0) <= 1e-9 and abs(y - 1.0 / 3.0) <= 1e-9
    assert abs(h - math.log(3.0)) <= 1e-9


def test_landscape_rejects_non_2d():
    with pytest.raises(ValueError):
        sc.entropy_landscape(geo.Simplex(4), 11)
    with pytest.raises(ValueError):
        sc.entropy_landscape(geo.Ball(3), 11)


def parse_csv(text):
    header, *rows = text.splitlines()
    assert header == "x,y,entropy"
    return np.array([[float(c) for c in row.split(",")] for row in rows]).reshape(-1, 3).T


def test_landscape_csv_rows_cover_interior():
    land = sc.entropy_landscape(DISC, 21)
    x, y, h = parse_csv(land.csv_text())
    assert np.all(x * x + y * y <= 1.0 + 1e-9)
    assert len(x) == len(y) == len(h) == np.count_nonzero(~np.isnan(land.values))
    assert len(x) < 21 * 21  # corners excluded
    np.testing.assert_array_equal(h, land.values[~np.isnan(land.values)])


def reference_csv(land):
    """The writer csv_text replaced: every grid point formatted on its own, in grid order."""
    inside = ~np.isnan(land.values)
    x, y = np.meshgrid(land.xs, land.ys, indexing="ij")
    columns = [c.tolist() for c in (x[inside], y[inside], land.values[inside])]
    return "\n".join(["x,y,entropy", *map("{:.17g},{:.17g},{:.17g}".format, *columns)]) + "\n"


QUADRILATERAL = geo.Polytope(((0.0, 0.0), (1.0, 0.2), (1.3, 1.0), (0.1, 0.8)))
README_SPACES = {"square": SQUARE, "disc": DISC, "simplex3": SIMPLEX3}
CSV_CASES = {
    "square-101": (SQUARE, 101), "disc-101": (DISC, 101), "simplex3-100": (SIMPLEX3, 100),
    **{f"{name}-{grid}": (space, grid) for name, space in README_SPACES.items() for grid in (2, 3)},
    "pentagon-41": (PENTAGON, 41), "pentagon-101": (PENTAGON, 101),
    "quadrilateral-57": (QUADRILATERAL, 57), "quadrilateral-101": (QUADRILATERAL, 101),
}


@pytest.mark.parametrize("space, grid", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_landscape_csv_text_matches_reference_bytes(space, grid):
    land = sc.entropy_landscape(space, grid)
    assert land.csv_text() == reference_csv(land)


def test_landscape_csv_text_keeps_signed_zeros_infinities_and_repeats():
    nan, inf = math.nan, math.inf
    values = np.array([[0.0, -0.0, nan], [-inf, 0.0, -0.0], [LN2, nan, LN2], [nan, nan, nan]])
    land = sc.Landscape(np.array([-0.0, 0.5, 1.0 / 3.0, 2.0]), np.array([0.0, 0.1, -1e-300]), values, ())
    text = land.csv_text()
    assert text == reference_csv(land)
    assert text.splitlines() == [
        "x,y,entropy",
        "-0,0,0", "-0,0.10000000000000001,-0",
        "0.5,0,-inf", "0.5,0.10000000000000001,0", "0.5,-1e-300,-0",
        "0.33333333333333331,0,0.69314718055994529",
        "0.33333333333333331,-1e-300,0.69314718055994529",
    ]
    empty = sc.Landscape(np.zeros(2), np.zeros(2), np.full((2, 2), nan), ())
    assert empty.csv_text() == reference_csv(empty) == "x,y,entropy\n"


def brute_force_maxima(xs, ys, values):
    """Reference: grid points strictly above every present one of their eight neighbours."""
    n = len(xs)
    maxima = []
    for i in range(n):
        for j in range(n):
            v = values[i, j]
            if math.isnan(v):
                continue
            neighbors = [
                values[i + di, j + dj]
                for di in (-1, 0, 1) for dj in (-1, 0, 1)
                if (di, dj) != (0, 0) and 0 <= i + di < n and 0 <= j + dj < n
                and not math.isnan(values[i + di, j + dj])
            ]
            if neighbors and all(v > nv for nv in neighbors):
                maxima.append((float(xs[i]), float(ys[j]), float(v)))
    return tuple(maxima)


@pytest.mark.parametrize(
    "space", [SQUARE, TRIANGLE, PENTAGON, DISC, SIMPLEX3],
    ids=["square", "triangle", "pentagon", "disc", "simplex3"],
)
def test_landscape_matches_point_by_point_reference(space):
    land = sc.entropy_landscape(space, 41)
    for i, x in enumerate(land.xs):
        for j, y in enumerate(land.ys):
            coords = [x, y, 1.0 - x - y] if space == SIMPLEX3 else [x, y]
            v = land.values[i, j]
            assert math.isnan(v) != bool(space.contains_state(np.array(coords), tol=1e-12))
            if not math.isnan(v):
                assert abs(v - sc.entropy(space, sc.State(space, coords))) <= 1e-12
    assert land.maxima == brute_force_maxima(land.xs, land.ys, land.values)
