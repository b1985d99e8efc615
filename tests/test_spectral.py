"""Tests for spectra, majorization, entropy and entropy landscapes."""

import math

import numpy as np
import pytest

import spectral_cone as sc
from spectral_cone import geometries as geo
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


def test_majorizes_rejects_unequal_totals():
    with pytest.raises(ValueError):
        majorizes(Spectrum([1.0]), Spectrum([0.5]))


def test_entropy_pure_state_is_zero():
    assert sc.entropy(SIMPLEX3, SIMPLEX3.vertex_state(0)) == 0.0
    assert sc.entropy(SQUARE, SQUARE.vertex_state(3)) == 0.0
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
            assert abs(sc.entropy(space, s) - min(d.spectrum().entropy() for d in decs)) <= 1e-12


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
                    assert a.entropy() <= b.entropy() + 1e-12


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


def test_landscape_csv_rows_cover_interior():
    land = sc.entropy_landscape(DISC, 21)
    x, y, h = land.csv_rows()
    assert np.all(x * x + y * y <= 1.0 + 1e-9)
    assert len(x) == len(y) == len(h) == np.count_nonzero(~np.isnan(land.values))
    assert len(x) < 21 * 21  # corners excluded


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
