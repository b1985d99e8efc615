"""The stacked parts of ``decompose`` against the loops they replaced.

Density-matrix witnesses come from one Gram product of support rows, a pure
state being its own support row and the mixed ones taking one stacked support
eigensolve (``DensityMatrices.orthogonality_witnesses``); a polytope's clique
systems are factored one stack per clique size
(``_PolytopeGeometry.clique_systems``), and the family grid of each
underdetermined clique is one array.  The references below are the pairwise
``orthogonality_witness`` loop with one support eigensolve per state, the
per-clique ``matrix_rank``/``pinv`` and the per-sample family loop of the
earlier code, kept here as oracles; each must agree bit for bit, except that
a pure state's witness is checked against its own coordinate row bit for
bit, and against the eigensolve within PURE_WITNESS_GAP.  The polytope
oracles run in the record's frame, as the kernels do.  The enumeration
oracle also keeps the earlier partial rule, under which a clique solved a
point while dropping a weight: in the frame its solves give the same
decompositions as the full solves of the smaller cliques.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_geometries import pure_states, reference_ball_witness
from test_polygons import PROPERTIES, SQUARE, TRIANGLE, convex_polygons, polytope, regular_polygon

import spectral_cone as sc
from spectral_cone import cli, cone
from spectral_cone import geometries as geo
from spectral_cone.tolerances import (CLIQUE_RANK_TOL, GRID_MEMBERSHIP_TOL, SAME_STATE_TOL, SINGULARITY_TOL,
                                      WEIGHT_DIGITS, WEIGHT_DROP_TOL, ZERO_EIGENVALUE_TOL)

CUBE = polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
TETRAHEDRON = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
PRISM = polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
DENSITY = [geo.DensityMatrices(ring, n) for ring in ("real", "complex", "quaternion") for n in (2, 3, 4)]
DENSITY_IDS = [f"{s.ring}{s.n}" for s in DENSITY]
PURE_WITNESS_GAP = 2e-15  # about 9 float64 eps at unit scale: a pure row against its eigensolve rebuild


# ---------------------------------------------------------------------------
# density witnesses: one stacked support eigensolve against the pairwise loop
# ---------------------------------------------------------------------------

def reference_witness(space, s0, s1):
    """``orthogonality_witness`` as the earlier code computed it: one support eigensolve per state."""
    if np.max(np.abs(s0.coords - s1.coords)) <= SAME_STATE_TOL:
        return None
    if isinstance(space, geo.Polytope):  # solved cold on the vertices of the pair's smallest face, in the frame
        record = geo._polytope_geometry(space)
        return record.user_functional(geo._pair_witness(record, *record.to_frame([s0.coords, s1.coords])))
    if isinstance(space, geo.Ball):  # the face does not change the criterion
        return reference_ball_witness(s0, s1)
    if not isinstance(space, geo.DensityMatrices):
        return space.mutually_singular(s0, s1)[1]
    p0, p1 = space._support(s0.coords), space._support(s1.coords)
    if np.sum(p0 * np.conj(p1)).real / space.mult > SINGULARITY_TOL:  # Tr(p0 p1)
        return None
    return sc.AffineFunctional(space.coords_of(p1), 0.0)


def reference_witnesses(space, states) -> tuple:
    """The pairwise loop ``decompose`` ran before: one witness per pair."""
    return tuple(reference_witness(space, a, b) for a, b in itertools.combinations(states, 2))


def assert_same_witnesses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.linear.tobytes() == w.linear.tobytes()
            assert np.float64(g.offset).tobytes() == np.float64(w.offset).tobytes()


def is_pure_row(coords) -> bool:
    """The purity rule of ``orthogonality_witnesses``: 1 - sum c^2 at most ZERO_EIGENVALUE_TOL / 2."""
    return 1.0 - float(np.sum(coords * coords)) <= ZERO_EIGENVALUE_TOL / 2


def assert_density_witnesses(space, states, got, pure_gap=PURE_WITNESS_GAP):
    """got against the pairwise reference: the eigensolve's bits where the later state is mixed, and the
    state's own row (exact) and the eigensolve's row within pure_gap where it is pure."""
    want = reference_witnesses(space, states)
    pairs = list(itertools.combinations(states, 2))
    assert len(got) == len(want) == len(pairs)
    for (_, b), g, w in zip(pairs, got, want):
        if is_pure_row(b.coords) and w is not None and g is not None:
            assert g.linear.tobytes() == b.coords.tobytes()
            assert np.max(np.abs(g.linear - w.linear)) <= pure_gap
            assert np.float64(g.offset).tobytes() == np.float64(w.offset).tobytes()
        else:
            assert_same_witnesses([g], [w])


def from_form(space, form) -> np.ndarray:
    """Coordinates of the unit-trace rescaling of a Hermitian form."""
    return space.coords_of(form / np.trace(form).real * space.mult)


def eigenbasis(space, rng) -> np.ndarray:
    return np.linalg.eigh(space.forms(space.random_state(rng).coords))[1]


def repeated_eigenvalues(space, rng) -> np.ndarray:
    """Equal weight on the top and bottom eigenvectors of a random state (ring eigenvalue 1/2 twice)."""
    v, k = eigenbasis(space, rng), space.mult
    return from_form(space, v[:, -k:] @ v[:, -k:].conj().T + v[:, :k] @ v[:, :k].conj().T)


def rank_deficient(space, rng) -> np.ndarray:
    """A random state with its smallest ring eigenvalue set to zero."""
    w, v = np.linalg.eigh(space.forms(space.random_state(rng).coords))
    w[: space.mult] = 0.0
    return from_form(space, (v * w) @ v.conj().T)


ELEMENTS = {
    "pure": lambda space, rng: pure_states(space, rng, 1)[0].coords,
    "maximally-mixed": lambda space, rng: space.barycenter_coords(),
    "repeated-eigenvalues": repeated_eigenvalues,
    "rank-deficient": rank_deficient,
    "random": lambda space, rng: space.random_state(rng).coords,
}


@pytest.mark.parametrize("kind", list(ELEMENTS))
@pytest.mark.parametrize("space", DENSITY, ids=DENSITY_IDS)
def test_decompose_witnesses_match_pairwise(space, kind):
    rng = np.random.default_rng(15)
    for trace in (1.0, 0.37, 2.5):
        x = sc.ConeElement(space, trace, ELEMENTS[kind](space, rng))
        dec = geo.decompose(space, x, with_witnesses=True)
        assert all(is_pure_row(c.coords) for c in dec.components)  # rank-one components take no eigensolve
        assert_density_witnesses(space, dec.components, dec.witnesses)
        assert all(w is not None for w in dec.witnesses)  # components are pairwise orthogonal


@pytest.mark.parametrize("space", DENSITY, ids=DENSITY_IDS)
def test_witnesses_match_pairwise_on_any_states(space):
    # overlapping supports, repeated states and orthogonal pure states in one list
    rng = np.random.default_rng(150)
    v, k = eigenbasis(space, rng), space.mult
    pure = [sc.State(space, from_form(space, v[:, i:i + k] @ v[:, i:i + k].conj().T))
            for i in range(0, v.shape[1], k)]
    mixed = [space.random_state(rng) for _ in range(3)]
    states = [pure[0], mixed[0], pure[-1], mixed[0], *pure_states(space, rng, 1), *pure[1:], *mixed[1:],
              sc.State(space, rank_deficient(space, rng)), sc.State(space, space.barycenter_coords())]
    want = reference_witnesses(space, states)
    assert_density_witnesses(space, states, space.orthogonality_witnesses(states))
    assert any(w is None for w in want) and any(w is not None for w in want)
    assert any(is_pure_row(s.coords) for s in states) and not all(is_pure_row(s.coords) for s in states)
    # the pair form goes through the same stack
    for a, b in itertools.combinations(states, 2):
        assert_density_witnesses(space, [a, b], [geo.orthogonality_witness(a, b)])
        assert_density_witnesses(space, [a, b], [geo.mutually_singular(a, b)[1]])


@pytest.mark.parametrize("space", DENSITY, ids=DENSITY_IDS)
def test_nearly_pure_states_on_each_side_of_the_purity_bound(space):
    # (1 - e) p + e q for orthogonal pure p, q has 1 - Tr rho^2 = 2 e (1 - e): e = 2e-13 is pure and takes
    # its own row, e = 3e-13 is mixed and takes the eigensolve; the witness of (r, near) for a third pure r
    # (q itself at n = 2) is p within a few e either way
    rng = np.random.default_rng(152)
    v, k = eigenbasis(space, rng), space.mult
    p, q, r = (from_form(space, v[:, i:i + k] @ v[:, i:i + k].conj().T) for i in (0, k, v.shape[1] - k))
    for e, pure in ((2e-13, True), (3e-13, False)):
        near = sc.State(space, (1.0 - e) * p + e * q)
        assert is_pure_row(near.coords) is pure
        states = [sc.State(space, r), near]
        got = space.orthogonality_witnesses(states)
        assert_density_witnesses(space, states, got, pure_gap=4 * e)
        assert got[0] is not None
        assert np.max(np.abs(got[0].linear - states[1].coords)) <= 4 * e


@pytest.mark.parametrize("space", [geo.Simplex(3), geo.Ball(2), geo.SpinFactor(3), SQUARE, CUBE],
                         ids=["simplex3", "disc", "spin3", "square", "cube"])
def test_other_geometries_keep_the_pairwise_witnesses(space):
    rng = np.random.default_rng(151)
    states = pure_states(space, rng, 3) + [space.random_state(rng)]
    assert_same_witnesses(space.orthogonality_witnesses(states), reference_witnesses(space, states))


def test_fewer_than_two_states_have_no_witnesses():
    space = geo.DensityMatrices("complex", 3)
    assert space.orthogonality_witnesses([]) == ()
    assert space.orthogonality_witnesses(pure_states(space, np.random.default_rng(0), 1)) == ()


# ---------------------------------------------------------------------------
# clique systems: one stack per clique size against the per-clique factoring
# ---------------------------------------------------------------------------

def reference_clique_systems(space) -> list:
    """(idx, matrix, rank, pinv or None) per clique in clique order, factored one clique at a time."""
    systems = []
    record = geo._polytope_geometry(space)
    for idx in (tuple(i) for level in geo._cliques(record.graph) for i in level.tolist()):
        matrix = np.vstack([record.frame_vertices[list(idx)].T, np.ones((1, len(idx)))])
        rank = int(np.linalg.matrix_rank(matrix, tol=CLIQUE_RANK_TOL))
        systems.append((idx, matrix, rank, np.linalg.pinv(matrix) if rank == len(idx) else None))
    return systems


def assert_clique_systems_match(space):
    reference = reference_clique_systems(space)
    determined, underdetermined = geo._polytope_geometry(space).clique_systems
    assert list(underdetermined) == [idx for idx, _, rank, _ in reference if rank < len(idx)]
    full = [(idx, matrix, pinv) for idx, matrix, rank, pinv in reference if rank == len(idx)]
    for k, group in itertools.groupby(full, key=lambda system: len(system[0])):
        idx, pinv, matrix = determined[0]
        determined = determined[1:]
        group = list(group)
        assert idx.shape == (len(group), k)
        assert [tuple(i) for i in idx.tolist()] == [g[0] for g in group]
        assert matrix.tobytes() == np.stack([g[1] for g in group]).tobytes()
        assert pinv.tobytes() == np.stack([g[2] for g in group]).tobytes()
    assert determined == ()


@PROPERTIES
@given(verts=convex_polygons(4, 12))
def test_property_polygon_clique_stacks_match_per_clique(verts):
    assert_clique_systems_match(polytope(verts))


@pytest.mark.parametrize("space", [SQUARE, CUBE, TETRAHEDRON, *(polytope(regular_polygon(k)) for k in (5, 8, 12))],
                         ids=["square", "cube", "tetrahedron", "5-gon", "8-gon", "12-gon"])
def test_clique_stacks_match_per_clique(space):
    assert_clique_systems_match(space)


def test_cube_has_underdetermined_cliques():
    # a clique of more than m + 1 = 4 vertices, or a square face, has no determined weights
    determined, underdetermined = geo._polytope_geometry(CUBE).clique_systems
    assert (0, 1, 2, 3) in underdetermined and all(len(idx) >= 4 for idx in underdetermined)
    assert {idx.shape[1] for idx, _, _ in determined} == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# clique solutions: the solve at a power-of-two scale against the unscaled one
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def reference_clique_solutions(space, coords, total) -> list:
    """(idx, w, kept) per clique size from ``pinv @ rhs`` at total itself in the record's frame, the earlier
    unscaled solve; a one-vertex system's weight is the total, its row of ones."""
    scale, record = max(1.0, total), geo._polytope_geometry(space)
    rhs = np.append(total * record.to_frame(coords), np.full((len(coords), 1), total), axis=1).T
    out = []
    for idx, pinv, matrix in record.clique_systems[0]:
        w = np.repeat(rhs[None, -1:], len(idx), axis=0) if idx.shape[1] == 1 else pinv @ rhs
        residual = np.max(np.abs(matrix @ w - rhs), axis=1)
        ok = (np.min(w, axis=1) >= -WEIGHT_DROP_TOL * scale) & (residual <= SINGULARITY_TOL * scale)
        out.append((idx, w, ok[:, None, :] & (w > WEIGHT_DROP_TOL * scale)))
    return out


@np.errstate(over="ignore", invalid="ignore")
def partial_rule_clique_solutions(space, coords, total) -> list:
    """(idx, w, kept) per clique size by the earlier partial rule, on the weights of ``_clique_solutions``.

    A clique solves a point when no weight is below -WEIGHT_DROP_TOL * scale and the residual is within
    SINGULARITY_TOL * scale (in the record's frame, at total * 2**-e as the kernel solves); kept marks its
    weights above WEIGHT_DROP_TOL * scale, so a clique may solve a point while dropping a weight.
    ``_clique_solutions`` counts a clique only when it keeps every weight.
    """
    scale, e, record = max(1.0, total), max(0, math.frexp(total)[1]), geo._polytope_geometry(space)
    unit = math.ldexp(total, -e)
    rhs = np.append(unit * record.to_frame(coords), np.full((len(coords), 1), unit), axis=1).T
    out = []
    for (idx, w, _), (_, _, matrix) in zip(geo._clique_solutions(space, coords, total)[0], record.clique_systems[0]):
        residual = np.max(np.abs(matrix @ np.ldexp(w, -e) - rhs), axis=1)
        ok = (np.min(w, axis=1) >= -WEIGHT_DROP_TOL * scale) & (residual <= math.ldexp(SINGULARITY_TOL * scale, -e))
        out.append((idx, w, ok[:, None, :] & (w > WEIGHT_DROP_TOL * scale)))
    return out


def assert_scaled_solve_matches(space, coords, total):
    """The scaled solve against the unscaled one: the same weights, and ok where the earlier rule keeps them all."""
    got, solved = geo._clique_solutions(space, coords, total)
    want = reference_clique_solutions(space, coords, total)
    assert len(got) == len(want)
    for (idx, w, ok), (ref_idx, ref_w, ref_kept) in zip(got, want):
        assert idx.tobytes() == ref_idx.tobytes()
        assert w.tobytes() == ref_w.tobytes() and ok.tobytes() == np.all(ref_kept, axis=1).tobytes()
    assert solved.tobytes() == np.concatenate([ok for _, _, ok in got]).tobytes()
    assert np.all(solved.any(axis=0))  # these totals are far from the float limit: every point solves


TOTALS = st.one_of(st.floats(1e-3, 1e300), st.sampled_from([1e-3, 0.5, 1.0, 2.5, 1e300]))


@PROPERTIES
@given(verts=convex_polygons(4, 12), seed=st.integers(0, 2**32 - 1), total=TOTALS)
def test_property_polygon_scaled_solve_matches_unscaled(verts, seed, total):
    space = polytope(verts)
    points = np.vstack([space.barycenter_coords(), verts[:2].mean(axis=0),
                        np.random.default_rng(seed).dirichlet(np.ones(len(verts)), 8) @ space.vertex_array])
    assert_scaled_solve_matches(space, points, total)


@pytest.mark.parametrize("total", [1e-3, 0.4, 1.0, 2.5, 1e10, 1e300])
def test_cube_scaled_solve_matches_unscaled(total):
    verts = CUBE.vertex_array
    points = np.vstack([CUBE.barycenter_coords(), (verts[0] + verts[1]) / 2, verts[-1],
                        np.random.default_rng(17).dirichlet(np.ones(len(verts)), 12) @ verts])
    assert_scaled_solve_matches(CUBE, points, total)


def landscape_blocks(space, grid=101):
    """The blocks of grid points inside a polygon that a landscape of the grid solves, POINT_BLOCK at a time."""
    (x0, x1, y0, y1), chart = space.planar_chart()
    coords = chart(*np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid), indexing="ij"))
    inside = coords[space.contains_state(coords, tol=GRID_MEMBERSHIP_TOL)]
    return [inside[start:start + geo.POINT_BLOCK] for start in range(0, len(inside), geo.POINT_BLOCK)]


BLOCK_TOTALS = [1e-3, 1.0, 2.5, 1e300]


@pytest.mark.parametrize("total", BLOCK_TOTALS)
@pytest.mark.parametrize("space", [SQUARE, TRIANGLE, polytope(regular_polygon(5)), polytope(regular_polygon(12))],
                         ids=["square", "triangle", "pentagon", "dodecagon"])
def test_landscape_blocks_scaled_solve_matches_unscaled(space, total):
    """Blocks of a grid-101 landscape reach the matrix-product paths that a few points do not."""
    blocks = landscape_blocks(space)
    assert len(blocks[0]) == geo.POINT_BLOCK
    for block in blocks:
        assert_scaled_solve_matches(space, block, total)


@PROPERTIES
@given(verts=convex_polygons(3, 12), total=st.sampled_from(BLOCK_TOTALS))
def test_property_polygon_landscape_block_solve_matches_unscaled(verts, total):
    space = polytope(verts)
    assert_scaled_solve_matches(space, landscape_blocks(space)[0], total)


@pytest.mark.parametrize("total", BLOCK_TOTALS)
def test_cube_block_scaled_solve_matches_unscaled(total):
    verts = CUBE.vertex_array
    points = np.vstack([verts, (verts[:, None] + verts[None]).reshape(-1, 3) / 2,
                        np.random.default_rng(23).dirichlet(np.ones(len(verts)), geo.POINT_BLOCK) @ verts])
    assert_scaled_solve_matches(CUBE, points, total)


# ---------------------------------------------------------------------------
# enumeration: one key helper and array family grids against the per-sample loop
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")
def reference_enumeration(space, x) -> list:
    """(weights, component coords) of every decomposition, by the earlier per-clique and per-sample loops on the
    solves of the earlier partial rule."""
    total, scale = x.trace_weight, max(1.0, x.trace_weight)
    stacks = partial_rule_clique_solutions(space, np.asarray(x.coords, dtype=float)[None, :], total)
    seen, determined = set(), []
    for idx, w, kept in stacks:
        for c in np.flatnonzero(np.any(kept[..., 0], axis=1)):
            keep = kept[c, :, 0]
            support = tuple(int(i) for i in idx[c][keep])
            key = (support, tuple(np.round(w[c, keep, 0], WEIGHT_DIGITS)))
            if key not in seen:
                seen.add(key)
                determined.append((w[c, keep, 0], support))
    solutions = {(support, tuple(np.round(w, WEIGHT_DIGITS))): (np.asarray(w, dtype=float), support)
                 for w, support in determined}

    def add_sample(full_weights, clique_idx):
        keep = full_weights > WEIGHT_DROP_TOL * scale
        support = tuple(i for i, k in zip(clique_idx, keep) if k)
        if not support:
            return
        w = full_weights[keep]
        solutions.setdefault((support, tuple(np.round(w, WEIGHT_DIGITS))), (w, support))

    for clique in geo._polytope_geometry(space).clique_systems[1]:
        members = [np.array([dict(zip(sup, w)).get(i, 0.0) for i in clique])
                   for w, sup in determined if set(sup) <= set(clique)]
        if len(members) < 2:
            continue
        for wa, wb in itertools.combinations(members, 2):
            for k in range(1, geo.FAMILY_GRID_POINTS + 1):
                t = k / (geo.FAMILY_GRID_POINTS + 1.0)
                add_sample((1.0 - t) * wa + t * wb, clique)
        add_sample(np.mean(members, axis=0), clique)

    out = []
    for w, support in sorted(solutions.values(), key=lambda ws: (ws[1], tuple(ws[0]))):
        order = np.argsort(-w, kind="stable")
        out.append((w[order], tuple(np.array(space.vertices[support[i]]) for i in order)))
    return out


def assert_enumeration_matches(space, x):
    got = geo.enumerate_orthogonal_decompositions(space, x)
    want = reference_enumeration(space, x)
    assert len(got) == len(want)
    for dec, (weights, coords) in zip(got, want):
        assert dec.weights.tobytes() == weights.tobytes()
        assert [c.coords.tobytes() for c in dec.components] == [c.tobytes() for c in coords]


@PROPERTIES
@given(verts=convex_polygons(), seed=st.integers(0, 2**32 - 1), total=st.sampled_from([1.0, 0.4, 2.5]))
def test_property_polygon_enumeration_matches_per_sample_loop(verts, seed, total):
    space = polytope(verts)
    rng = np.random.default_rng(seed)
    for coords in (space.barycenter_coords(), rng.dirichlet(np.ones(len(verts))) @ space.vertex_array):
        assert_enumeration_matches(space, sc.ConeElement(space, total, coords))


@pytest.mark.parametrize("space", [CUBE, TETRAHEDRON, PRISM], ids=["cube", "tetrahedron", "prism"])
def test_enumeration_matches_per_sample_loop(space):
    rng = np.random.default_rng(19)
    verts = space.vertex_array
    points = [space.barycenter_coords(), (verts[0] + verts[1]) / 2, np.mean(verts[:3], axis=0),
              *(rng.dirichlet(np.ones(len(verts))) @ verts for _ in range(2))]
    for coords, total in zip(points, (1.0, 2.5, 0.4, 1.0, 1.7)):
        assert_enumeration_matches(space, sc.ConeElement(space, total, coords))


def test_cube_enumeration_walks_family_grids():
    # the barycenter of the cube is reached through underdetermined cliques, so the grids are exercised
    x = sc.State(CUBE, CUBE.barycenter_coords())
    determined = geo._solutions(geo._clique_solutions(CUBE, x.coords[None, :], 1.0)[0], 0)
    assert len(geo.enumerate_orthogonal_decompositions(CUBE, x)) > len(determined) > 1


# ---------------------------------------------------------------------------
# states and reconstructions built once
# ---------------------------------------------------------------------------

@pytest.fixture
def cone_elements(monkeypatch):
    """Count every ConeElement (and State) built."""
    built = []
    init = cone.ConeElement.__post_init__

    def counted(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(cone.ConeElement, "__post_init__", counted)
    return built


@pytest.mark.parametrize("space", [SQUARE, CUBE, TETRAHEDRON], ids=["square", "cube", "tetrahedron"])
def test_vertex_states_are_built_once(space):
    states = geo._polytope_geometry(space).vertex_states
    assert states is geo._polytope_geometry(space).vertex_states
    for s, v in zip(states, space.vertices, strict=True):
        assert s.coords.tobytes() == sc.State(space, np.array(v)).coords.tobytes()


def test_enumeration_builds_no_state(cone_elements):
    rng = np.random.default_rng(3)
    point = geo.random_state(CUBE, rng)
    first = geo.enumerate_orthogonal_decompositions(CUBE, point)
    cone_elements.clear()
    again = geo.enumerate_orthogonal_decompositions(CUBE, point)
    assert cone_elements == [] and len(again) == len(first) > 100
    assert all(a is b for da, db in zip(again, first, strict=True) for a, b in zip(da.components, db.components))


@pytest.mark.parametrize("name", ["complex3", "quaternion2", "simplex3", "disc", "square"])
def test_decompose_command_builds_only_its_element(cone_elements, name):
    space = cli.parse_space(name)
    coords = space.random_state(np.random.default_rng(5)).coords
    argv = ["decompose", "--space", name, "--element", json.dumps({"trace": 1.5, "coords": coords.tolist()})]
    out = io.StringIO()
    cone_elements.clear()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    payload = json.loads(out.getvalue())
    # the components are states by construction and the reconstruction compares coordinates
    assert len(cone_elements) == 1 and payload["n"] >= 2
    x = sc.ConeElement(space, 1.5, coords)
    assert payload["reconstruction_error"] == geo.decompose(space, x).reconstruction_error(x)
