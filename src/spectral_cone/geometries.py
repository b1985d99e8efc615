"""Concrete state-space geometries with orthogonality and decomposition.

Five families are supported: probability simplices, vertex-listed polytopes,
unit balls, density matrices over the real/complex/quaternion rings, and
spin factors (unit balls carrying the rank-2 Jordan algebra structure).

Every state is identified by a real coordinate vector:

* simplex: the probability vector itself;
* polytope: a point of the ambient space;
* ball and spin factor: a point of the closed unit ball;
* density matrices: the row-major entry flattening, with complex entries as
  (re, im) pairs and quaternion entries as (1, i, j, k) 4-tuples.

With this flattening the trace inner product of Hermitian matrices equals
the plain dot product of coordinate vectors, so affine functionals transfer
between pictures without conversion.  Density-matrix kernels run on stacked
complex forms that jordan's ring layer builds from coordinate rows
(``DensityMatrices.forms`` and its inverse ``coords_of``), never on per-row
HermitianMatrix objects.

Each descriptor class carries the behaviour of its geometry (faces, mutual
singularity, decomposition, entropy, sampling, its builtin divergence names,
channel suite and family draws); the module functions hold the logic shared
by every geometry and call those methods.

No geometry uses scipy.  A polygon takes its facets from Andrew's monotone
chain, and its orthogonality graph and every witness from one closed-form
interval test (run once on all its ordered vertex pairs for the graph and
the witnesses between vertices); a polytope of dimension 3 or more takes its
facets from its vertex m-subsets, and it and a segment each witness from a
phase-1 simplex.  One bounded LRU cache holds the polytope machinery: one
record per polytope of everything derived from its vertices, built in
stacked passes, with the witness of each ordered vertex pair it was asked
for (``_polytope_geometry``, at most ``POLYTOPE_CACHE_SIZE`` records).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import jordan
from .cone import AffineFunctional, ConeElement, State, _reduce_rows, require_space, require_states
from .decomposition import OrthogonalDecomposition, _reconstruction_error, maximal_spectra, weights_entropy
from .errors import ApexError, DecompositionError, NonSpectralSpaceError, NotInConeError, PreconditionError
from .tolerances import (BALL_CENTER_TOL, CLIQUE_RANK_TOL, COLLINEAR_RTOL, COMPLEMENT_MASS_MIN,
                         DISTINCT_STATE_TOL, MEMBERSHIP_TOL, NEGATIVE_EIGENVALUE_TOL, PINV_RCOND, RECONSTRUCTION_TOL,
                         SAME_STATE_TOL, SINGULARITY_TOL, SUPPORT_TOL, WEIGHT_DIGITS, WEIGHT_DROP_TOL,
                         WITNESS_FEASIBILITY_TOL, ZERO_EIGENVALUE_TOL)

MAX_ENUMERATION_VERTICES = 12
MAX_FACET_COST = 450_000  # vertex m-subsets times m that the facet search of a polytope in m >= 3 dimensions may test
POLYTOPE_CACHE_SIZE = 64  # polytope records (everything derived from the vertices) kept
FAMILY_GRID_POINTS = 10
POINT_BLOCK = 4096  # points per stacked clique solve, or vertex subsets times dimension per facet-search SVD
MASS_ATTEMPTS = 16  # draws of one complement state before the locality sampler gives up
DISTINCT_ATTEMPTS = 8  # draws of an s2 row of a locality trial until it differs from s1


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class _Geometry:
    """Defaults shared by the descriptor classes, which are frozen dataclasses.  Each class defines

    * ``kind``, the name of its JSON descriptor, whose other fields are the dataclass fields (``to_json``);
    * ``decompositions(coords, total)``, the decomposition kernel: for (N, coords_len) state rows s, the
      weights (N, r) of an orthogonal decomposition of total * s and the coordinates (N, r, coords_len) of
      its components, pure states by construction, in any order; a row with fewer than r components pads
      with weights that ``decompose`` drops.  On the canonical geometries the weights are the spectrum,
      whose -sum w ln w is ``entropies``; polytopes override it with the least entropy over all their
      decompositions;
    * ``orthogonality_witnesses(states)``, which tests each pair on its smallest face; ``mutually_singular``
      reads the pair's entry, as the smallest face changes no verdict but on polytopes, which override it;
    * ``rank``, ``smallest_face(states)`` and ``random_state(rng)``;
    * ``orthogonal_triples(rng, trials)``: (s0, s1, s2, vacuous), three (trials, coords_len) coordinate
      stacks with s0 pure and s1, s2 orthogonal to it, and a (trials,) flag that is true where s1 = s2
      because the space (or the polytope vertex) has fewer than three pairwise orthogonal states, so that
      the locality identity holds vacuously.  The rows are not membership-tested.
    """

    # one decomposition spectrum per element, given in closed form
    canonical_decomposition = True
    # names of the builtin divergences of the space; squared_euclidean applies on every space
    divergences = ("squared_euclidean",)
    # whether sufficiency reports on the space carry "exploratory": true
    exploratory = False
    coordinate_scale = 1.0  # the largest shift of a coordinate when a homogeneous frame coordinate moves by 1

    def entropies(self, coords: np.ndarray, total: float) -> np.ndarray:
        """Entropy of total * s for every row s: -sum w ln w of its ``decompositions`` weights."""
        return weights_entropy(self.decompositions(coords, total)[0].T)

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)}}

    def mutually_singular(self, s0: State, s1: State):
        """(flag, witness) of two distinct states on the whole space."""
        witness = self.orthogonality_witnesses([s0, s1])[0]
        return witness is not None, witness

    def planar_chart(self):
        """(bounding box, chart) for a 2-dimensional space; chart maps x, y arrays to coords rows."""
        raise ValueError(f"landscape needs a two-dimensional space, got a {self.kind} space of dimension {self.dim}")

    def family_draws(self, rng: np.random.Generator, lead: tuple) -> np.ndarray:
        """Base rows (*lead, coords_len) of the channel families, as successive single draws."""
        raise ValueError(f"no channel families on {self.kind} spaces")

    def channel_suite(self, rng: np.random.Generator) -> list:
        """Reversible (phi, psi) pairs with their family maps, drawn from rng."""
        raise ValueError(f"no builtin channel suite for {self.kind} spaces")


@dataclass(frozen=True)
class Simplex(_Geometry):
    """Probability vectors of length n (affine dimension n - 1)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("simplex needs at least one vertex")

    kind = "simplex"
    divergences = ("kl", "squared_euclidean", "itakura_saito")

    @property
    def dim(self) -> int:
        return self.n - 1

    @property
    def coords_len(self) -> int:
        return self.n

    rank = coords_len  # the n vertices are pairwise orthogonal

    @np.errstate(over="ignore", invalid="ignore")
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., n) array; a sum that overflows or is NaN fails."""
        coords = np.asarray(coords, dtype=float)
        return (_reduce_rows(np.min, coords) >= -tol) & (np.abs(np.sum(coords, axis=-1) - 1.0) <= tol)

    def barycenter_coords(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)

    def functional_range(self, a: AffineFunctional):
        values = a.linear + a.offset
        return float(np.min(values)), float(np.max(values))

    def smallest_face(self, states) -> Face:
        idx = tuple(np.nonzero(np.any([s.coords > SUPPORT_TOL for s in states], axis=0))[0].tolist())
        return Face(self, "whole" if len(idx) == self.n else "vertices", vertex_indices=idx)

    def orthogonality_witnesses(self, states) -> tuple:
        """The witness of every state pair from one overlap test of their support masks: states a, b are
        orthogonal when no coordinate is above SUPPORT_TOL in both, and the witness is the mask of b.  One state
        (within SAME_STATE_TOL) is never orthogonal, as its largest coordinate, about 1/n or more, overlaps."""
        supp = np.array([s.coords for s in states]).reshape(len(states), self.n) > SUPPORT_TOL
        return _pair_witnesses(~np.any(supp[:, None] & supp[None], axis=-1), supp.astype(float), 0.0)

    def decompositions(self, coords: np.ndarray, total: float):
        """The weights total * s of every row s, on the vertices."""
        return total * coords, np.broadcast_to(np.eye(self.n), (len(coords), self.n, self.n))

    def planar_chart(self):
        if self.n != 3:
            return super().planar_chart()
        return (0.0, 1.0, 0.0, 1.0), lambda x, y: np.stack([x, y, 1.0 - x - y], axis=-1)

    def random_state(self, rng: np.random.Generator) -> State:
        return State(self, rng.dirichlet(np.ones(self.n)))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a vertex; s1, s2 Dirichlet(1) points on random faces of the facet opposite it, drawn as stacks.

        A face is the first k of the facet's vertices in a uniform random order, k uniform in 1..n-1,
        and its weights are standard exponentials normalised over it; s2 is redrawn by
        ``_redraw_equal_rows``.
        """
        n = self.n
        if n < 3:
            eye, i = np.eye(n), rng.integers(n, size=trials)
            return eye[i], eye[(i + 1) % n], eye[(i + 1) % n], np.ones(trials, dtype=bool)
        i, others = rng.integers(n, size=trials), np.arange(n - 1)
        rests = others + (others >= i[:, None])  # row t: the vertices other than i[t]

        def face_points(rest):
            k = rng.integers(1, n, size=(len(rest), 1))
            face = np.take_along_axis(rest, np.argsort(rng.random(rest.shape), axis=1), axis=1)
            gaps = np.where(others < k, rng.standard_exponential(rest.shape), 0.0)
            rows = np.zeros((len(rest), n))
            np.put_along_axis(rows, face, gaps / np.sum(gaps, axis=1, keepdims=True), axis=1)
            return rows

        s1 = face_points(rests)
        s2 = _redraw_equal_rows(s1, face_points(rests), lambda redo: face_points(rests[redo]))
        return np.eye(n)[i], s1, s2, np.zeros(trials, dtype=bool)

    def family_draws(self, rng: np.random.Generator, lead: tuple) -> np.ndarray:
        """Dirichlet(1) points mixed with 2 % of the barycenter."""
        return rng.dirichlet(np.ones(self.n), size=lead) * 0.98 + 0.02 / self.n

    def channel_suite(self, rng: np.random.Generator) -> list:
        """Two random permutations and, for n >= 3, a random and a fixed merge of two vertices."""
        pairs = [_permutation_pair(rng.permutation(self.n)), _permutation_pair(rng.permutation(self.n))]
        if self.n >= 3:
            i, j = rng.choice(self.n, size=2, replace=False)
            pairs.append(_merge_pair(int(i), int(j), float(rng.uniform(0.2, 0.8))))
            pairs.append(_merge_pair(0, 1, 0.5))
        return pairs


@dataclass(frozen=True)
class Polytope(_Geometry):
    """Convex hull of a full-dimensional tuple of extreme points."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        if not verts:
            raise ValueError("polytope needs vertices")
        m = len(verts[0])
        if m == 0:
            raise ValueError("polytope vertices need at least one coordinate")
        if any(len(v) != m for v in verts):
            raise ValueError("vertices must share one ambient dimension")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_hash", hash(verts))  # every polytope cache lookup hashes the polytope
        geo = _polytope_geometry(self)  # validates extremality and full dimension
        object.__setattr__(self, "vertex_array", geo.vertex_array)
        object.__setattr__(self, "coordinate_scale", geo.coordinate_scale)

    def __hash__(self):
        return self._hash

    kind = "polytope"
    canonical_decomposition = False

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    coords_len = dim

    @property
    def rank(self) -> int:
        if len(self.vertices) == self.dim + 1:  # affinely independent: a simplex
            return len(self.vertices)
        raise NonSpectralSpaceError("polytope is not a simplex; rank undefined")

    @np.errstate(invalid="ignore")  # an infinite coordinate times a zero normal entry is NaN, and fails
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., dim) array."""
        geo = _polytope_geometry(self)
        return _reduce_rows(np.max, geo.to_frame(coords) @ geo.facet_normals.T + geo.facet_offsets) <= tol

    def barycenter_coords(self) -> np.ndarray:
        return np.mean(self.vertex_array, axis=0)

    def functional_range(self, a: AffineFunctional):
        values = self.vertex_array @ a.linear + a.offset
        return float(np.min(values)), float(np.max(values))

    def to_json(self) -> dict:
        return {**super().to_json(), "vertices": [list(v) for v in self.vertices]}

    def smallest_face(self, states) -> Face:
        geo = _polytope_geometry(self)
        face = _faces(geo, geo.to_frame(np.mean([s.coords for s in states], axis=0))[None])[0]
        return Face(self, "whole" if np.all(face) else "vertices", vertex_indices=tuple(np.flatnonzero(face).tolist()))

    def mutually_singular(self, s0: State, s1: State):
        witness = _polytope_geometry(self).witness(s0.coords, s1.coords, whole=True)
        return witness is not None, witness

    def orthogonality_witnesses(self, states) -> tuple:
        """Per pair, mutual singularity restricted to the vertices of the pair's smallest face (the record's
        ``witness``), which refuses one state in the frame."""
        geo = _polytope_geometry(self)
        return tuple(geo.witness(a.coords, b.coords) for a, b in itertools.combinations(states, 2))

    def decompositions(self, coords: np.ndarray, total: float):
        """Per row, of the clique solutions no other majorizes, the lexicographically largest spectrum."""
        size, stacks = self.dim + 1, _clique_solutions(self, coords, total)[0]
        weights, components = np.zeros((len(coords), size)), np.zeros((len(coords), size, self.dim))
        for row in range(len(coords)):
            sols = _solutions(stacks, row)
            if not sols:
                raise DecompositionError("no orthogonal decomposition found; geometry bug?")
            # the weights are positive, so these lists order lexicographically as their zero paddings do; each is
            # taken over its total, as two solves within the residual bound may total up to 2 SINGULARITY_TOL apart
            spectra = [sorted((w / w.sum()).tolist(), reverse=True) for w, _ in sols]
            w, support = sols[max(np.flatnonzero(maximal_spectra(spectra)).tolist(), key=spectra.__getitem__)]
            weights[row, : len(w)], components[row, : len(w)] = w, self.vertex_array[list(support)]
        return weights, components

    def entropies(self, coords: np.ndarray, total: float) -> np.ndarray:
        """Least decomposition entropy over the determined clique systems that solve each point."""
        out = np.empty(len(coords))
        for start in range(0, len(coords), POINT_BLOCK):
            stacks, solved = _clique_solutions(self, coords[start:start + POINT_BLOCK], total)
            h = np.concatenate([weights_entropy(w, ok[:, None], axis=1) for _, w, ok in stacks])
            np.min(np.where(solved, h, np.inf), axis=0, out=out[start:start + POINT_BLOCK])
        if not np.all(out < np.inf):  # -inf is a solved point near the float limit
            raise DecompositionError("no orthogonal decomposition found")
        return out

    def planar_chart(self):
        if self.dim != 2:
            return super().planar_chart()
        verts = self.vertex_array
        box = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(), verts[:, 1].max())
        return box, lambda x, y: np.stack([x, y], axis=-1)

    def ambiguous_probes(self, rng: np.random.Generator, samples: int):
        """(coords, every decomposition) of each spectrality probe that two clique systems solve, in order.

        The probes are the barycenter, then samples states drawn and tested as ``random_state`` draws
        them one by one.  A probe that at most one clique system solves, keeping every weight, has at
        most one decomposition, since every underdetermined family needs two determined members; the
        others are enumerated from the same block solve.
        """
        nv, verts = len(self.vertices), self.vertex_array
        probes = np.array([self.barycenter_coords(), *(w @ verts for w in rng.dirichlet(np.ones(nv), samples))])
        require_states(self, probes)
        for start in range(0, len(probes), POINT_BLOCK):
            stacks, solved = _clique_solutions(self, probes[start:start + POINT_BLOCK], 1.0)
            for j in np.flatnonzero(np.count_nonzero(solved, axis=0) > 1):
                yield probes[start + j], _decompositions(self, stacks, j, 1.0)

    def random_state(self, rng: np.random.Generator) -> State:
        w = rng.dirichlet(np.ones(len(self.vertices)))
        return State(self, w @ self.vertex_array)

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random vertex; s1, s2 the first two vertices orthogonal to it in the order of uniform keys
        (both the one partner if it has one), drawn as stacks."""
        i = rng.integers(len(self.vertices), size=trials)
        partners = _polytope_geometry(self).graph[i]
        if not np.all(np.any(partners, axis=1)):
            raise PreconditionError("polytope vertex with no orthogonal partner")
        order = np.argsort(np.where(partners, rng.random(partners.shape), np.inf), axis=1)
        single = np.count_nonzero(partners, axis=1) == 1
        s0, s1, s2 = self.vertex_array[[i, order[:, 0], np.where(single, order[:, 0], order[:, 1])]]
        return s0, s1, s2, single


@dataclass(frozen=True)
class Ball(_Geometry):
    """The closed unit ball in d dimensions; every boundary point is pure."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("ball dimension must be positive")

    kind = "ball"
    rank = 2

    @property
    def dim(self) -> int:
        return self.d

    coords_len = dim

    @np.errstate(over="ignore")
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., d) array; a norm that overflows fails."""
        return np.linalg.norm(coords, axis=-1) <= 1.0 + tol

    def barycenter_coords(self) -> np.ndarray:
        return np.zeros(self.d)

    def functional_range(self, a: AffineFunctional):
        r = float(np.linalg.norm(a.linear))
        return a.offset - r, a.offset + r

    def smallest_face(self, states) -> Face:
        first = np.asarray(states[0].coords)
        same = all(np.max(np.abs(np.asarray(s.coords) - first)) <= SINGULARITY_TOL for s in states)
        if same and abs(np.linalg.norm(first) - 1.0) <= SINGULARITY_TOL:
            return Face(self, "point", point=first)
        return Face(self, "whole")

    def orthogonality_witnesses(self, states) -> tuple:
        """The witness of every state pair that is antipodal on the boundary, both norms within SINGULARITY_TOL
        of 1 and x_a + x_b within it of 0: x_b / 2 + 1/2.  One state (within SAME_STATE_TOL) is never antipodal:
        x_a + x_b is then within SAME_STATE_TOL of 2 x_a, of norm about 2 on the boundary."""
        x = np.array([s.coords for s in states]).reshape(len(states), self.d)
        boundary = np.array([abs(np.linalg.norm(s.coords) - 1.0) <= SINGULARITY_TOL for s in states], dtype=bool)
        antipodal = np.max(np.abs(x[:, None] + x[None]), axis=-1) <= SINGULARITY_TOL
        return _pair_witnesses(antipodal & boundary[:, None] & boundary[None], x / 2.0, 0.5)

    def decompositions(self, coords: np.ndarray, total: float):
        """The antipodal pair through each row x, weighted total * (1 +- r) / 2, r = |x| clipped at 1.

        r is 0 within BALL_CENTER_TOL of the center (taking the first axis) and 1 where ``decompose`` drops 1 - r.
        """
        norm = np.linalg.norm(coords, axis=-1)
        center = norm <= BALL_CENTER_TOL
        r = np.where(center, 0.0, np.minimum(norm, 1.0))
        r[total * (1.0 - r) / 2.0 <= WEIGHT_DROP_TOL * max(1.0, total)] = 1.0
        direction = coords / np.where(center, 1.0, norm)[:, None]
        direction[center] = np.eye(self.d)[0]
        weights = np.stack([total * (1.0 + r) / 2.0, total * (1.0 - r) / 2.0])  # (2, N): entropies add 2 rows
        return weights.T, np.stack([direction, -direction], axis=-2)

    def planar_chart(self):
        if self.d != 2:
            return super().planar_chart()
        return (-1.0, 1.0, -1.0, 1.0), lambda x, y: np.stack([x, y], axis=-1)

    def random_state(self, rng: np.random.Generator) -> State:
        v = rng.standard_normal(self.d)
        norm = float(np.linalg.norm(v))
        radius = rng.uniform() ** (1.0 / self.d)
        return State(self, (v / norm * radius) if norm > 0 else np.zeros(self.d))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random boundary point; s1 = s2 its antipode."""
        v = rng.standard_normal((trials, self.d))
        s0 = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return s0, -s0, -s0, np.ones(trials, dtype=bool)


@dataclass(frozen=True)
class SpinFactor(Ball):
    """Unit ball state set carrying the spin-factor Jordan algebra.

    The state with ball coordinates x is the algebra element (1/2, x/2),
    whose eigenvalues are (1 +- |x|) / 2.
    """

    kind = "spin"


@dataclass(frozen=True)
class DensityMatrices(_Geometry):
    """Density matrices over a division ring: positive, unit trace.

    Every computation runs on stacks of complex forms (..., m, m): the
    matrix itself over the real and complex rings (m = n), its complex
    embedding over the quaternions (m = 2n).  The class only reshapes
    coordinate rows to (..., n, n, k) entries and back (``_entries``,
    ``_rows``); the ring enters through jordan's ring layer alone.
    HermitianMatrix appears only at the public boundary (``state_matrix``,
    ``state_from_matrix``, ``Face.projection``, ``random_state``).
    """

    ring: str
    n: int

    def __post_init__(self):
        if self.ring not in jordan.RINGS:
            raise ValueError(f"unknown ring {self.ring!r}")
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        # the ring's entry width and eigenvalue multiplicity, read by every reshape and spectrum
        object.__setattr__(self, "components_per_entry", jordan.entry_width(self.ring))
        object.__setattr__(self, "mult", jordan.multiplicity(self.ring))

    kind = "density"
    divergences = ("matrix_negentropy",)

    @property
    def exploratory(self) -> bool:
        return self.ring == "quaternion"

    @property
    def dim(self) -> int:
        n, k = self.n, self.components_per_entry
        return n + k * (n * (n - 1)) // 2 - 1

    @property
    def coords_len(self) -> int:
        return self.n * self.n * self.components_per_entry

    @property
    def rank(self) -> int:
        return self.n

    def _entries(self, coords: np.ndarray) -> np.ndarray:
        return coords.reshape(*coords.shape[:-1], self.n, self.n, self.components_per_entry)

    def _rows(self, entries: np.ndarray) -> np.ndarray:
        return entries.reshape(*entries.shape[:-3], self.coords_len)

    def forms(self, coords) -> np.ndarray:
        """Complex forms (..., m, m) of the Hermitian parts of (..., coords_len) coordinate rows."""
        herm = jordan.hermitian_entries(self.ring, self._entries(np.asarray(coords, dtype=float)))
        return jordan.complex_forms(self.ring, jordan.entry_data(self.ring, herm))

    def coords_of(self, forms) -> np.ndarray:
        """Coordinate rows of the Hermitian parts of (..., m, m) complex forms; inverts ``forms``."""
        return self._rows(jordan.form_entries(self.ring, forms))

    def traces(self, coords) -> np.ndarray:
        """Ring trace of every row."""
        return jordan.entry_traces(self._entries(np.asarray(coords)))

    def state_matrix(self, s: State) -> jordan.HermitianMatrix:
        return jordan.from_form(self.ring, self.forms(s.coords))

    def state_from_matrix(self, m: jordan.HermitianMatrix) -> State:
        return State(self, self._rows(jordan.ring_entries(self.ring, m.data)))

    @np.errstate(over="ignore", invalid="ignore")
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., coords_len) array.

        A row is a state when it is Hermitian within tol, has unit trace
        within tol and no eigenvalue below -tol; the eigenvalues of all rows
        that pass the first two tests come from one stacked eigvalsh call.
        Entries whose sums overflow or are NaN (inf - inf) fail the first two tests.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1:] != (self.coords_len,):
            return np.zeros(coords.shape[:-1], dtype=bool)
        rows = coords.reshape(-1, self.coords_len)
        entries = self._entries(rows)
        herm = jordan.hermitian_entries(self.ring, entries)
        defect = np.max(np.abs(entries - herm).reshape(rows.shape), axis=1)
        ok = (defect <= tol) & (np.abs(self.traces(rows) - 1.0) <= tol)
        forms = jordan.complex_forms(self.ring, jordan.entry_data(self.ring, herm[ok]))
        ok[ok] = np.min(np.linalg.eigvalsh(forms), axis=-1, initial=np.inf) >= -tol
        return ok.reshape(coords.shape[:-1])

    def barycenter_coords(self) -> np.ndarray:
        coords = np.zeros(self.coords_len)
        coords[:: (self.n + 1) * self.components_per_entry] = 1.0 / self.n
        return coords

    def functional_range(self, a: AffineFunctional):
        w = jordan.ring_eigenvalues(np.linalg.eigvalsh(self.forms(a.linear)), self.mult)
        return a.offset + float(w[0]), a.offset + float(w[-1])

    def _support(self, coords) -> np.ndarray:
        """Forms of the support projections of (..., coords_len) rows.

        The support is spanned by the eigenvalue clusters (the
        ``cluster_indices`` rule, row by row) whose mean is above
        SUPPORT_TOL; cluster means ascend, so these are the top columns of
        each eigenbasis.
        """
        coords = np.asarray(coords, dtype=float)
        w, v = np.linalg.eigh(self.forms(coords.reshape(-1, self.coords_len)))
        kept = np.sum(jordan.cluster_means(w) > SUPPORT_TOL, axis=-1)
        out = np.empty_like(v)
        for k in np.unique(kept, return_counts=True)[0]:  # with no flag, np.unique imports numpy.ma
            top = np.ascontiguousarray(v[kept == k][..., v.shape[-1] - k:])
            out[kept == k] = top @ np.conj(np.swapaxes(top, -1, -2))
        return out.reshape(*coords.shape[:-1], *v.shape[-2:])

    def smallest_face(self, states) -> Face:
        proj = self._support(np.mean([s.coords for s in states], axis=0))
        whole = abs(np.trace(proj).real / self.mult - self.n) <= SINGULARITY_TOL
        return Face(self, "whole" if whole else "support", projection=jordan.from_form(self.ring, proj))

    def orthogonality_witnesses(self, states) -> tuple:
        """The witness of every state pair, from one Gram product of the rows of the support projections.

        Distinct states a, b are orthogonal when Tr(p_a p_b), the dot product of the coordinate rows of their
        support projections, is 0 within SINGULARITY_TOL; the witness is then the row of p_b.  A pure row is
        its own support row, and only the other rows take the ``_support`` eigensolve.
        """
        if len(states) < 2:
            return ()
        tests = np.array([s.coords for s in states])
        # A row is pure when 1 - sum c^2 <= ZERO_EIGENVALUE_TOL / 2.  On a state, whose eigenvalues lie in [0, 1]
        # and add up to 1, sum c^2 is Tr rho^2 and 1 - Tr rho^2 = sum_i lambda_i (1 - lambda_i), a sum of
        # nonnegative terms.  Every eigenvalue but the largest has lambda_i <= 1/2, so lambda_i <= 2 lambda_i
        # (1 - lambda_i) <= 2 (1 - Tr rho^2) <= ZERO_EIGENVALUE_TOL: ``_support`` would keep the top cluster alone.
        mixed = 1.0 - np.einsum("ij,ij->i", tests, tests) > ZERO_EIGENVALUE_TOL / 2
        same = np.max(np.abs(tests[:, None] - tests[None]), axis=-1) <= SAME_STATE_TOL
        if np.any(mixed):
            tests[mixed] = self.coords_of(self._support(tests[mixed]))
        return _pair_witnesses(~same & (tests @ tests.T <= SINGULARITY_TOL), tests, 0.0)

    def decompositions(self, coords: np.ndarray, total: float):
        """Ring eigenvalues of total * s and the coordinates of their rank-one idempotents, from one ``eigh``."""
        t, forms = jordan.rank_one_forms(*np.linalg.eigh(self.forms(coords)), self.mult)
        return self._weights(t, total), self.coords_of(forms)

    def entropies(self, coords: np.ndarray, total: float) -> np.ndarray:
        """-sum w ln w of the ``decompositions`` weights, from the same ``eigh`` without the idempotents."""
        t = jordan.ring_eigenvalues(np.linalg.eigh(self.forms(coords))[0], self.mult)
        return weights_entropy(self._weights(t, total).T)

    @staticmethod
    def _weights(t: np.ndarray, total: float) -> np.ndarray:
        """total * t, weights within ZERO_EIGENVALUE_TOL of 0 counted as 0, as in ``jordan.spectral_entropies``;
        deeper negative ones are left for ``decompose`` to refuse."""
        weights = total * t
        return np.where(np.abs(weights) > ZERO_EIGENVALUE_TOL, weights, 0.0)

    def random_state(self, rng: np.random.Generator) -> State:
        return self.state_from_matrix(jordan.random_density_matrix(self.ring, self.n, rng))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random pure state; s1, s2 random states pinched into the complement of its support, drawn as stacks.

        A stack of complement candidates is a density stack, a uniform stack and a pure stack: a row is
        the pure draw where its uniform is below 1/2 and the density draw otherwise, compressed by the
        complement projection of s0 and renormalised.  The rows of mass at most COMPLEMENT_MASS_MIN are
        drawn again as one stack of just those rows, MASS_ATTEMPTS draws in all before RuntimeError; for
        n >= 3 s2 is redrawn by ``_redraw_equal_rows``.  At n = 1 the complement is 0, and every triple is
        the vacuous (s0, s0, s0), as on ``Simplex(1)``.
        """
        ring, n = self.ring, self.n
        s0 = self._rows(jordan.ring_entries(ring, jordan.pure_matrices(
            ring, jordan.gaussian_draws(ring, n, rng, (trials,), cols=1))))
        if n == 1:
            return s0, s0, s0, np.ones(trials, dtype=bool)
        comp = np.eye(n * self.mult) - self._support(s0)

        def complement_states(rows):
            out, todo = np.empty((len(rows), self.coords_len)), np.arange(len(rows))
            for _ in range(MASS_ATTEMPTS):
                data = jordan.positive_matrices(ring, jordan.gaussian_draws(ring, n, rng, (todo.size,)))
                pure = rng.uniform(size=todo.size) < 0.5
                picks = jordan.pure_matrices(ring, jordan.gaussian_draws(ring, n, rng, (todo.size,), cols=1))
                data[pure] = picks[pure]
                c = comp[rows[todo]]
                compressed = self.coords_of(c @ jordan.complex_forms(ring, data) @ c)
                mass = self.traces(compressed)
                kept = mass > COMPLEMENT_MASS_MIN
                out[todo[kept]] = (1.0 / mass[kept])[:, None] * compressed[kept]
                if np.all(kept):
                    return out
                todo = todo[~kept]
            raise RuntimeError("failed to sample a state in the orthogonal complement")

        s1 = complement_states(np.arange(trials))
        if n < 3:
            return s0, s1, s1, np.ones(trials, dtype=bool)
        s2 = _redraw_equal_rows(s1, complement_states(np.arange(trials)), complement_states)
        return s0, s1, s2, np.zeros(trials, dtype=bool)

    def family_draws(self, rng: np.random.Generator, lead: tuple) -> np.ndarray:
        """The density kernel with eigenvalue floor 0.05."""
        data = jordan.positive_matrices(self.ring, jordan.gaussian_draws(self.ring, self.n, rng, lead), floor=0.05)
        return self._rows(jordan.ring_entries(self.ring, data))

    def channel_suite(self, rng: np.random.Generator) -> list:
        """Conjugation by a random unitary and, for n >= 2, a pinch followed by another."""
        pairs = [_unitary_conjugation_pair(self, rng, pinch=False)]
        if self.n >= 2:
            pairs.append(_unitary_conjugation_pair(self, rng, pinch=True))
        return pairs


def _pair_witnesses(apart: np.ndarray, linear: np.ndarray, offset: float) -> tuple:
    """Per pair (a, b) of the states, in combinations order, the witness with linear part linear[b] and the
    offset where the (states, states) mask apart holds, else None."""
    return tuple(AffineFunctional._trusted(linear[b], offset) if apart[a, b] else None
                 for a, b in itertools.combinations(range(len(apart)), 2))


def _redraw_equal_rows(s1: np.ndarray, s2: np.ndarray, draw: Callable) -> np.ndarray:
    """s2 with its rows within DISTINCT_STATE_TOL of s1 drawn again, ``draw(rows)`` as one stack of just
    those rows, DISTINCT_ATTEMPTS draws of s2 in all (the last one is kept)."""
    redo = np.arange(len(s1))
    for _ in range(DISTINCT_ATTEMPTS - 1):
        redo = redo[np.max(np.abs(s2[redo] - s1[redo]), axis=1) <= DISTINCT_STATE_TOL]
        if not redo.size:  # nothing left to draw again
            break
        s2[redo] = draw(redo)
    return s2


def unit_square() -> Polytope:
    return Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))


_KINDS = {cls.kind: cls for cls in (Simplex, Polytope, Ball, SpinFactor, DensityMatrices)}


def space_from_json(data: dict):
    """Space from its JSON descriptor; a malformed descriptor raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("space descriptor must be a JSON object")
    if "kind" not in data:
        raise ValueError("space descriptor lacks the field 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    fields = {f.name: data.get(f.name) for f in dataclasses.fields(_KINDS[kind])}
    missing = [key for key in fields if key not in data]
    if missing:
        raise ValueError(f"{kind} space descriptor lacks the field {missing[0]!r}")
    unknown = [key for key in data if key != "kind" and key not in fields]
    if unknown:
        raise ValueError(f"{kind} space descriptor has the unknown field {unknown[0]!r}")
    for key in ("n", "d"):
        if isinstance(data.get(key, 0), bool) or not isinstance(data.get(key, 0), int):
            raise ValueError(f"space field {key!r} must be an integer, got {data[key]!r}")
    if kind == "polytope":
        verts = data["vertices"]
        if not (isinstance(verts, list) and all(isinstance(v, list) for v in verts)
                and all(isinstance(c, (int, float)) and not isinstance(c, bool) for v in verts for c in v)):
            raise ValueError("polytope vertices must be a list of coordinate lists")
    if kind == "density":
        fields["ring"] = str(fields["ring"])
    return _KINDS[kind](**fields)


# ---------------------------------------------------------------------------
# Channel suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelPair:
    """Affine maps phi, psi with psi(phi(s)) = s on a reversible family of states.

    family maps rows of the base draw shared by a suite (the space's
    ``family_draws``) onto the family; family, phi and psi all map
    (k, coords_len) stacks of coordinate rows.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    family: Callable[[np.ndarray], np.ndarray]


def _normalised(rows: np.ndarray) -> np.ndarray:
    return rows / np.sum(rows, axis=-1, keepdims=True)


def _permutation_pair(perm: np.ndarray) -> ChannelPair:
    inv = np.argsort(perm)

    def apply(p, rows):
        out = np.zeros_like(rows)
        out[:, p] = rows
        return out

    return ChannelPair(
        f"permutation{tuple(int(i) for i in perm)}",
        lambda rows: apply(perm, rows),
        lambda rows: apply(inv, rows),
        _normalised,
    )


def _merge_pair(i: int, j: int, alpha: float) -> ChannelPair:
    def phi(rows):
        out = np.array(rows, dtype=float)
        out[:, i] += out[:, j]
        out[:, j] = 0.0
        return out

    def psi(rows):
        out = np.array(rows, dtype=float)
        mass = out[:, i] + out[:, j]
        out[:, i] = alpha * mass
        out[:, j] = (1.0 - alpha) * mass
        return out

    return ChannelPair(f"merge({i},{j};{alpha})", phi, psi, lambda rows: _normalised(psi(rows)))


def _unitary_conjugation_pair(space: DensityMatrices, rng: np.random.Generator, pinch: bool) -> ChannelPair:
    n = space.n
    u = jordan.random_unitary(space.ring, n, rng)
    u_star = np.conj(u.T)
    side = np.arange(n) < n // 2
    # coordinate mask of the two diagonal blocks of the pinch
    mask = np.repeat((side[:, None] == side[None, :]).reshape(-1), space.components_per_entry)

    def phi(rows):
        rows = rows * mask if pinch else rows  # pinching is the identity on the family
        return space.coords_of(u @ space.forms(rows) @ u_star)

    def psi(rows):
        return space.coords_of(u_star @ space.forms(rows) @ u)

    def family(rows):
        if not pinch:
            return rows
        rows = rows * mask
        return (1.0 / space.traces(rows))[:, None] * rows

    return ChannelPair("pinch+rotate" if pinch else "rotate", phi, psi, family)


# ---------------------------------------------------------------------------
# Cached polytope machinery
# ---------------------------------------------------------------------------

def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call; nothing in the package calls it."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def ConvexHull(points):
    """scipy.spatial.ConvexHull, imported on the first call; nothing in the package calls it."""
    from scipy.spatial import ConvexHull as hull

    return hull(points)


class _PolytopeGeometry:
    """Everything derived from a polytope's vertices: one record per polytope (``_polytope_geometry``).

    It works in one frame, x -> (x - center) 2**-exponent, center the middle of the vertices' bounding box
    and their largest extent in [1/2, 1) there, so a tolerance means the same at any place and size.  Built,
    it validates the vertex list and finds the facet normals in the user's coordinates; offsets, faces, pair
    tests, witnesses and clique systems are in the frame, which ``Polytope`` maps coordinates into
    (``to_frame``) and witnesses out of (``user_functional``).  The vertex States, a polygon's vertex-pair
    tests, the graph and the clique systems are built on first use, and the witness of an ordered vertex
    pair when first asked for, so a record holds at most nv (nv - 1) witnesses and they go with it.  A
    polytope looks its record up instead of holding it, so an equal polytope parsed again shares it.
    """

    def __init__(self, space: Polytope):
        verts = np.array(space.vertices, dtype=float)
        nv, m = verts.shape
        if not np.all(np.isfinite(verts)):
            raise ValueError("polytope vertices must be finite")
        if nv < m + 1:
            raise ValueError("polytope must be full-dimensional in its ambient space")
        lo, hi = np.min(verts, axis=0), np.max(verts, axis=0)
        if m == 1:
            if nv != 2 or lo[0] == hi[0]:
                raise ValueError("a 1-dimensional polytope is a segment with two vertices")
            normals = np.array([[-1.0], [1.0]])
        else:
            n_extreme, normals = _polygon_hull(verts) if m == 2 else _subset_facets(verts)
            if n_extreme != nv:
                raise ValueError("vertex list contains non-extreme points")
        self.center = lo / 2 + hi / 2  # halved first, so that no sum overflows
        self.exponent = math.frexp(float(np.max(hi / 2 - lo / 2)))[1] + 1
        unit = math.ldexp(1.0, self.exponent) if self.exponent < 1024 else math.inf  # 2**1024 is past the floats
        self.coordinate_scale = unit + float(np.max(np.abs(self.center)))  # a unit frame error, in coordinates
        self.vertex_array, self.frame_vertices = verts, self.to_frame(verts)
        self.facet_normals, self.facet_offsets = normals, -np.max(normals @ self.frame_vertices.T, axis=1)  # each once
        self.space = space
        self.witnesses = {}  # (i, j) -> the witness of vertex i and vertex j, see ``witness``

    @np.errstate(over="ignore")  # a point far outside a small polytope maps to inf, outside every facet
    def to_frame(self, coords) -> np.ndarray:
        """Rows (..., m) of the user's coordinates in the frame."""
        return np.ldexp(np.asarray(coords, dtype=float) - self.center, -self.exponent)

    def user_functional(self, f: Optional[AffineFunctional]) -> Optional[AffineFunctional]:
        """The affine map f of the frame as a map of the user's coordinates; None stays None."""
        linear = None if f is None else np.ldexp(f.linear, -self.exponent)
        return None if f is None else AffineFunctional._trusted(linear, f.offset - float(linear @ self.center))

    @cached_property
    def vertex_states(self) -> tuple:
        """The vertex States; a State is frozen with read-only coords, so they are shared."""
        return tuple(State._trusted(self.space, np.array(v)) for v in self.space.vertices)

    @cached_property
    def vertex_index(self) -> dict:
        """The index of each vertex, keyed by the bytes of its coordinates."""
        return {v.tobytes(): i for i, v in enumerate(self.vertex_array)}

    @cached_property
    def vertex_pairs(self) -> tuple:
        """(found, t) of ``_polygon_orthogonal`` on every ordered vertex pair (i, j) of a polygon, as (nv, nv)."""
        verts, nv = self.frame_vertices, len(self.frame_vertices)
        i, j = np.divmod(np.arange(nv * nv), nv)
        return tuple(a.reshape(nv, nv) for a in _polygon_orthogonal(self, verts[i], verts[j]))

    def witness(self, zero_at: np.ndarray, one_at: np.ndarray, whole: bool = False) -> Optional[AffineFunctional]:
        """The ``_pair_witness`` of two user points on their smallest face (all when whole), mapped out.  Kept per
        ordered pair of vertices, found by the bytes of the coordinates (so -0.0 is no vertex 0.0); (j, i) is a
        pair of its own, since 1 - f would print other digits.  Other pairs, and whole, are solved per call."""
        pair = self.vertex_index.get(zero_at.tobytes()), self.vertex_index.get(one_at.tobytes())
        if whole or None in pair:
            return self.user_functional(_pair_witness(self, self.to_frame(zero_at), self.to_frame(one_at), whole))
        if pair not in self.witnesses:
            self.witnesses[pair] = self.user_functional(_pair_witness(self, *self.frame_vertices[[*pair]], pair=pair))
        return self.witnesses[pair]

    @cached_property
    def graph(self) -> np.ndarray:
        """The orthogonality graph of the vertices, as a read-only boolean adjacency matrix."""
        nv = len(self.vertex_array)
        adj, (i, j) = np.zeros((nv, nv), dtype=bool), np.triu_indices(nv, 1)
        if self.space.dim == 2:
            adj[i, j] = adj[j, i] = self.vertex_pairs[0][i, j]
        else:
            adj[i, j] = adj[j, i] = [self.witness(self.vertex_array[a], self.vertex_array[b]) is not None
                                     for a, b in zip(i, j)]
        adj.setflags(write=False)
        return adj

    @cached_property
    def clique_systems(self) -> tuple:
        """(determined, underdetermined) weight systems of the pairwise-orthogonal vertex subsets (cliques).

        A clique's system is its vertex columns over a row of ones, (m+1, k); the cliques of one size are
        factored as one stack by one thin SVD, which gives both the rank (singular values above
        CLIQUE_RANK_TOL) and, as ``np.linalg.pinv`` computes it, the pseudo-inverse of the full-rank ones.
        determined holds per size, in clique order, (idx (G, k), pinv (G, k, m+1), matrix (G, m+1, k)) of
        the cliques of full column rank; underdetermined the index tuples of the others, in clique order.
        """
        verts = self.frame_vertices
        if len(verts) > MAX_ENUMERATION_VERTICES:
            raise ValueError(f"decomposition search supports at most {MAX_ENUMERATION_VERTICES} vertices, "
                             f"got {len(verts)}")
        determined, underdetermined = [], []
        for idx in _cliques(self.graph):
            k = idx.shape[1]
            matrix = np.concatenate([verts[idx].swapaxes(1, 2), np.ones((len(idx), 1, k))], axis=1)
            u, s, vt = np.linalg.svd(matrix, full_matrices=False)
            full = np.count_nonzero(s > CLIQUE_RANK_TOL, axis=1) == k
            if np.any(full):
                u, s, vt = u[full], s[full], vt[full]
                inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > PINV_RCOND * np.max(s, axis=1, keepdims=True))
                determined.append((idx[full], vt.swapaxes(1, 2) @ (inv[..., None] * u.swapaxes(1, 2)), matrix[full]))
            underdetermined.extend(map(tuple, idx[~full].tolist()))
        return tuple(determined), tuple(underdetermined)


def _polygon_hull(verts: np.ndarray):
    """(hull vertex count, facet normals) of 2-D points, by Andrew's monotone chain.

    The chain (Andrew, IPL 9(5), 1979) walks the points in lexicographic
    order and drops every point where the boundary does not turn left, so a
    repeated point or one inside an edge is not a hull vertex; a cross
    product l - r within COLLINEAR_RTOL * (|l| + |r|), its rounding error,
    is no turn, so points collinear in decimal go as in qhull.  The normals
    are the outward unit normals of the hull's edges.
    """
    pts = verts[np.lexsort((verts[:, 1], verts[:, 0]))].tolist()
    overflow = False  # a cross product or its rounding bound left the floats, so that turn popped a point

    def half(points):
        nonlocal overflow
        chain = []
        for x, y in points:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                left, right = (bx - ax) * (y - ay), (by - ay) * (x - ax)
                if left - right > COLLINEAR_RTOL * (abs(left) + abs(right)):
                    break
                overflow |= not math.isfinite(abs(left) + abs(right))
                chain.pop()
            chain.append((x, y))
        return chain[:-1]

    hull = np.array(half(pts) + half(pts[::-1]))  # counter-clockwise
    if overflow and len(hull) < len(verts):
        raise ValueError("polygon coordinates are too far apart for the hull arithmetic")
    if len(hull) < 3:
        raise ValueError("vertex list is not full-dimensional")
    edge = np.roll(hull, -1, axis=0) - hull
    return len(hull), np.stack([edge[:, 1], -edge[:, 0]], axis=1) / np.hypot(edge[:, 0], edge[:, 1])[:, None]


def _subset_facets(verts: np.ndarray):
    """(extreme vertex count, outward unit facet normals) of points in m >= 3 dimensions.

    Each vertex m-subset whose least singular value exceeds the slack (COLLINEAR_RTOL times the extent)
    spans the hyperplane normal to its edges, from a stacked SVD; it is a facet when every vertex is on
    one side within the slack, kept once per vertex set on it, from its best-conditioned subset.  A
    vertex is extreme when its facets' normals have rank m; copies of a point count once."""
    nv, m = verts.shape
    if (count := math.comb(nv, m)) * m > MAX_FACET_COST:
        raise ValueError(f"facet search supports at most {MAX_FACET_COST} vertex subsets times dimension, "
                         f"got {count * m} ({count} subsets of {nv} vertices in {m} dimensions)")
    slack, subsets, found = COLLINEAR_RTOL * np.max(np.ptp(verts, axis=0)), itertools.combinations(range(nv), m), []
    while (idx := np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, max(1, POINT_BLOCK // m))),
                              dtype=np.intp).reshape(-1, m)).size:
        _, sv, vh = np.linalg.svd(verts[idx[:, 1:]] - verts[idx[:, :1]])
        eqs = np.column_stack([vh[:, -1], -np.sum(vh[:, -1] * verts[idx[:, 0]], axis=1)])
        dist = eqs[:, :-1] @ verts.T + eqs[:, -1:]
        below, above = np.all(dist <= slack, axis=1), np.all(dist >= -slack, axis=1)
        keep = (sv[:, -1] > slack) & (below | above)
        found.append((np.where(below, 1.0, -1.0)[keep, None] * eqs[keep], np.abs(dist[keep]) <= slack, -sv[keep, -1]))
    eqs, on, cond = (np.concatenate(part) for part in zip(*found))
    if not len(eqs) or np.any(np.all(on, axis=1)):  # every subset degenerate, or every point on one plane
        raise ValueError("vertex list is not full-dimensional")
    order = np.argsort(cond, kind="stable")
    on, first = np.unique(on[order], axis=0, return_index=True)
    eqs = eqs[order[first]]
    extreme = np.linalg.matrix_rank(eqs[:, :-1] * on.T[:, :, None]) == m
    return len(np.unique(on.T[extreme], axis=0, return_counts=True)[0]), eqs[:, :-1]  # see _support


@lru_cache(maxsize=POLYTOPE_CACHE_SIZE)
def _polytope_geometry(space: Polytope) -> _PolytopeGeometry:
    return _PolytopeGeometry(space)


def _faces(geometry: _PolytopeGeometry, centers: np.ndarray, whole: bool = False) -> np.ndarray:
    """(N, nv) masks of the vertices of the smallest face containing each of the (N, m) frame centers: the vertices
    on every facet within SINGULARITY_TOL of the center, so every vertex where no facet is (or when whole)."""
    normals, offsets = geometry.facet_normals, geometry.facet_offsets
    active = np.abs(centers @ normals.T + offsets) <= (-1.0 if whole else SINGULARITY_TOL)
    on_facet = np.abs(geometry.frame_vertices @ normals.T + offsets) <= SINGULARITY_TOL
    return np.all(~active[:, None, :] | on_facet, axis=-1)


def _pair_witness(geometry: _PolytopeGeometry, zero_at: np.ndarray, one_at: np.ndarray, whole: bool = False,
                  pair: Optional[tuple] = None) -> Optional[AffineFunctional]:
    """An affine map of the frame with value 0 at zero_at, 1 at one_at and [0, 1] on the vertices of their smallest
    face (all when whole), or None: in closed form on polygons (read from the record's ``vertex_pairs`` at pair,
    two vertex indices), else ``_affine_test_feasible``; uncached (see ``_PolytopeGeometry.witness``)."""
    if geometry.space.dim == 2:
        if pair is None:
            found, t = (a[0] for a in _polygon_orthogonal(geometry, zero_at[None], one_at[None], whole))
        else:
            found, t = (a[pair] for a in geometry.vertex_pairs)
        if not found:
            return None
        d = one_at - zero_at
        c = d / (d @ d) + t * np.array([-d[1], d[0]])
        return AffineFunctional._trusted(c, -float(c @ zero_at))
    face = _faces(geometry, ((zero_at + one_at) / 2.0)[None], whole)[0]
    return _affine_test_feasible(geometry.frame_vertices[face], zero_at, one_at)


def _affine_test_feasible(vertex_array: np.ndarray, zero_at: np.ndarray,
                          one_at: np.ndarray) -> Optional[AffineFunctional]:
    """An affine map with value 0 at zero_at, 1 at one_at and [0, 1] on the vertices within WITNESS_FEASIBILITY_TOL,
    or None: f(x) = c . (x - zero_at), c = d / |d|^2 + y . basis as in ``_polygon_orthogonal`` (d = one_at - zero_at,
    basis orthonormal rows spanning d's complement, no y term for a vertex within SINGULARITY_TOL of the pair's
    line), at the y of ``_least_violation``."""
    d = one_at - zero_at
    if np.max(np.abs(d)) <= SAME_STATE_TOL:
        return None
    basis, rel = np.linalg.svd(d[None])[2][1:], vertex_array - zero_at
    g = rel @ basis.T
    g[np.linalg.norm(g, axis=1) <= SINGULARITY_TOL] = 0.0
    y, violation = _least_violation(g, rel @ d / (d @ d))
    c = d / (d @ d) + y @ basis
    return None if violation > WITNESS_FEASIBILITY_TOL else AffineFunctional._trusted(c, -float(c @ zero_at))


def _least_violation(g: np.ndarray, a: np.ndarray):
    """(y, t): the least t >= 0 with -t <= a + g y <= 1 + t in every row, and a y attaining it.

    Chvatal's auxiliary (phase-1) program, min t subject to g y - t <= 1 - a and -g y - t <= a (y = y+ - y-),
    is feasible once t enters the row of the most negative right-hand side; a dense tableau simplex under
    Bland's rule (Math. Oper. Res. 2(2), 1977) then terminates without a limit, at once if t leaves the
    basis.  While t is basic its row is minus the cost row, so an improving column has a pivot there.
    With g scaled to entries of at most 1, entries within row length * epsilon of 0 count as 0."""
    (k, n), scale = g.shape, np.max(np.abs(g), initial=0.0) or 1.0
    side = np.vstack([g, -g]) / scale
    table = np.vstack([np.column_stack([side, -side, -np.ones(2 * k), np.eye(2 * k), np.concatenate([1.0 - a, a])]),
                       np.eye(1, 2 * n + 2 * k + 2, 2 * n)])  # columns y+, y-, t, slacks, rhs; then t's costs
    basis, zero = np.arange(2 * n + 1, 2 * n + 2 * k + 1), table.shape[1] * np.finfo(float).eps

    def pivot(r, j):
        table[r] /= table[r, j]
        table[:] -= np.outer(table[:, j] - (np.arange(len(table)) == r), table[r])
        basis[r] = j

    if np.min(table[:-1, -1]) < 0.0:
        pivot(int(np.argmin(table[:-1, -1])), 2 * n)
    while 2 * n in basis and (enter := np.flatnonzero(table[-1, :-1] < -zero)).size:
        cand = np.flatnonzero(table[:-1, enter[0]] > zero)
        ratio = table[cand, -1] / table[cand, enter[0]]
        tied = cand[ratio == ratio.min()]
        pivot(tied[np.argmin(basis[tied])], enter[0])
    values = np.bincount(basis, weights=table[:-1, -1], minlength=table.shape[1] - 1)  # 0 off the basis
    return (values[:n] - values[n: 2 * n]) / scale, max(values[2 * n], 0.0)


def _polygon_orthogonal(geometry: _PolytopeGeometry, p0: np.ndarray, p1: np.ndarray, whole: bool = False):
    """(orthogonal, t) of the polygon point pairs (p0[p], p1[p]) of the record's frame, in closed form.

    orthogonal is the verdict of ``orthogonal`` (``mutually_singular`` when whole) on the two states.  On
    the vertices vk of their smallest face (all when whole), f(p0) = 0 and f(p1) = 1 make a witness
    f(x) = c . (x - p0) with c = d / |d|^2 + t d_perp, d = p1 - p0, so f(vk) = a_k + t g_k (g_k = 0 within
    SINGULARITY_TOL of the line p0 p1).  It exists when the intervals of t where each f(vk) lies in [0, 1],
    within WITNESS_FEASIBILITY_TOL, meet in [L, U].  t is the point of [L, U] where the two vertices
    bounding it are equally far, in f, from the ends of [0, 1] (the tolerance cancels); 0 if t is free.
    """
    verts, face = geometry.frame_vertices, _faces(geometry, (p0 + p1) / 2.0, whole)  # (pairs, vertices)
    d = p1 - p0
    rel = verts - p0[:, None, :]
    g = rel[..., 1] * d[:, None, 0] - rel[..., 0] * d[:, None, 1]
    g[~face | (np.abs(g) <= SINGULARITY_TOL * np.hypot(d[:, 0], d[:, 1])[:, None])] = 0.0
    rows = np.arange(len(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sum(rel * d[:, None, :], axis=-1) / np.sum(d * d, axis=-1)[:, None]
        lo, hi = -WITNESS_FEASIBILITY_TOL - a, 1.0 + WITNESS_FEASIBILITY_TOL - a  # bounds on t * g
        lower = np.where(g > 0, lo / g, np.where(g < 0, hi / g, -np.inf))
        upper = np.where(g > 0, hi / g, np.where(g < 0, lo / g, np.inf))
        k, m = np.argmax(lower, axis=1), np.argmin(upper, axis=1)  # the vertices bounding t
        (low, w_low), (up, w_up) = (lower[rows, k], np.abs(g[rows, k])), (upper[rows, m], np.abs(g[rows, m]))
        t = np.where(np.isfinite(low), (w_low * low + w_up * up) / (w_low + w_up), 0.0)
    fixed_ok = (g != 0) | ((lo <= 0.0) & (hi >= 0.0))  # f(vk) = a_k for every t
    distinct = np.max(np.abs(d), axis=1) > SAME_STATE_TOL
    return distinct & (low <= up) & np.all(~face | fixed_ok, axis=1), t


def _cliques(adj: np.ndarray) -> list:
    """Every nonempty clique of the graph, one (G, k) index array per size k, each in lexicographic order.

    Each size-k clique is extended by every later vertex adjacent to all its members, which lists the
    cliques of size k + 1 in lexicographic order.
    """
    level, later, out = np.arange(len(adj))[:, None], np.arange(len(adj)), []
    while level.size:
        out.append(level)
        g, v = np.nonzero(np.all(adj[level], axis=1) & (later > level[:, -1:]))
        level = np.column_stack([level[g], v])
    return out


@np.errstate(over="ignore", invalid="ignore")  # an unsolved system's weights may overflow when scaled back
def _clique_solutions(space: Polytope, coords, total):
    """Solve every determined clique system for the N points total * coords[i] at once, in the record's frame.

    Returns per clique size, in clique order, (idx, w, ok): vertex indices (G, k), weights (G, k, N) and ok
    (G, N), true where the system solves the point keeping every weight (each above WEIGHT_DROP_TOL * scale,
    residual within SINGULARITY_TOL * scale, scale = max(1, total)); and solved, the ok masks stacked.  A
    solve dropping a weight is the smaller clique's, whose residual in the frame is at most that weight.  A
    one-vertex system's weight is the total (its row of ones).  Solving at total * 2**-e, below 1, scales
    every rounding exactly (short of underflow) and keeps the solve from overflowing.  rhs keeps its layout,
    which picks the BLAS path of w; residuals are taken in place against a C-contiguous copy.
    """
    geo = _polytope_geometry(space)
    scale, e = max(1.0, total), max(0, math.frexp(total)[1])
    unit, drop, singular = (math.ldexp(v, -e) for v in (total, WEIGHT_DROP_TOL * scale, SINGULARITY_TOL * scale))
    rhs = np.append(unit * geo.to_frame(coords), np.full((len(coords), 1), unit), axis=1).T
    target = np.ascontiguousarray(rhs)
    stacks = []
    for idx, pinv, matrix in geo.clique_systems[0]:
        w = np.repeat(target[None, -1:], len(idx), axis=0) if idx.shape[1] == 1 else pinv @ rhs
        fit = matrix * w if idx.shape[1] == 1 else matrix @ w
        residual = np.max(np.abs(np.subtract(fit, target, out=fit), out=fit), axis=1)
        ok = (np.min(w, axis=1) > drop) & (residual <= singular)  # before w is scaled back in place
        stacks.append((idx, np.ldexp(w, e, out=w), ok))
    return stacks, np.concatenate([ok for _, _, ok in stacks])


def _solutions(stacks, j) -> list:
    """The (weights, support) of every clique system of the ``_clique_solutions`` stacks that solves point j, in
    clique order.  A solving system keeps all its weights, so its support is its own vertex set: no two share one."""
    return [(w[r, :, j], tuple(idx[r].tolist())) for idx, w, ok in stacks for r in np.flatnonzero(ok[:, j]).tolist()]


# ---------------------------------------------------------------------------
# Faces, mutual singularity, orthogonality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """The smallest face of a space containing a set of states.

    kind is one of "whole", "vertices" (polytope/simplex vertex subset),
    "support" (matrix support projection) or "point" (ball extreme point).
    """

    space: object
    kind: str
    vertex_indices: tuple = ()
    projection: Optional[jordan.HermitianMatrix] = None
    point: Optional[np.ndarray] = None


def smallest_face(space, states) -> Face:
    """Smallest face of the space containing all given states."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    require_space(space, states)
    return space.smallest_face(states)


def mutually_singular(s0: State, s1: State):
    """Whether some test on the space of the states maps s0 to 0 and s1 to 1; returns (flag, witness)."""
    require_space(s0.space, (s1,))
    return s0.space.mutually_singular(s0, s1)


def orthogonal(s0: State, s1: State) -> bool:
    """Mutual singularity inside the smallest face containing both states."""
    return orthogonality_witness(s0, s1) is not None


def orthogonality_witness(s0: State, s1: State) -> Optional[AffineFunctional]:
    """Witness test for orthogonality, valid on the smallest face of the pair; None if not orthogonal."""
    require_space(s0.space, (s1,))
    return s0.space.orthogonality_witnesses((s0, s1))[0]


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decompose(space, x: ConeElement, with_witnesses: bool = False) -> OrthogonalDecomposition:
    """Orthogonal decomposition of a cone element into at most dim + 1 pure states.

    One row of the space's ``decompositions`` kernel, weights at or below WEIGHT_DROP_TOL * max(1, trace) dropped
    and the rest sorted descending; it rebuilds x within RECONSTRUCTION_TOL * max(1, trace) * ``coordinate_scale``,
    and the gap checked is its ``checked_error``.
    Polytopes search pairwise-orthogonal vertex subsets for a decomposition maximal in the majorization ordering
    (lexicographically largest spectrum among incomparable maxima); the other geometries have canonical ones:
    vertex weights (simplex), an antipodal pair (ball, spin factor) or rank-one eigenprojections (matrices).
    """
    require_space(space, (x,))
    if x.is_apex:
        raise ApexError("the apex has no orthogonal decomposition")
    weights, rows = (a[0] for a in space.decompositions(x.coords[None, :], x.trace_weight))
    scale = max(1.0, x.trace_weight)
    if np.min(weights) < -NEGATIVE_EIGENVALUE_TOL * scale:
        raise NotInConeError(f"negative weight {np.min(weights)} in the spectrum of a cone element")
    kept = np.flatnonzero(weights > WEIGHT_DROP_TOL * scale)
    if not kept.size:  # only a trace of at most r * WEIGHT_DROP_TOL drops every weight
        raise DecompositionError("no decomposition weight above the drop tolerance WEIGHT_DROP_TOL * max(1, trace)")
    order = kept[np.argsort(-weights[kept], kind="stable")]
    weights, components = weights[order], tuple(State._trusted(space, rows[i]) for i in order)
    witnesses = space.orthogonality_witnesses(components) if with_witnesses else None
    if order.size > space.dim + 1:
        raise DecompositionError("decomposition exceeds the dimension bound")
    error = _reconstruction_error(weights, components, x)
    if not error <= RECONSTRUCTION_TOL * scale * space.coordinate_scale:  # NaN fails too
        raise DecompositionError("decomposition does not reconstruct the element")
    return OrthogonalDecomposition(space, weights, components, witnesses, error)


def enumerate_orthogonal_decompositions(space, s: ConeElement):
    """All orthogonal decompositions of a cone element.

    A space with canonical decompositions yields the one of ``decompose``.
    For polytopes this walks every pairwise-orthogonal vertex subset.  When
    the weight system of a subset is underdetermined its solutions form a
    polytope; the walk returns that polytope's vertices (the determined
    sub-subset solutions) plus interior samples: a grid on every segment
    between two solution vertices and the barycenter of all of them.
    """
    require_space(space, (s,))
    if space.canonical_decomposition:
        return [decompose(space, s)]
    if s.is_apex:
        raise ApexError("the apex has no orthogonal decomposition")
    return _decompositions(space, _clique_solutions(space, s.coords[None, :], s.trace_weight)[0], 0, s.trace_weight)


@np.errstate(over="ignore")  # weights near the float limit overflow in the family grid and round to inf in the keys
def _decompositions(space: Polytope, stacks, j: int, total: float) -> list:
    """The decompositions of ``enumerate_orthogonal_decompositions`` of point j of the ``_clique_solutions`` stacks.

    The candidates are nv-wide weight rows: the determined ones, then each underdetermined clique's grid and
    barycenter, each keeping its weights above WEIGHT_DROP_TOL * max(1, total).  Two are one decomposition when
    they share the key, the bytes of the row with the kept weights rounded to WEIGHT_DIGITS and -0.0, which no
    kept weight rounds to, elsewhere; the first row with a key keeps it, and a row that keeps no weight goes.
    """
    nv, solutions = len(space.vertices), _solutions(stacks, j)
    basic = np.zeros((len(solutions), nv))  # full weight rows, nonzero on the support
    for r, (w, support) in enumerate(solutions):
        basic[r, list(support)] = w
    rows, t = [basic], (np.arange(1, FAMILY_GRID_POINTS + 1) / (FAMILY_GRID_POINTS + 1.0))[:, None]
    for clique in _polytope_geometry(space).clique_systems[1]:
        # basic solutions of this clique (determined ones supported inside it), in C order for np.mean
        members = basic[:, clique][np.all(np.delete(basic, clique, axis=1) == 0, axis=1)]
        if len(members) < 2:
            continue
        a, b = np.triu_indices(len(members), 1)  # the pairs in combinations order
        grid = ((1.0 - t) * members[a][:, None] + t * members[b][:, None]).reshape(-1, len(clique))
        rows.append(np.zeros((len(grid) + 1, nv)))
        rows[-1][:, clique] = np.vstack([grid, np.mean(members, axis=0)])
    rows = np.concatenate(rows)
    keep = rows > WEIGHT_DROP_TOL * max(1.0, total)
    keys = np.where(keep, rows.round(WEIGHT_DIGITS), -0.0).view(np.dtype((np.void, 8 * nv)))[:, 0]
    candidates = [(rows[i][keep[i]], tuple(np.flatnonzero(keep[i]).tolist()))  # np.unique: see _support
                  for i in np.unique(keys, return_index=True)[1].tolist() if np.any(keep[i])]
    out, states = [], _polytope_geometry(space).vertex_states
    for w, support in sorted(candidates, key=lambda ws: (ws[1], tuple(ws[0]))):
        order = np.argsort(-w, kind="stable")
        components = tuple(states[support[i]] for i in order)
        out.append(OrthogonalDecomposition(space, w[order], components))
    return out


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def random_state(space, rng: np.random.Generator) -> State:
    return space.random_state(rng)


def random_cone_element(space, rng: np.random.Generator) -> ConeElement:
    """A random state scaled by a trace drawn uniformly from [0.1, 3)."""
    s = random_state(space, rng)
    return ConeElement(space, rng.uniform(0.1, 3.0), s.coords)
