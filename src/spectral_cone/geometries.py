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

Only segments and polytopes of dimension 3 or more use scipy, imported on the
first call of the ``linprog`` or ``ConvexHull`` wrapper below.  A polygon
takes its facets from Andrew's monotone chain, and its orthogonality graph
and every witness from one closed-form interval test; a polytope of dimension
3 or more takes its facets from qhull and each witness from a HiGHS program.
Two bounded LRU caches hold the polytope machinery: one record per polytope
of everything derived from its vertices (``_polytope_geometry``, at most
``POLYTOPE_CACHE_SIZE``), and the witness memo, one witness per polytope and
ordered pair of states (``_face_witness``, at most ``WITNESS_CACHE_SIZE``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import jordan
from .cone import AffineFunctional, ConeElement, State, require_space, require_states
from .decomposition import OrthogonalDecomposition, Spectrum, maximal_spectra, weights_entropy
from .errors import ApexError, DecompositionError, NonSpectralSpaceError, NotInConeError, PreconditionError
from .tolerances import (BALL_CENTER_TOL, CLIQUE_RANK_TOL, COLLINEAR_RTOL, COMPLEMENT_MASS_MIN,
                         DISTINCT_STATE_TOL, FACET_DIGITS, MEMBERSHIP_TOL, NEGATIVE_EIGENVALUE_TOL,
                         RECONSTRUCTION_TOL, SAME_STATE_TOL, SINGULARITY_TOL, SUPPORT_TOL, WEIGHT_DIGITS,
                         WEIGHT_DROP_TOL, WITNESS_FEASIBILITY_TOL, ZERO_EIGENVALUE_TOL)

MAX_ENUMERATION_VERTICES = 12
POLYTOPE_CACHE_SIZE = 64  # polytope records (facets, vertex states, orthogonality graph, clique systems) kept
WITNESS_CACHE_SIZE = 4096  # (polytope, ordered state pair) witness programs kept solved
FAMILY_GRID_POINTS = 10
POINT_BLOCK = 4096  # points per stacked clique solve, bounding its temporaries
MASS_ATTEMPTS = 16  # draws of one complement state before the locality sampler gives up
DISTINCT_ATTEMPTS = 8  # complement states drawn for s2 until one differs from s1
_SETTLED, _S1_REJECTED, _S2_REJECTED, _SAME_AS_S1 = range(4)  # verdicts on a density locality trial


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class _Geometry:
    """Defaults shared by the descriptor classes.  Each class defines

    * ``decompositions(coords, total)``, the decomposition kernel: for (N, coords_len) state rows s, the
      weights (N, r) of an orthogonal decomposition of total * s and the coordinates (N, r, coords_len) of
      its components, pure states by construction, in any order; a row with fewer than r components pads
      with weights that ``decompose`` drops.  On the canonical geometries the weights are the spectrum,
      whose -sum w ln w is ``entropies``; polytopes override it with the least entropy over all their
      decompositions;
    * ``mutually_singular(s0, s1)``, (flag, witness) of two distinct states on the whole space; with
      ``orthogonality_witnesses(states)``, which tests each pair on its smallest face, the only two ways a
      geometry is asked whether states are orthogonal;
    * ``rank``, ``smallest_face(states)``, ``random_state(rng)`` and ``random_pure_state(rng)``;
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

    def entropies(self, coords: np.ndarray, total: float) -> np.ndarray:
        """Entropy of total * s for every row s: -sum w ln w of its ``decompositions`` weights."""
        return weights_entropy(self.decompositions(coords, total)[0].T)

    def orthogonality_witnesses(self, states) -> tuple:
        """Per pair (a, b) of the states, in combinations order, a test with value 0 at a and 1 at b on their
        smallest face; None for one state (within SAME_STATE_TOL) or a pair that is not orthogonal.

        Restricting to the smallest face does not change the criterion of ``mutually_singular`` here:
        disjoint supports (simplex), antipodal boundary points (ball).
        """
        return tuple(None if _same_state(a, b) else self.mutually_singular(a, b)[1]
                     for a, b in itertools.combinations(states, 2))

    def planar_chart(self):
        """(bounding box, chart) for a 2-dimensional space; chart maps x, y arrays to coords rows."""
        raise ValueError(f"space {self!r} is not two-dimensional")

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

    @np.errstate(over="ignore")
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., n) array; a sum that overflows fails."""
        coords = np.asarray(coords, dtype=float)
        return (np.min(coords, axis=-1) >= -tol) & (np.abs(np.sum(coords, axis=-1) - 1.0) <= tol)

    def barycenter_coords(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)

    @cached_property
    def _vertex_states(self) -> tuple:
        return tuple(State._trusted(self, row) for row in np.eye(self.n))

    def vertex_state(self, i: int) -> State:
        """The i-th vertex as a State, built once per space."""
        return self._vertex_states[i]

    def functional_range(self, a: AffineFunctional):
        values = a.linear + a.offset
        return float(np.min(values)), float(np.max(values))

    def to_json(self) -> dict:
        return {"kind": "simplex", "n": self.n}

    def smallest_face(self, states) -> Face:
        idx = tuple(np.nonzero(np.any([s.coords > SUPPORT_TOL for s in states], axis=0))[0].tolist())
        return Face(self, "whole" if len(idx) == self.n else "vertices", vertex_indices=idx)

    def mutually_singular(self, s0: State, s1: State):
        supp0 = np.asarray(s0.coords) > SUPPORT_TOL
        supp1 = np.asarray(s1.coords) > SUPPORT_TOL
        if np.any(supp0 & supp1):
            return False, None
        return True, AffineFunctional(supp1.astype(float), 0.0)

    def decompositions(self, coords: np.ndarray, total: float):
        """The weights total * s of every row s, on the vertices."""
        return total * coords, np.broadcast_to(np.eye(self.n), (len(coords), self.n, self.n))

    def planar_chart(self):
        if self.n != 3:
            return super().planar_chart()
        return (0.0, 1.0, 0.0, 1.0), lambda x, y: np.stack([x, y, 1.0 - x - y], axis=-1)

    def random_state(self, rng: np.random.Generator) -> State:
        return State(self, rng.dirichlet(np.ones(self.n)))

    def random_pure_state(self, rng: np.random.Generator) -> State:
        return self.vertex_state(int(rng.integers(self.n)))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a vertex; s1, s2 Dirichlet(1) points on random faces of the facet opposite it, drawn as stacks.

        A face is the first k of the facet's vertices in a uniform random order, k uniform in 1..n-1,
        and its weights are standard exponentials normalised over it.  The s2 rows within
        DISTINCT_STATE_TOL of s1 are drawn again as one stack, DISTINCT_ATTEMPTS draws in all.
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

        s1, s2 = face_points(rests), face_points(rests)
        redo = np.arange(trials)
        for _ in range(DISTINCT_ATTEMPTS - 1):
            redo = redo[np.max(np.abs(s2[redo] - s1[redo]), axis=1) <= DISTINCT_STATE_TOL]
            if redo.size:
                s2[redo] = face_points(rests[redo])
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
        if any(len(v) != m for v in verts):
            raise ValueError("vertices must share one ambient dimension")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_hash", hash(verts))  # every polytope cache lookup hashes the polytope
        _polytope_geometry(self)  # validates extremality and full dimension

    def __hash__(self):
        return self._hash

    kind = "polytope"
    canonical_decomposition = False

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    coords_len = dim

    @property
    def vertex_array(self) -> np.ndarray:
        return _polytope_geometry(self).vertex_array

    @property
    def rank(self) -> int:
        if len(self.vertices) == self.dim + 1:  # affinely independent: a simplex
            return len(self.vertices)
        raise NonSpectralSpaceError("polytope is not a simplex; rank undefined")

    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., dim) array."""
        geo, coords = _polytope_geometry(self), np.asarray(coords, dtype=float)
        return np.max(coords @ geo.facet_normals.T + geo.facet_offsets, axis=-1) <= tol

    def barycenter_coords(self) -> np.ndarray:
        return np.mean(self.vertex_array, axis=0)

    def vertex_state(self, i: int) -> State:
        """The i-th vertex as a State, built once per polytope record."""
        return _polytope_geometry(self).vertex_states[i]

    def functional_range(self, a: AffineFunctional):
        values = self.vertex_array @ a.linear + a.offset
        return float(np.min(values)), float(np.max(values))

    def to_json(self) -> dict:
        return {"kind": "polytope", "vertices": [list(v) for v in self.vertices]}

    def smallest_face(self, states) -> Face:
        face = _face_vertices(self, np.mean([s.coords for s in states], axis=0))
        if face is None:
            return Face(self, "whole", vertex_indices=tuple(range(len(self.vertices))))
        return Face(self, "vertices", vertex_indices=face)

    def mutually_singular(self, s0: State, s1: State):
        witness = _face_witness(self, s0.coords.tobytes(), s1.coords.tobytes(), True)
        return witness is not None, witness

    def orthogonality_witnesses(self, states) -> tuple:
        """Per pair, mutual singularity restricted to the vertices of the pair's smallest face.

        Solved once per ordered pair of coordinate vectors (see ``_face_witness``).
        """
        return tuple(None if _same_state(a, b) else _face_witness(self, a.coords.tobytes(), b.coords.tobytes())
                     for a, b in itertools.combinations(states, 2))

    def decompositions(self, coords: np.ndarray, total: float):
        """Per row, of the clique solutions no other majorizes, the lexicographically largest spectrum."""
        size = self.dim + 1
        weights, components = np.zeros((len(coords), size)), np.zeros((len(coords), size, self.dim))
        for row, point in enumerate(coords):
            sols = list(_determined_solutions(self, point, total).values())
            if not sols:
                raise DecompositionError("no orthogonal decomposition found; geometry bug?")
            spectra = [Spectrum(w) for w, _ in sols]
            length = max(len(s) for s in spectra)
            w, support = sols[max(np.flatnonzero(maximal_spectra(spectra)),
                                  key=lambda i: tuple(spectra[i].padded(length)))]
            weights[row, : len(w)], components[row, : len(w)] = w, self.vertex_array[list(support)]
        return weights, components

    @np.errstate(over="ignore")  # a weight near the float limit gives -inf
    def entropies(self, coords: np.ndarray, total: float) -> np.ndarray:
        """Least decomposition entropy over the determined clique systems, per point.

        Like ``_determined_solutions``, a support that several cliques yield
        (extra weights dropped) counts once, from the first in clique order.
        Two cliques that keep all their weights differ in support, so that
        rule is applied only to the points where some clique drops a weight.
        """
        out = np.empty(len(coords))
        for start in range(0, len(coords), POINT_BLOCK):
            stacks, solved = _clique_solutions(self, coords[start:start + POINT_BLOCK], total)
            h, partial = [], []
            for _, w, kept in stacks:
                terms = np.log(w, out=np.zeros_like(w), where=kept)
                h.append(-np.sum(np.multiply(w, terms, out=terms, where=kept), axis=1) + 0.0)
                partial.append(~np.all(kept, axis=1))
            h = np.concatenate(h)
            np.min(np.where(solved, h, np.inf), axis=0, out=out[start:start + POINT_BLOCK])
            cols = np.flatnonzero(np.any(solved & np.concatenate(partial), axis=0))
            support = np.concatenate([np.sum(np.where(kept[..., cols], 1 << idx[..., None], 0), axis=1)
                                      for idx, _, kept in stacks])
            order = np.argsort(support, axis=0, kind="stable")
            support = np.take_along_axis(support, order, axis=0)
            first = (support != 0) & (np.diff(support, axis=0, prepend=-1) != 0)
            h = np.take_along_axis(h[:, cols], order, axis=0)
            out[start + cols] = np.min(np.where(first, h, np.inf), axis=0)
        if not np.all(out < np.inf):  # -inf is a solved point near the float limit
            raise DecompositionError("no orthogonal decomposition found")
        return out

    def planar_chart(self):
        if self.dim != 2:
            raise ValueError("landscape supports polytopes in a 2D ambient space")
        verts = self.vertex_array
        box = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(), verts[:, 1].max())
        return box, lambda x, y: np.stack([x, y], axis=-1)

    def ambiguous_probes(self, rng: np.random.Generator, samples: int):
        """(coords, every decomposition) of each spectrality probe that two clique systems solve, in order.

        The probes are the barycenter, then samples states drawn and tested as ``random_state`` draws
        them one by one.  A probe that at most one clique system solves has at most one decomposition,
        since every underdetermined family needs two determined members; the others are enumerated
        from the same block solve.
        """
        nv, verts = len(self.vertices), self.vertex_array
        probes = np.array([self.barycenter_coords(), *(w @ verts for w in rng.dirichlet(np.ones(nv), samples))])
        require_states(self, probes)
        for start in range(0, len(probes), POINT_BLOCK):
            stacks, solved = _clique_solutions(self, probes[start:start + POINT_BLOCK], 1.0)
            for j in np.flatnonzero(np.count_nonzero(solved, axis=0) > 1):
                yield probes[start + j], _decompositions(self, _column_solutions(stacks, j, nv), 1.0)

    def random_state(self, rng: np.random.Generator) -> State:
        w = rng.dirichlet(np.ones(len(self.vertices)))
        return State(self, w @ self.vertex_array)

    def random_pure_state(self, rng: np.random.Generator) -> State:
        return self.vertex_state(int(rng.integers(len(self.vertices))))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random vertex; s1, s2 two distinct vertices orthogonal to it (one if it has one)."""
        adj = _polytope_geometry(self).graph
        idx = np.empty((3, trials), dtype=int)
        for t in range(trials):
            i = int(rng.integers(len(self.vertices)))
            partners = np.nonzero(adj[i])[0]
            if partners.size == 0:
                raise PreconditionError("polytope vertex with no orthogonal partner")
            idx[:, t] = (i, partners[0], partners[0]) if partners.size == 1 else (
                i, *rng.choice(partners, size=2, replace=False))
        s0, s1, s2 = self.vertex_array[idx]
        return s0, s1, s2, idx[1] == idx[2]


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

    def to_json(self) -> dict:
        return {"kind": self.kind, "d": self.d}

    def smallest_face(self, states) -> Face:
        first = np.asarray(states[0].coords)
        same = all(np.max(np.abs(np.asarray(s.coords) - first)) <= SINGULARITY_TOL for s in states)
        if same and abs(np.linalg.norm(first) - 1.0) <= SINGULARITY_TOL:
            return Face(self, "point", point=first)
        return Face(self, "whole")

    def mutually_singular(self, s0: State, s1: State):
        x0, x1 = np.asarray(s0.coords), np.asarray(s1.coords)
        boundary = abs(np.linalg.norm(x0) - 1.0) <= SINGULARITY_TOL and abs(np.linalg.norm(x1) - 1.0) <= SINGULARITY_TOL
        if boundary and np.max(np.abs(x0 + x1)) <= SINGULARITY_TOL:
            return True, AffineFunctional(x1 / 2.0, 0.5)
        return False, None

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

    def random_pure_state(self, rng: np.random.Generator) -> State:
        v = rng.standard_normal(self.d)
        return State(self, v / float(np.linalg.norm(v)))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random boundary point; s1 = s2 its antipode."""
        v = rng.standard_normal((trials, self.d))
        s0 = v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]  # the BLAS dot of np.linalg.norm
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

    @np.errstate(over="ignore")
    def contains_state(self, coords, tol=MEMBERSHIP_TOL):
        """Membership of one point, or of every row of a (..., coords_len) array.

        A row is a state when it is Hermitian within tol, has unit trace
        within tol and no eigenvalue below -tol; the eigenvalues of all rows
        that pass the first two tests come from one stacked eigvalsh call.
        Entries so large that these sums overflow fail the first two tests.
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
        w = np.linalg.eigvalsh(self.forms(a.linear))[:: self.mult]
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
        for k in np.unique(kept):
            top = np.ascontiguousarray(v[kept == k][..., v.shape[-1] - k:])
            out[kept == k] = top @ np.conj(np.swapaxes(top, -1, -2))
        return out.reshape(*coords.shape[:-1], *v.shape[-2:])

    def to_json(self) -> dict:
        return {"kind": "density", "ring": self.ring, "n": self.n}

    def smallest_face(self, states) -> Face:
        proj = self._support(np.mean([s.coords for s in states], axis=0))
        whole = abs(np.trace(proj).real / self.mult - self.n) <= SINGULARITY_TOL
        return Face(self, "whole" if whole else "support", projection=jordan.from_form(self.ring, proj))

    def mutually_singular(self, s0: State, s1: State):
        witness = self.orthogonality_witnesses([s0, s1])[0]
        return witness is not None, witness

    def orthogonality_witnesses(self, states) -> tuple:
        """The witness of every state pair, from one stacked support eigensolve.

        Distinct states a, b are orthogonal when the trace of the product of their support
        projections, Tr(p_a p_b), is 0 within SINGULARITY_TOL; the witness is then p_b.
        """
        if len(states) < 2:
            return ()
        coords = np.array([s.coords for s in states])
        supports = self._support(coords)
        tests = self.coords_of(supports)
        out = []
        for a, b in itertools.combinations(range(len(coords)), 2):
            overlap = np.sum(supports[a] * np.conj(supports[b])).real / self.mult > SINGULARITY_TOL
            out.append(None if _same_state(states[a], states[b]) or overlap else AffineFunctional(tests[b], 0.0))
        return tuple(out)

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

    def random_pure_state(self, rng: np.random.Generator) -> State:
        raw = jordan.gaussian_draws(self.ring, self.n, rng, cols=1)
        return State(self, self._rows(jordan.ring_entries(self.ring, jordan.pure_matrices(self.ring, raw))))

    def orthogonal_triples(self, rng: np.random.Generator, trials: int):
        """s0 a random pure state; s1, s2 random states pinched into the complement of its support.

        The per-trial loop draws s0, then complement candidates for s1 and,
        for n >= 3, for s2: a density matrix, replaced by a pure one with
        probability 1/2, compressed by the complement projection of s0 and
        renormalised.  A candidate of mass at most COMPLEMENT_MASS_MIN is
        drawn again, and so is an s2 equal to s1, up to DISTINCT_ATTEMPTS
        states; after MASS_ATTEMPTS rejected candidates of one state,
        RuntimeError.

        The loop here only consumes the generator, after a plan of attempts
        per trial: plan[0] candidates for s1 and plan[j] for the j-th state
        drawn for s2, of which only the last of each is kept.  All kept
        draws are then settled as stacks.  At the first trial that the loop
        would have rejected, the generator goes back to the state saved at
        the start of that trial, its plan takes one more attempt, and the
        walk resumes from there.
        """
        distinct = self.n >= 3
        plans = [[1, 1] if distinct else [1] for _ in range(trials)]
        saved = [None] * trials
        rows = np.empty((3, trials, self.coords_len))
        start = 0
        while start < trials:
            draws = []
            for t in range(start, trials):
                saved[t] = rng.bit_generator.state
                draws.append(self._draw_trial(rng, plans[t]))
            capped = np.array([len(plan) > DISTINCT_ATTEMPTS for plan in plans[start:]])
            rows[:, start:], verdict = self._settle(draws, distinct, capped)
            rejected = np.flatnonzero(verdict)
            if not rejected.size:
                break
            start += int(rejected[0])
            plan, why = plans[start], verdict[rejected[0]]
            if why == _SAME_AS_S1:
                plan.append(1)
            else:
                slot = 0 if why == _S1_REJECTED else -1
                if plan[slot] == MASS_ATTEMPTS:
                    raise RuntimeError("failed to sample a state in the orthogonal complement")
                plan[slot] += 1
            rng.bit_generator.state = saved[start]
        return rows[0], rows[1], rows[2], np.full(trials, not distinct)

    def _draw_trial(self, rng: np.random.Generator, plan: list) -> list:
        """Raw draws of one locality trial: [s0, last s1 candidate(, last s2 candidate)].

        A candidate is (pure, raw): a column draw of the pure kernel or a
        square draw of the density kernel.
        """
        ring, n = self.ring, self.n
        draws = [jordan.gaussian_draws(ring, n, rng, cols=1)]
        for count in [plan[0]] if len(plan) == 1 else [plan[0], sum(plan[1:])]:
            for _ in range(count):
                pick = (False, jordan.gaussian_draws(ring, n, rng))
                if rng.uniform() < 0.5:
                    pick = (True, jordan.gaussian_draws(ring, n, rng, cols=1))
            draws.append(pick)
        return draws

    def _settle(self, draws: list, distinct: bool, capped: np.ndarray):
        """(3, k, coords_len) rows of k trials' draws, and the verdict of the loop on each trial."""
        ring, k = self.ring, len(draws)
        picks = [c for d in draws for c in d[1:]]
        pure = np.array([is_pure for is_pure, _ in picks])
        pure_data = jordan.pure_matrices(
            ring, np.stack([d[0] for d in draws] + [raw for is_pure, raw in picks if is_pure]))
        s0 = self._rows(jordan.ring_entries(ring, pure_data[:k]))
        data = np.empty((len(picks), *pure_data.shape[1:]), dtype=pure_data.dtype)
        data[pure] = pure_data[k:]
        if not np.all(pure):
            data[~pure] = jordan.positive_matrices(ring, np.stack([raw for is_pure, raw in picks if not is_pure]))
        forms = jordan.complex_forms(ring, data)
        comp = (np.eye(forms.shape[-1]) - self._support(s0))[:, None]
        compressed = self.coords_of(comp @ forms.reshape(k, -1, *forms.shape[1:]) @ comp)
        mass = self.traces(compressed)
        accepted = mass > COMPLEMENT_MASS_MIN
        rows = (1.0 / np.where(accepted, mass, 1.0))[..., None] * compressed
        s1, s2 = rows[:, 0], rows[:, -1]
        same = distinct & ~capped & (np.max(np.abs(s2 - s1), axis=-1) <= DISTINCT_STATE_TOL)
        verdict = np.select([~accepted[:, 0], ~accepted[:, -1], same],
                            [_S1_REJECTED, _S2_REJECTED, _SAME_AS_S1], _SETTLED)
        return np.stack([s0, s1, s2]), verdict

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


def unit_square() -> Polytope:
    return Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))


# fields of each space descriptor besides "kind"
_DESCRIPTOR_FIELDS = {"simplex": ("n",), "polytope": ("vertices",), "ball": ("d",), "spin": ("d",),
                      "density": ("ring", "n")}


def space_from_json(data: dict):
    """Space from its JSON descriptor; a malformed descriptor raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("space descriptor must be a JSON object")
    if "kind" not in data:
        raise ValueError("space descriptor lacks the field 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_FIELDS:
        raise ValueError(f"unknown space kind {kind!r}")
    missing = [key for key in _DESCRIPTOR_FIELDS[kind] if key not in data]
    if missing:
        raise ValueError(f"{kind} space descriptor lacks the field {missing[0]!r}")
    for key in ("n", "d"):
        if isinstance(data.get(key, 0), bool) or not isinstance(data.get(key, 0), int):
            raise ValueError(f"space field {key!r} must be an integer, got {data[key]!r}")
    if kind == "simplex":
        return Simplex(data["n"])
    if kind == "polytope":
        verts = data["vertices"]
        if not (isinstance(verts, list) and all(isinstance(v, list) for v in verts)
                and all(isinstance(c, (int, float)) and not isinstance(c, bool) for v in verts for c in v)):
            raise ValueError("polytope vertices must be a list of coordinate lists")
        return Polytope(tuple(tuple(v) for v in verts))
    if kind == "ball":
        return Ball(data["d"])
    if kind == "spin":
        return SpinFactor(data["d"])
    return DensityMatrices(str(data["ring"]), data["n"])


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
    u = jordan.complex_forms(space.ring, jordan.random_unitary(space.ring, n, rng))
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
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def ConvexHull(points):
    """scipy.spatial.ConvexHull, imported on the first call."""
    from scipy.spatial import ConvexHull as hull

    return hull(points)


class _PolytopeGeometry:
    """Everything derived from a polytope's vertices: one record per polytope (``_polytope_geometry``).

    The facets are found when the record is built, which validates the vertex list; the vertex
    States, the orthogonality graph and the clique systems are built on first use.  A polytope
    looks its record up instead of holding it, so the witness memo, whose keys hold polytopes,
    keeps no evicted record alive; an equal polytope parsed again shares the record.
    """

    def __init__(self, space: Polytope):
        verts = np.array(space.vertices, dtype=float)
        nv, m = verts.shape
        if not np.all(np.isfinite(verts)):
            raise ValueError("polytope vertices must be finite")
        if nv < m + 1:
            raise ValueError("polytope must be full-dimensional in its ambient space")
        if m == 1:
            lo, hi = float(np.min(verts)), float(np.max(verts))
            if nv != 2 or lo == hi:
                raise ValueError("a 1-dimensional polytope is a segment with two vertices")
            self.facet_normals = np.array([[-1.0], [1.0]])
            self.facet_offsets = np.array([lo, -hi])
        else:
            n_extreme, equations = _polygon_hull(verts) if m == 2 else _qhull_facets(verts)
            if n_extreme != nv:
                raise ValueError("vertex list contains non-extreme points")
            eqs = np.unique(np.round(equations, FACET_DIGITS), axis=0)
            self.facet_normals = eqs[:, :-1]
            self.facet_offsets = eqs[:, -1]
        self.vertex_array = verts
        self.space = space

    @cached_property
    def vertex_states(self) -> tuple:
        """The vertex States; a State is frozen with read-only coords, so they are shared."""
        return tuple(State._trusted(self.space, np.array(v)) for v in self.space.vertices)

    @cached_property
    def graph(self) -> np.ndarray:
        """The orthogonality graph of the vertices, as a read-only boolean adjacency matrix."""
        verts, nv = self.vertex_array, len(self.vertex_array)
        adj = np.zeros((nv, nv), dtype=bool)
        if self.space.dim == 2:
            i, j = np.triu_indices(nv, 1)
            adj[i, j] = adj[j, i] = _polygon_orthogonal(self, verts[i], verts[j])[0]
        else:
            for i in range(nv):
                for j in range(i + 1, nv):
                    adj[i, j] = adj[j, i] = orthogonal(self.vertex_states[i], self.vertex_states[j])
        adj.setflags(write=False)
        return adj

    @cached_property
    def clique_systems(self) -> tuple:
        """(determined, underdetermined) weight systems of the pairwise-orthogonal vertex subsets (cliques).

        A clique's system is its vertex columns over a row of ones, (m+1, k); the cliques of one size are
        factored as one stack, by one ``matrix_rank`` and one ``pinv`` call.  determined holds per size, in
        clique order, (idx (G, k), pinv (G, k, m+1), matrix (G, m+1, k)) of the cliques of full column
        rank; underdetermined the index tuples of the others, in clique order.
        """
        verts = self.vertex_array
        if len(verts) > MAX_ENUMERATION_VERTICES:
            raise ValueError(f"decomposition search supports at most {MAX_ENUMERATION_VERTICES} vertices, "
                             f"got {len(verts)}")
        determined, underdetermined = [], []
        for k, group in itertools.groupby(_cliques(self.graph), key=len):
            idx = np.array(list(group))
            matrix = np.concatenate([verts[idx].swapaxes(1, 2), np.ones((len(idx), 1, k))], axis=1)
            full = np.linalg.matrix_rank(matrix, tol=CLIQUE_RANK_TOL) == k
            if np.any(full):
                determined.append((idx[full], np.linalg.pinv(matrix[full]), matrix[full]))
            underdetermined.extend(map(tuple, idx[~full].tolist()))
        return tuple(determined), tuple(underdetermined)


def _polygon_hull(verts: np.ndarray):
    """(hull vertex count, facet equations) of 2-D points, by Andrew's monotone chain.

    The chain (Andrew, IPL 9(5), 1979) walks the points in lexicographic
    order and drops every point where the boundary does not turn left, so a
    repeated point or one inside an edge is not a hull vertex; a cross
    product l - r within COLLINEAR_RTOL * (|l| + |r|), its rounding error,
    is no turn, so points collinear in decimal go as in qhull.  Each row of
    the equations is an outward unit normal and its offset, as in qhull's
    ``equations``: normal . x + offset <= 0 inside.
    """
    pts = verts[np.lexsort((verts[:, 1], verts[:, 0]))].tolist()

    def half(points):
        chain = []
        for x, y in points:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                left, right = (bx - ax) * (y - ay), (by - ay) * (x - ax)
                if left - right > COLLINEAR_RTOL * (abs(left) + abs(right)):
                    break
                chain.pop()
            chain.append((x, y))
        return chain[:-1]

    hull = np.array(half(pts) + half(pts[::-1]))  # counter-clockwise
    if len(hull) < 3:
        raise ValueError("vertex list is not full-dimensional")
    edge = np.roll(hull, -1, axis=0) - hull
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / np.hypot(edge[:, 0], edge[:, 1])[:, None]
    return len(hull), np.column_stack([normals, -np.sum(normals * hull, axis=1)])


def _qhull_facets(verts: np.ndarray):
    """(hull vertex count, facet equations) of points in 3 or more dimensions, by qhull."""
    from scipy.spatial import QhullError

    try:
        hull = ConvexHull(verts)
    except QhullError as exc:  # its message continues with a dump of qhull's state
        raise ValueError(f"vertex list is not full-dimensional: {str(exc).strip().splitlines()[0]}") from None
    return len(hull.vertices), hull.equations


@lru_cache(maxsize=POLYTOPE_CACHE_SIZE)
def _polytope_geometry(space: Polytope) -> _PolytopeGeometry:
    return _PolytopeGeometry(space)


def _face_vertices(space: Polytope, center: np.ndarray) -> Optional[tuple]:
    """Vertex indices of the smallest face of the polytope containing center; None for the whole polytope."""
    geo = _polytope_geometry(space)
    active = np.abs(geo.facet_normals @ center + geo.facet_offsets) <= SINGULARITY_TOL
    if not np.any(active):
        return None
    on_face = np.all(
        np.abs(geo.vertex_array @ geo.facet_normals[active].T + geo.facet_offsets[active]) <= SINGULARITY_TOL,
        axis=1,
    )
    return tuple(np.nonzero(on_face)[0].tolist())


@lru_cache(maxsize=WITNESS_CACHE_SIZE)
def _face_witness(space: Polytope, zero_at: bytes, one_at: bytes, whole: bool = False) -> Optional[AffineFunctional]:
    """An affine map with value 0 at zero_at, 1 at one_at (coordinate bytes) and [0, 1] on the vertices of
    their smallest face (all when whole), or None: in closed form on polygons, else from HiGHS.

    Keyed by the bytes, -0.0 and 0.0 stay apart, so a hit returns the coefficients a cold call prints.
    The swapped pair is a key of its own: 1 - f would change the printed digits.
    """
    zero_at, one_at = np.frombuffer(zero_at), np.frombuffer(one_at)
    if space.dim == 2:
        found, t = _polygon_orthogonal(_polytope_geometry(space), zero_at[None], one_at[None], whole)
        if not found[0]:
            return None
        d = one_at - zero_at
        c = d / (d @ d) + t[0] * np.array([-d[1], d[0]])
        return AffineFunctional(c, -float(c @ zero_at))
    face = None if whole else _face_vertices(space, np.mean([zero_at, one_at], axis=0))
    verts = space.vertex_array if face is None else space.vertex_array[list(face)]
    return _affine_test_feasible(verts, zero_at, one_at)


def _affine_test_feasible(vertex_array: np.ndarray, zero_at: np.ndarray,
                          one_at: np.ndarray) -> Optional[AffineFunctional]:
    """Find an affine map with value 0 at zero_at, 1 at one_at and [0, 1] on vertices.

    Solved as a linear feasibility problem in the (linear part, offset)
    unknowns; returns the witness functional or None.
    """
    nv, m = vertex_array.shape
    # unknowns z = (c in R^m, b)
    ab = np.hstack([vertex_array, np.ones((nv, 1))])
    a_ub = np.vstack([ab, -ab])
    b_ub = np.concatenate([np.ones(nv), np.zeros(nv)])
    a_eq = np.array([np.append(zero_at, 1.0), np.append(one_at, 1.0)])
    b_eq = np.array([0.0, 1.0])
    res = linprog(
        c=np.zeros(m + 1),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * (m + 1),
        method="highs",
    )
    if not res.success:
        return None
    return AffineFunctional(res.x[:m], float(res.x[m]))


def _polygon_orthogonal(geometry: _PolytopeGeometry, p0: np.ndarray, p1: np.ndarray, whole: bool = False):
    """(orthogonal, t) of the polygon point pairs (p0[p], p1[p]), in closed form.

    orthogonal is the verdict of ``orthogonal`` (``mutually_singular`` when whole) on the two states.  On
    the vertices vk of their smallest face (all when whole), f(p0) = 0 and f(p1) = 1 make a witness
    f(x) = c . (x - p0) with c = d / |d|^2 + t d_perp, d = p1 - p0, so f(vk) = a_k + t g_k (g_k = 0 within
    SINGULARITY_TOL of the line p0 p1).  It exists when the intervals of t where each f(vk) lies in [0, 1],
    within WITNESS_FEASIBILITY_TOL, meet in [L, U].  t is the point of [L, U] where the two vertices
    bounding it are equally far, in f, from the ends of [0, 1] (the tolerance cancels); 0 if t is free.
    """
    verts, normals, offsets = geometry.vertex_array, geometry.facet_normals, geometry.facet_offsets
    active = np.abs((p0 + p1) / 2.0 @ normals.T + offsets) <= (-1.0 if whole else SINGULARITY_TOL)
    on_facet = np.abs(verts @ normals.T + offsets) <= SINGULARITY_TOL
    face = np.all(~active[:, None, :] | on_facet, axis=-1)  # (pairs, vertices); no active facet (whole): all
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
    """Every nonempty clique of the graph as an index tuple, by size and then lexicographically.

    Bron–Kerbosch (CACM 16(9), 1973) with Tomita's pivot (TCS 363, 2006)
    lists each maximal clique once; the cliques are their nonempty subsets.
    """
    nbrs = [set(np.nonzero(row)[0].tolist()) for row in adj]
    cliques = set()

    def expand(clique: set, cand: set, done: set):
        if not cand and not done:
            members = sorted(clique)
            for size in range(1, len(members) + 1):
                cliques.update(itertools.combinations(members, size))
            return
        pivot = max(cand | done, key=lambda u: len(cand & nbrs[u]))
        for v in cand - nbrs[pivot]:
            expand(clique | {v}, cand & nbrs[v], done & nbrs[v])
            cand = cand - {v}
            done = done | {v}

    expand(set(), set(range(len(adj))), set())
    return sorted(cliques, key=lambda idx: (len(idx), idx))


def _clique_solutions(space: Polytope, coords, total):
    """Solve every determined clique system for the N points total * coords[i] at once.

    Returns per clique size, in clique order, (idx, w, kept):
    vertex indices (G, k), weights (G, k, N), and kept, true for weights
    above WEIGHT_DROP_TOL * scale of systems that solve the point (no weight
    below -WEIGHT_DROP_TOL * scale, residual within SINGULARITY_TOL); and
    solved (cliques, N), true where a clique keeps a vertex of the point.
    Only kept weights are meaningful.
    """
    scale = max(1.0, total)
    rhs = np.append(total * coords, np.full((len(coords), 1), total), axis=1).T
    stacks = []
    for idx, pinv, matrix in _polytope_geometry(space).clique_systems[0]:
        w = pinv @ rhs
        residual = np.max(np.abs(matrix @ w - rhs), axis=1)
        ok = (np.min(w, axis=1) >= -WEIGHT_DROP_TOL * scale) & (
            residual <= SINGULARITY_TOL * max(1.0, scale))
        stacks.append((idx, w, ok[:, None, :] & (w > WEIGHT_DROP_TOL * scale)))
    return stacks, np.concatenate([np.any(kept, axis=1) for _, _, kept in stacks])


@np.errstate(over="ignore")  # weights near the float limit round to inf in the keys
def _add_solutions(solutions: dict, idx: np.ndarray, w: np.ndarray, keep: np.ndarray, nv: int):
    """Add the (weights, support) of each row: the vertices idx[r] (ascending, below nv) weighted by w[r]
    where keep[r] holds.  Two decompositions are one when they share the key, the bytes of a row of nv
    with the weights rounded to WEIGHT_DIGITS on the support and -0.0, which no positive weight rounds
    to, off it.  The first row with a key keeps it, and a row that keeps no vertex adds nothing.
    """
    rows = keep.any(axis=1).nonzero()[0].tolist()
    if not rows:  # most clique systems of one point solve nothing: build no keys
        return
    wide = np.full((len(idx), nv), -0.0)
    wide[np.arange(len(idx))[:, None], idx] = np.where(keep, w.round(WEIGHT_DIGITS), -0.0)
    keys = wide.view(np.dtype((np.void, 8 * nv)))[:, 0].tolist()  # the bytes of each row
    for r in rows:
        if keys[r] not in solutions:
            solutions[keys[r]] = (w[r][keep[r]], tuple(idx[r][keep[r]].tolist()))


def _column_solutions(stacks, j, nv) -> dict:
    """The decompositions of point j from every clique system that solves it, keyed as ``_add_solutions``."""
    solutions = {}
    for idx, w, kept in stacks:
        _add_solutions(solutions, idx, w[..., j], kept[..., j], nv)
    return solutions


def _determined_solutions(space: Polytope, state_coords, total) -> dict:
    """The (weights, support) of every determined clique system that solves x, keyed as ``_add_solutions``."""
    coords = np.asarray(state_coords, dtype=float)[None, :]
    return _column_solutions(_clique_solutions(space, coords, total)[0], 0, len(space.vertices))


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


def _same_state(s0: State, s1: State) -> bool:
    """Whether two states are one: coordinates within SAME_STATE_TOL, so never orthogonal."""
    return np.max(np.abs(s0.coords - s1.coords)) <= SAME_STATE_TOL


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
    if _same_state(s0, s1):
        return False, None
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

    One row of the space's ``decompositions`` kernel, its weights at or below WEIGHT_DROP_TOL * max(1,
    trace) dropped and the rest sorted descending.  Polytopes search pairwise-orthogonal vertex subsets for
    a decomposition maximal in the majorization ordering (lexicographically largest spectrum among
    incomparable maxima); the other geometries have canonical decompositions: vertex weights (simplex),
    an antipodal pair (ball, spin factor) or rank-one eigenprojections (density matrices).
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
    components = tuple(State._trusted(space, rows[i]) for i in order)
    witnesses = space.orthogonality_witnesses(components) if with_witnesses else None
    dec = OrthogonalDecomposition(space, weights[order], components, witnesses)
    if dec.size > space.dim + 1:
        raise DecompositionError("decomposition exceeds the dimension bound")
    if not dec.reconstruction_error(x) <= RECONSTRUCTION_TOL * scale:  # NaN fails too
        raise DecompositionError("decomposition does not reconstruct the element")
    return dec


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
    return _decompositions(space, _determined_solutions(space, s.coords, s.trace_weight), s.trace_weight)


@np.errstate(over="ignore")  # weights near the float limit overflow in the family grid
def _decompositions(space: Polytope, determined: dict, total: float) -> list:
    """The decompositions of ``enumerate_orthogonal_decompositions`` from the keyed determined solutions."""
    solutions = dict(determined)
    basic = np.zeros((len(determined), len(space.vertices)))  # full weight rows, nonzero on the support
    for r, (w, support) in enumerate(determined.values()):
        basic[r, list(support)] = w
    t = (np.arange(1, FAMILY_GRID_POINTS + 1) / (FAMILY_GRID_POINTS + 1.0))[:, None]
    for clique in _polytope_geometry(space).clique_systems[1]:
        # basic solutions of this clique (determined ones supported inside it), in C order for np.mean
        members = basic[:, clique][np.all(np.delete(basic, clique, axis=1) == 0, axis=1)]
        if len(members) < 2:
            continue
        a, b = np.triu_indices(len(members), 1)  # the pairs in combinations order
        grid = ((1.0 - t) * members[a][:, None] + t * members[b][:, None]).reshape(-1, len(clique))
        grid = np.vstack([grid, np.mean(members, axis=0)])
        _add_solutions(solutions, np.broadcast_to(clique, grid.shape), grid, grid > WEIGHT_DROP_TOL * max(1.0, total),
                       basic.shape[1])

    out, states = [], _polytope_geometry(space).vertex_states
    for w, support in sorted(solutions.values(), key=lambda ws: (ws[1], tuple(ws[0]))):
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
