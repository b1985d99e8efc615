"""Spectra, majorization, entropy and spectrality of state spaces.

The entropy of a cone element is the infimum of -sum w ln w over the
spectra of its orthogonal decompositions (natural logarithm, 0 ln 0 = 0).
On simplices, balls, spin factors and density matrices the canonical
spectrum realizes the infimum; on polytopes the infimum is taken over the
enumerated decompositions, where concavity of -sum w ln w puts the minimum
at a vertex of every underdetermined solution family, so scanning the
determined vertex-subset systems suffices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import geometries as geo
from . import jordan
from .cone import ConeElement, State
from .decomposition import OrthogonalDecomposition, Spectrum
from .errors import ApexError, NonSpectralSpaceError, require_count

__all__ = [
    "Spectrum",
    "OrthogonalDecomposition",
    "Ordering",
    "spectrum_of",
    "majorizes",
    "entropy",
    "is_spectral",
    "SpectralityReport",
    "spectral_rank",
    "entropy_landscape",
    "Landscape",
]

TOTAL_TOL = 1e-9


def spectrum_of(dec: OrthogonalDecomposition) -> Spectrum:
    """Weight vector of a decomposition, sorted descending."""
    return dec.spectrum()


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def majorizes(a: Spectrum, b: Spectrum, tol: float = 1e-12) -> Ordering:
    """Partial-sum comparison of two spectra of the same element.

    Shorter spectra are padded with zeros.  Raises when the totals differ,
    since majorization only compares decompositions of one element.
    """
    if abs(a.total - b.total) > TOTAL_TOL * max(1.0, abs(a.total), abs(b.total)):
        raise ValueError(f"spectra have different totals: {a.total} vs {b.total}")
    length = max(len(a), len(b))
    delta = np.cumsum(a.padded(length) - b.padded(length))
    scale = max(1.0, abs(a.total))
    hi = float(np.max(delta))
    lo = float(np.min(delta))
    if hi <= tol * scale and lo >= -tol * scale:
        return Ordering.EQUAL
    if lo >= -tol * scale:
        return Ordering.DOMINATES
    if hi <= tol * scale:
        return Ordering.DOMINATED
    return Ordering.INCOMPARABLE


def weights_entropy(weights) -> np.ndarray:
    """-sum w ln w down axis 0 of a weight array; entries at or below 0 contribute nothing."""
    w = np.asarray(weights, dtype=float)
    positive = w > 0.0
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    return -np.sum(terms, axis=0) + 0.0  # + 0.0 turns -0.0 into 0.0


def entropy(space, x: ConeElement) -> float:
    """Minimal -sum w ln w over orthogonal decompositions of x, in nats."""
    if x.is_apex:
        raise ApexError("entropy of the apex is undefined")
    if isinstance(space, geo.DensityMatrices):
        w = x.trace_weight * jordan.eigenvalues_of(space.state_matrix(x.state()))
        return float(weights_entropy(np.clip(w, 0.0, None)))
    return float(_entropies(space, x.coords[None, :], x.trace_weight)[0])


def _entropies(space, coords: np.ndarray, total: float) -> np.ndarray:
    """Entropy of total * s for every row s of coords on a simplex, ball or polytope."""
    if isinstance(space, geo.Polytope):
        return _polytope_entropies(space, coords, total)
    if isinstance(space, geo.Simplex):
        return weights_entropy(total * coords.T)
    if isinstance(space, geo.Ball):
        r = np.minimum(np.linalg.norm(coords, axis=-1), 1.0)
        return weights_entropy(np.stack([total * (1.0 + r) / 2.0, total * (1.0 - r) / 2.0]))
    raise TypeError(f"unsupported space {space!r}")


POINT_BLOCK = 4096  # points per stacked clique solve, bounding its temporaries


def _polytope_entropies(space, coords, total) -> np.ndarray:
    """Least decomposition entropy over the determined clique systems, per point.

    Like ``geometries._determined_solutions``, a support that several cliques
    yield (extra weights dropped) counts once, from the first in clique order.
    """
    out = np.empty(len(coords))
    for start in range(0, len(coords), POINT_BLOCK):
        h, support = [], []  # support: vertex bitmask per clique and point, 0 if unsolved
        for idx, w, kept in geo._clique_solutions(space, coords[start:start + POINT_BLOCK],
                                                  total, len(space.vertices)):
            h.append(weights_entropy(np.where(kept, w, 0.0).swapaxes(0, 1)))
            support.append(np.sum(np.where(kept, 1 << idx[..., None], 0), axis=1))
        order = np.argsort(np.concatenate(support), axis=0, kind="stable")
        support = np.take_along_axis(np.concatenate(support), order, axis=0)
        first = (support != 0) & (np.diff(support, axis=0, prepend=-1) != 0)
        h = np.take_along_axis(np.concatenate(h), order, axis=0)
        out[start:start + POINT_BLOCK] = np.min(np.where(first, h, np.inf), axis=0)
    if not np.all(np.isfinite(out)):
        raise geo.DecompositionError("no orthogonal decomposition found")
    return out


# ---------------------------------------------------------------------------
# Spectrality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralityReport:
    spectral: bool
    method: str
    samples: int
    seed: int
    witness_coords: Optional[np.ndarray] = None
    witness_spectra: Optional[tuple] = None

    def to_json(self) -> dict:
        """Report; max_gap is the sup-norm distance of the zero-padded witness spectra."""
        out = {
            "check": "spectrality",
            "pass": self.spectral,
            "method": self.method,
            "trials": self.samples,
            "seed": self.seed,
            "max_gap": 0.0,
            "witness": None,
        }
        if not self.spectral:
            a, b = (Spectrum(s) for s in self.witness_spectra)
            length = max(len(a), len(b))
            out["max_gap"] = float(np.max(np.abs(a.padded(length) - b.padded(length))))
            out["witness"] = {
                "coords": [float(c) for c in self.witness_coords],
                "spectra": [[float(w) for w in s] for s in self.witness_spectra],
            }
        return out


def _distinct_spectra(space, state: State, tol: float = 1e-8):
    """Sorted distinct spectra over all enumerated decompositions of a state."""
    specs = []
    for dec in geo.enumerate_orthogonal_decompositions(space, state):
        specs.append(tuple(np.round(dec.spectrum().weights, 9)))
    unique = sorted(set(specs), key=lambda s: (len(s), s))
    pruned = []
    for s in unique:
        if not any(
            len(s) == len(t) and max(abs(a - b) for a, b in zip(s, t)) <= tol for t in pruned
        ):
            pruned.append(s)
    return pruned


def is_spectral(space, samples: int = 40, seed: int = 0) -> SpectralityReport:
    """Whether every state of the space has a unique decomposition spectrum.

    Simplices, balls, spin factors and density matrices are spectral
    analytically (unique coordinates, antipodal pairs, unitarily invariant
    eigenvalues).  Polytopes are probed at the vertex barycenter first and
    then at random states; two decompositions of one state with different
    spectra witness failure.
    """
    require_count("samples", samples)
    if isinstance(space, (geo.Simplex, geo.Ball, geo.DensityMatrices)):
        return SpectralityReport(True, "analytic", 0, seed)
    if not isinstance(space, geo.Polytope):
        raise TypeError(f"unsupported space {space!r}")
    rng = np.random.default_rng(seed)
    probes = [State(space, space.barycenter_coords())]
    probes += [geo.random_state(space, rng) for _ in range(samples)]
    for state in probes:
        distinct = _distinct_spectra(space, state)
        if len(distinct) > 1:
            shortest = distinct[0]
            longest_len = len(distinct[-1])
            candidates = [s for s in distinct if len(s) == longest_len and s != shortest]
            longest = min(candidates) if candidates else distinct[-1]
            return SpectralityReport(
                False,
                "enumeration",
                samples,
                seed,
                witness_coords=np.asarray(state.coords),
                witness_spectra=(shortest, longest),
            )
    return SpectralityReport(True, "enumeration", samples, seed)


def spectral_rank(space) -> int:
    """Maximal number of pairwise orthogonal states of a spectral space."""
    if isinstance(space, geo.Simplex):
        return space.n
    if isinstance(space, geo.Ball):
        return 2
    if isinstance(space, geo.DensityMatrices):
        return space.n
    if isinstance(space, geo.Polytope):
        verts = space.vertex_array
        if len(verts) == space.dim + 1:  # affinely independent: a simplex
            return len(verts)
        raise NonSpectralSpaceError("polytope is not a simplex; rank undefined")
    raise TypeError(f"unsupported space {space!r}")


# ---------------------------------------------------------------------------
# Entropy landscape on two-dimensional spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Landscape:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ys)), NaN outside the space
    maxima: tuple  # ((x, y, entropy), ...)

    def csv_rows(self):
        """x, y and entropy columns over the grid points inside the space, in grid order."""
        inside = ~np.isnan(self.values)
        x, y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return x[inside], y[inside], self.values[inside]

    def maxima_json(self) -> list:
        return [
            {"coords": [float(x), float(y)], "entropy": float(h)}
            for x, y, h in self.maxima
        ]


def _planar_chart(space):
    """(bounding box, chart) for a 2-dimensional space; chart maps x, y arrays to coords rows."""
    if isinstance(space, geo.Polytope):
        if space.dim != 2:
            raise ValueError("landscape supports polytopes in a 2D ambient space")
        verts = space.vertex_array
        box = (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(), verts[:, 1].max())
        return box, lambda x, y: np.stack([x, y], axis=-1)
    if isinstance(space, geo.Simplex) and space.n == 3:
        return (0.0, 1.0, 0.0, 1.0), lambda x, y: np.stack([x, y, 1.0 - x - y], axis=-1)
    if isinstance(space, geo.Ball) and space.d == 2:
        return (-1.0, 1.0, -1.0, 1.0), lambda x, y: np.stack([x, y], axis=-1)
    raise ValueError(f"space {space!r} is not two-dimensional")


def entropy_landscape(space, grid_resolution: int = 101) -> Landscape:
    """Entropy on a regular grid over the bounding box of a 2D space.

    Exterior grid points are marked absent (NaN).  Local maxima are grid
    points strictly greater than every present point among their eight
    neighbors; plateau points never qualify.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    (x0, x1, y0, y1), chart = _planar_chart(space)
    xs = np.linspace(x0, x1, grid_resolution)
    ys = np.linspace(y0, y1, grid_resolution)
    coords = chart(*np.meshgrid(xs, ys, indexing="ij"))
    inside = space.contains_state(coords, tol=1e-12)
    values = np.full((grid_resolution, grid_resolution), np.nan)
    values[inside] = _entropies(space, coords[inside], 1.0)

    windows = sliding_window_view(np.pad(values, 1, constant_values=np.nan), (3, 3))
    neighbors = np.delete(windows.reshape(grid_resolution, grid_resolution, 9), 4, axis=-1)
    present = ~np.isnan(neighbors)
    strict = np.all(~present | (values[..., None] > neighbors), axis=-1)
    maxima = tuple(
        (float(xs[i]), float(ys[j]), float(values[i, j]))
        for i, j in np.argwhere(inside & strict & np.any(present, axis=-1))
    )
    return Landscape(xs, ys, values, maxima)
