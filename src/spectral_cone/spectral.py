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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import ConeElement, require_space
from .decomposition import Ordering, OrthogonalDecomposition, Spectrum, majorizes
from .errors import ApexError, check_report, require_count
from .tolerances import GRID_MEMBERSHIP_TOL, SPECTRUM_DIGITS, SPECTRUM_GAP_TOL

__all__ = [
    "Spectrum",
    "OrthogonalDecomposition",
    "Ordering",
    "majorizes",
    "entropy",
    "is_spectral",
    "SpectralityReport",
    "entropy_landscape",
    "Landscape",
]


def entropy(space, x: ConeElement) -> float:
    """Minimal -sum w ln w over orthogonal decompositions of x, in nats; -inf below the float range."""
    require_space(space, (x,))
    if x.is_apex:
        raise ApexError("entropy of the apex is undefined")
    return float(space.entropies(x.coords[None, :], x.trace_weight)[0])


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
        max_gap, witness = 0.0, None
        if not self.spectral:
            a, b = (Spectrum(s) for s in self.witness_spectra)
            length = max(len(a), len(b))
            max_gap = np.max(np.abs(a.padded(length) - b.padded(length)))
            witness = {"coords": [float(c) for c in self.witness_coords],
                       "spectra": [[float(w) for w in s] for s in self.witness_spectra]}
        return check_report("spectrality", self.spectral, max_gap, witness, self.samples, self.seed,
                            method=self.method)


def _distinct_spectra(decompositions):
    """Sorted distinct spectra of the decompositions of one state, SPECTRUM_GAP_TOL apart."""
    specs = {tuple(np.round(dec.spectrum().weights, SPECTRUM_DIGITS)) for dec in decompositions}
    unique = sorted(specs, key=lambda s: (len(s), s))
    pruned = []
    for s in unique:
        if not any(len(s) == len(t) and max(abs(a - b) for a, b in zip(s, t)) <= SPECTRUM_GAP_TOL
                   for t in pruned):
            pruned.append(s)
    return pruned


def is_spectral(space, samples: int = 40, seed: int = 0) -> SpectralityReport:
    """Whether every state of the space has a unique decomposition spectrum.

    Simplices, balls, spin factors and density matrices are spectral
    analytically (unique coordinates, antipodal pairs, unitarily invariant
    eigenvalues).  Polytopes are probed at the vertex barycenter first and
    then at random states; one stacked clique solve screens the probes, and
    the exact enumeration runs on those that two clique systems solve (see
    ``Polytope.ambiguous_probes``).  Two decompositions of one state with
    different spectra witness failure.
    """
    require_count("samples", samples)
    if space.canonical_decomposition:
        return SpectralityReport(True, "analytic", 0, seed)
    for coords, decompositions in space.ambiguous_probes(np.random.default_rng(seed), samples):
        distinct = _distinct_spectra(decompositions)
        if len(distinct) > 1:
            shortest, longest_len = distinct[0], len(distinct[-1])
            candidates = [s for s in distinct if len(s) == longest_len and s != shortest]
            longest = min(candidates) if candidates else distinct[-1]
            return SpectralityReport(False, "enumeration", samples, seed, witness_coords=coords,
                                     witness_spectra=(shortest, longest))
    return SpectralityReport(True, "enumeration", samples, seed)


# ---------------------------------------------------------------------------
# Entropy landscape on two-dimensional spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Landscape:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(xs), len(ys)), NaN outside the space
    maxima: tuple  # ((x, y, entropy), ...)

    def csv_text(self) -> str:
        """x,y,entropy CSV (17 significant digits) of the grid points inside, in grid order.

        Each coordinate and each distinct entropy, keyed on its bits (-0.0 stays "-0"), is formatted once.
        """
        i, j = np.nonzero(~np.isnan(self.values))
        bits, index = np.unique(self.values[i, j].view(np.int64), return_inverse=True)
        x, y = (np.array(_formatted(axis, ","), dtype=object) for axis in (self.xs, self.ys))
        h = np.array(_formatted(bits.view(np.float64), "\n"), dtype=object)
        return "x,y,entropy\n" + "".join(np.stack([x[i], y[j], h[index]], axis=-1).ravel().tolist())

    def maxima_json(self) -> list:
        return [
            {"coords": [float(x), float(y)], "entropy": float(h)}
            for x, y, h in self.maxima
        ]


def entropy_landscape(space, grid_resolution: int = 101) -> Landscape:
    """Entropy on a regular grid over the bounding box of a 2D space.

    Exterior grid points are marked absent (NaN).  Local maxima are grid
    points strictly greater than every present point among their eight
    neighbors; plateau points never qualify.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    (x0, x1, y0, y1), chart = space.planar_chart()
    xs = np.linspace(x0, x1, grid_resolution)
    ys = np.linspace(y0, y1, grid_resolution)
    coords = chart(*np.meshgrid(xs, ys, indexing="ij"))
    inside = space.contains_state(coords, tol=GRID_MEMBERSHIP_TOL)
    values = np.full((grid_resolution, grid_resolution), np.nan)
    values[inside] = space.entropies(coords[inside], 1.0)

    maxima = tuple((float(xs[i]), float(ys[j]), float(values[i, j])) for i, j in np.argwhere(_strict_maxima(values)))
    return Landscape(xs, ys, values, maxima)


def _formatted(values: np.ndarray, end: str) -> list:
    """Each value to 17 significant digits followed by end, formatted in one pass."""
    return (f"%.17g{end}\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _strict_maxima(values: np.ndarray) -> np.ndarray:
    """Present (non-NaN) points of a 2D grid with a present neighbor, above each of their eight present neighbors."""
    padded = np.pad(values, 1, constant_values=np.nan)
    strict, alone = ~np.isnan(values), np.ones(values.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        neighbor = padded[di:di + values.shape[0], dj:dj + values.shape[1]]
        strict &= ~(neighbor >= values)  # an absent (NaN) neighbor compares false
        alone &= np.isnan(neighbor)
    return strict & ~alone
