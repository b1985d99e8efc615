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

        The grid axes and the distinct entropies, keyed on their bits (-0.0 stays "-0"), are formatted in one
        call with their end bytes; rows are gathered a block at a time, their NUL padding dropped, and decoded.
        """
        i, j = np.nonzero(~np.isnan(self.values))
        bits, index = np.unique(self.values[i, j].view(np.int64), return_inverse=True)
        gx, gy = len(self.xs), len(self.ys)
        ends = np.repeat(np.frombuffer(b",\n", np.uint8), (gx + gy, len(bits)))
        text = _formatted(np.concatenate([self.xs, self.ys, bits.view(np.float64)]), ends)
        rows = np.stack([i, gx + j, gx + gy + index], axis=-1)
        blocks = (np.take(text, rows[start:start + _BLOCK]).tobytes() for start in range(0, len(rows), _BLOCK))
        return "".join(["x,y,entropy\n"] + [block.translate(None, b"\0").decode() for block in blocks])

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


# %.17g writes fixed notation from the decimal exponent X = -4 up (the format spec's rule, no tolerance); below
# 2^52 the 17 digits N fit an int64, and |v| * 10^(16 - X) = N + a fraction is at least 2^53, an integer double.
_FIXED_RANGE = (10.0 ** -4, 2.0 ** 52)
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_DIGITS = np.arange(48, 58, dtype=np.uint8)  # "0" to "9"
_WORDS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()  # of 0000 to 9999
_BLOCK = 4096  # values formatted, or CSV rows gathered, at a time: their byte arrays stay in cache
_ROWS = np.arange(24, dtype=np.uint8)[:, None]  # the byte positions of one formatted value


def _formatted(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """f"{v:.17g}" of each value followed by its end byte (uint8), as a bytes array; ``_fixed_notation`` formats
    the fixed range a block at a time, the % operator the rest (zeros, tiny, huge, NaN and infinite values)."""
    size = np.abs(values)
    fixed = (size >= _FIXED_RANGE[0]) & (size < _FIXED_RANGE[1])  # NaN compares false
    out = np.empty(len(values), "S25")
    fixed, rest = np.flatnonzero(fixed), np.flatnonzero(~fixed)
    for start in range(0, len(fixed), _BLOCK):
        block = fixed[start:start + _BLOCK]
        out[block] = np.ascontiguousarray(_fixed_notation(values[block], ends[block]).T).view("S24").ravel()
    out[rest] = [b"%.17g%c" % pair for pair in zip(values[rest].tolist(), ends[rest].tolist())]
    return out


def _scaled(a, x) -> np.ndarray:
    """a * 10^(16 - x) rounded half to even, exactly: Dekker's two-product p + e, where p >= 2^53 is an integer."""
    factors = np.stack([a, _POW10[16 - x]])
    c = 134217729.0 * factors  # 2^27 + 1: Veltkamp's split into halves of at most 26 bits, whose products are exact
    (ah, bh) = high = c - (c - factors)
    (al, bl), p = factors - high, a * factors[1]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    floor = np.floor(e)
    n = p.astype(np.int64) + floor.astype(np.int64)
    return n + ((e > floor + 0.5) | ((e == floor + 0.5) & (n % 2 == 1)))


def _fixed_notation(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """f"{v:.17g}" plus an end byte for 1e-4 <= |v| < 2^52, as (24, len(values)) bytes padded with NUL: the 17
    digits of the exact ``_scaled``, then each byte row for all values at once by 0/1-mask products in uint8."""
    a = np.abs(values)
    x = np.floor(np.log10(a)).astype(np.int64)
    n = _scaled(a, x)
    redo = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if redo.size:  # log10 rounded across a power of ten
        x[redo] += 2 * (n[redo] >= 10 ** 17) - 1
        n[redo] = _scaled(a[redo], x[redo])
    prefixes = [n // 10 ** k for k in (16, 12, 8, 4)] + [n]  # the first 1, 5, 9, 13 and 17 digits
    groups = np.stack([low - high * 10 ** 4 for high, low in zip(prefixes, prefixes[1:])])
    out = np.full((24, len(values)), 48, np.uint8)  # "0" below the digits
    out[0] = prefixes[0] + 48
    out[1:17].reshape(4, 4, -1)[...] = np.take(_WORDS, groups).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    zeros = (out[16::-1] == 48).argmin(axis=0)  # trailing zero digits; the leading digit is not 0
    sign, lead_zeros = (values < 0).astype(np.uint8), np.maximum(-x, 0).astype(np.uint8)
    shift = sign + lead_zeros  # the sign, then "0" and the zeros after the point below 1
    for k in (1, 2, 4):  # rotating the rows brings "0"s from below the digits to the top
        out += (np.roll(out, k, axis=0) - out) * (shift & k != 0)
    out[0] += (45 - out[0]) * sign
    point = sign + 1 + np.maximum(x, 0).astype(np.uint8)
    out += (np.roll(out, 1, axis=0) - out) * (_ROWS >= point)
    out += (46 - out) * (_ROWS == point)
    strip = np.minimum(zeros, 16 - x)  # trailing zeros of the fraction go, and the point with all of them
    length = (sign + lead_zeros + 17 + (strip < 16 - x) - strip).astype(np.uint8)
    out *= _ROWS < length
    out += (_ROWS == length) * ends
    return out


def _strict_maxima(values: np.ndarray) -> np.ndarray:
    """Present (non-NaN) points of a 2D grid with a present neighbor, above each of their eight present neighbors."""
    padded = np.pad(values, 1, constant_values=np.nan)
    strict, alone = ~np.isnan(values), np.ones(values.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        neighbor = padded[di:di + values.shape[0], dj:dj + values.shape[1]]
        strict &= ~(neighbor >= values)  # an absent (NaN) neighbor compares false
        alone &= np.isnan(neighbor)
    return strict & ~alone
