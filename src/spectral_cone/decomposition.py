"""Spectra, majorization and orthogonal decompositions, shared by geometry and entropy code."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import ConeElement
from .tolerances import MAJORIZATION_TOL, TOTAL_TOL, WEIGHT_TOL


@np.errstate(over="ignore")  # a weight near the float limit gives -inf
def weights_entropy(weights) -> np.ndarray:
    """-sum w ln w down axis 0 of a weight array; entries at or below 0 contribute nothing."""
    w = np.asarray(weights, dtype=float)
    positive = w > 0.0
    terms = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0)
    return -np.sum(terms, axis=0) + 0.0  # + 0.0 turns -0.0 into 0.0


@dataclass(frozen=True)
class Spectrum:
    """Weight vector of a decomposition, sorted descending."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.sort(np.asarray(self.weights, dtype=float).reshape(-1))[::-1].copy()
        if w.size and w[-1] < -WEIGHT_TOL:
            raise ValueError(f"spectrum entries must be nonnegative, got {w[-1]}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def padded(self, length: int) -> np.ndarray:
        if length < self.weights.size:
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: self.weights.size] = self.weights
        return out

    def entropy(self) -> float:
        return float(weights_entropy(self.weights))

    def __len__(self) -> int:
        return int(self.weights.size)


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def majorizes(a: Spectrum, b: Spectrum) -> Ordering:
    """Partial-sum comparison of two spectra of the same element.

    Shorter spectra are padded with zeros.  Raises when the totals differ,
    since majorization only compares decompositions of one element.
    """
    if abs(a.total - b.total) > TOTAL_TOL * max(1.0, abs(a.total), abs(b.total)):
        raise ValueError(f"spectra have different totals: {a.total} vs {b.total}")
    length = max(len(a), len(b))
    delta = np.cumsum(a.padded(length) - b.padded(length))
    slack = MAJORIZATION_TOL * max(1.0, abs(a.total))
    hi = float(np.max(delta))
    lo = float(np.min(delta))
    if hi <= slack and lo >= -slack:
        return Ordering.EQUAL
    if lo >= -slack:
        return Ordering.DOMINATES
    if hi <= slack:
        return Ordering.DOMINATED
    return Ordering.INCOMPARABLE


def maximal_spectra(spectra) -> np.ndarray:
    """Mask of the spectra of one element that no other dominates: ``majorizes`` of every pair at once."""
    totals = np.array([s.total for s in spectra])
    length = max(len(s) for s in spectra)
    padded = np.array([s.padded(length) for s in spectra])
    scale = np.maximum(1.0, np.abs(totals))
    apart = np.abs(totals[:, None] - totals[None]) > TOTAL_TOL * np.maximum(scale[:, None], scale[None])
    if np.any(apart):
        i, j = np.argwhere(apart)[0]  # the first pair majorizes(spectra[j], spectra[i]) would meet
        raise ValueError(f"spectra have different totals: {totals[j]} vs {totals[i]}")
    delta = np.cumsum(padded[:, None] - padded[None], axis=-1)  # [a, b]: partial sums of a - b
    slack = MAJORIZATION_TOL * scale[:, None]
    return ~np.any((np.min(delta, axis=-1) >= -slack) & (np.max(delta, axis=-1) > slack), axis=0)


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """x = sum of weight_i * s_i with pairwise orthogonal pure states s_i."""

    space: object
    weights: np.ndarray
    components: tuple
    witnesses: Optional[tuple] = None  # AffineFunctional per pair (i, j), i < j

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if w.size != len(self.components):
            raise ValueError("weights and components must align")
        if w.size and float(np.min(w)) <= 0.0:
            raise ValueError("decomposition weights must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def spectrum(self) -> Spectrum:
        return Spectrum(self.weights)

    def element(self) -> ConeElement:
        """Reconstruct the decomposed cone element."""
        total = float(np.sum(self.weights))
        coords = np.zeros(self.space.coords_len)
        for w, s in zip(self.weights, self.components):
            coords += w * s.coords
        return ConeElement(self.space, total, coords / total)

    def reconstruction_error(self, x: ConeElement) -> float:
        mine = self.element()
        return float(np.max(np.abs(mine.embedded() - x.embedded())))

    def to_json(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "components": [[float(c) for c in s.coords] for s in self.components],
            "spectrum": [float(w) for w in self.spectrum().weights],
        }
