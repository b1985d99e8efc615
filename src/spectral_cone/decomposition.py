"""Spectra, majorization and orthogonal decompositions, shared by geometry and entropy code."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import ConeElement

TOTAL_TOL = 1e-9


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
        if w.size and w[-1] < -1e-12:
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
