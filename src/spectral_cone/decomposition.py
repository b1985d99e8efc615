"""Spectra, majorization and orthogonal decompositions, shared by geometry and entropy code."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import ConeElement
from .tolerances import MAJORIZATION_TOL, TOTAL_TOL, WEIGHT_TOL


@np.errstate(over="ignore")  # a weight near the float limit gives -inf
def weights_entropy(weights, kept=None, axis=0) -> np.ndarray:
    """-sum w ln w down one axis of a weight array, over the entries in kept (default: those above 0)."""
    w = np.asarray(weights, dtype=float)
    kept = w > 0.0 if kept is None else kept
    terms = np.log(w, out=np.zeros_like(w), where=kept)
    return -np.sum(np.multiply(w, terms, out=terms, where=kept), axis=axis) + 0.0  # + 0.0 turns -0.0 into 0.0


@dataclass(frozen=True)
class Spectrum:
    """Weight vector of a decomposition, sorted descending."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.sort(np.asarray(self.weights, dtype=float).reshape(-1))[::-1].copy()
        low = np.min(w, initial=np.inf)  # nan if an entry is NaN, which the sort put first
        if not low >= -WEIGHT_TOL:
            raise ValueError(f"spectrum entries must be nonnegative, got {low}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def padded(self, length: int) -> np.ndarray:
        if length < self.weights.size:
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: self.weights.size] = self.weights
        return out

    def __len__(self) -> int:
        return int(self.weights.size)


class Ordering(enum.Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _weak_majorization(spectra) -> tuple:
    """(a weakly majorizes b, b weakly majorizes a) of every ordered pair [a, b] of descending weight lists of
    one element.

    Shorter lists are padded with zeros, and the partial sums of a - b are compared with a slack of
    MAJORIZATION_TOL times a's total (np.sum of the list, at least 1).  Raises when two totals differ, since
    majorization only compares decompositions of one element; the message names the later list of the first
    such pair first.
    """
    totals = np.array([np.add.reduce(s) for s in spectra])  # np.sum's reduction, without its dispatch
    length = max(len(s) for s in spectra)
    padded = np.array([[*s, *[0.0] * (length - len(s))] for s in spectra])
    scale = np.maximum(1.0, np.abs(totals))
    apart = np.abs(totals[:, None] - totals[None]) > TOTAL_TOL * np.maximum(scale[:, None], scale[None])
    if np.any(apart):
        i, j = np.argwhere(apart)[0]
        raise ValueError(f"spectra have different totals: {totals[j]} vs {totals[i]}")
    delta = np.cumsum(padded[:, None] - padded[None], axis=-1)  # [a, b]: partial sums of a - b
    slack = MAJORIZATION_TOL * scale[:, None]
    return np.min(delta, axis=-1) >= -slack, np.max(delta, axis=-1) <= slack


def majorizes(a: Spectrum, b: Spectrum) -> Ordering:
    """Partial-sum comparison of two spectra of the same element: ``_weak_majorization`` of [b, a] read at
    (a, b), so that a refusal names a's total first."""
    dominates, dominated = (m[1, 0] for m in _weak_majorization([b.weights, a.weights]))
    if dominates and dominated:
        return Ordering.EQUAL
    if dominates:
        return Ordering.DOMINATES
    if dominated:
        return Ordering.DOMINATED
    return Ordering.INCOMPARABLE


def maximal_spectra(spectra) -> np.ndarray:
    """Mask of the descending weight lists of one element that no other dominates: ``majorizes`` of every pair."""
    dominates, dominated = _weak_majorization(spectra)
    return ~np.any(dominates & ~dominated, axis=0)


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """x = sum of weight_i * s_i with pairwise orthogonal pure states s_i."""

    space: object
    weights: np.ndarray
    components: tuple
    witnesses: Optional[tuple] = None  # AffineFunctional per pair (i, j), i < j
    checked_error: Optional[float] = None  # the reconstruction_error that decompose checked, else None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if w.size != len(self.components):
            raise ValueError("weights and components must align")
        if w.size and not float(np.min(w)) > 0.0:  # NaN fails too
            raise ValueError("decomposition weights must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def spectrum(self) -> Spectrum:
        return Spectrum(self.weights)

    def reconstruction_error(self, x: ConeElement) -> float:
        return _reconstruction_error(self.weights, self.components, x)

    def to_json(self) -> dict:
        """Weights, component coordinates and the spectrum, the weights as ``Spectrum`` sorts them."""
        return {
            "weights": self.weights.tolist(),
            "components": [s.coords.tolist() for s in self.components],
            "spectrum": np.sort(self.weights)[::-1].tolist(),
        }


def _reconstruction_error(weights: np.ndarray, components, x: ConeElement) -> float:
    """Sup-norm gap between sum w_i s_i, taken as total * (sum / total), and the embedding of x."""
    total = float(np.sum(weights))
    coords = np.zeros(x.space.coords_len)
    for w, s in zip(weights, components):
        coords += w * s.coords
    return float(np.max(np.abs(total * (coords / total) - x.embedded())))
