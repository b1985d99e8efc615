"""States, cone elements and affine functionals, independent of geometry.

A cone element is stored as a pair (trace weight, state coordinates): the
element lam * s keeps lam separate from the unit-trace point s, which avoids
dividing by a small trace near the apex.  The state space itself is any
descriptor object exposing ``coords_len``, ``contains_state`` and
``barycenter_coords`` (see :mod:`spectral_cone.geometries`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidWeightsError, NotInConeError, SpaceMismatchError
from .tolerances import MEMBERSHIP_TOL, WEIGHT_TOL


@dataclass(frozen=True)
class ConeElement:
    """A point lam * s of the positive cone over a state space.

    trace_weight is lam >= 0; coords are the coordinates of the unit-trace
    state s.  The apex (lam = 0) carries no meaningful coords.
    """

    space: object
    trace_weight: float
    coords: np.ndarray

    def __post_init__(self):
        lam = float(self.trace_weight)
        if not math.isfinite(lam):
            raise NotInConeError(f"trace weight {lam} is not finite")
        if lam < -WEIGHT_TOL:
            raise NotInConeError(f"negative trace weight {lam}")
        lam = max(lam, 0.0)
        coords = np.asarray(self.coords, dtype=float).reshape(-1).copy()
        if coords.shape[0] != self.space.coords_len:
            raise NotInConeError(f"expected {self.space.coords_len} coordinates, got {coords.shape[0]}")
        if lam > 0.0:
            require_states(self.space, coords)
        coords.setflags(write=False)
        object.__setattr__(self, "trace_weight", lam)
        object.__setattr__(self, "coords", coords)

    @property
    def is_apex(self) -> bool:
        return self.trace_weight == 0.0

    def embedded(self) -> np.ndarray:
        """Coordinates of the element in the ambient vector space (lam * coords)."""
        return self.trace_weight * self.coords

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "trace": self.trace_weight,
            "coords": [float(c) for c in self.coords],
        }


class State(ConeElement):
    """A cone element with unit trace: a point of the state space."""

    def __init__(self, space, coords):
        super().__init__(space, 1.0, coords)

    @classmethod
    def _trusted(cls, space, coords: np.ndarray) -> "State":
        """A State of a float row that is a state by construction, without the membership test.

        The row is frozen in place, so callers pass one that nothing else holds.
        """
        coords.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "trace_weight", 1.0)
        object.__setattr__(out, "coords", coords)
        return out


def mix(weights: Sequence[float], states: Sequence[State]) -> State:
    """Convex combination of states with a probability vector of weights."""
    weights = np.asarray(weights, dtype=float)
    if len(states) == 0 or weights.shape != (len(states),):
        raise InvalidWeightsError("weights and states must align and be nonempty")
    if float(np.min(weights)) < -WEIGHT_TOL:
        raise InvalidWeightsError(f"negative weight {float(np.min(weights))}")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InvalidWeightsError(f"weights sum to {total}, expected 1")
    require_space(states[0].space, states[1:])
    coords = np.zeros(states[0].space.coords_len)
    for w, s in zip(weights, states):
        coords += w * s.coords
    return State(states[0].space, coords)


def mix_coords(t, a, b) -> np.ndarray:
    """Coordinates (1 - t) a + t b of broadcastable state coordinate arrays, in the operation order of ``mix``.

    Unlike ``mix`` it runs no membership test: state spaces are convex, so mixtures of tested rows are states.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -WEIGHT_TOL) or np.any(t > 1.0 + WEIGHT_TOL):
        raise InvalidWeightsError("mixture weights leave [0, 1]")
    return 0.0 + (1.0 - t) * a + t * b


def require_space(space, elements) -> None:
    """Raise SpaceMismatchError unless every element lives in the space."""
    for x in elements:  # a loop, and identity before equality: Divergence.__call__ runs this per evaluation
        if x.space is not space and x.space != space:
            raise SpaceMismatchError("elements live in different state spaces")


def require_states(space, rows) -> None:
    """Raise NotInConeError unless every coordinate row passes the membership test of the space."""
    ok = space.contains_state(rows, tol=MEMBERSHIP_TOL)
    if not (ok if ok.ndim == 0 else ok.all()):  # a State's one row skips the cost of a reduction
        raise NotInConeError("state coordinates fail the membership test")


@dataclass(frozen=True)
class AffineFunctional:
    """An affine map on the embedding space: x -> linear . x + offset.

    Serves both as a test (range [0, 1] over the state space) and as an
    action whose value at a state is its expected payoff.
    """

    linear: np.ndarray
    offset: float

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float).reshape(-1).copy()
        linear.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", float(self.offset))

    def value_at_coords(self, coords) -> float:
        return float(np.dot(self.linear, np.asarray(coords, dtype=float))) + self.offset

    def __call__(self, s: State) -> float:
        return self.value_at_coords(s.coords)

    @classmethod
    def constant(cls, value: float, coords_len: int) -> "AffineFunctional":
        return cls(np.zeros(coords_len), value)


def evaluate(a: AffineFunctional, s: State) -> float:
    """Expected payoff <a, s> of action a in state s; affine in s."""
    return a(s)


def is_test(a: AffineFunctional, space) -> bool:
    """True when a maps every state of the space into [0, 1], within MEMBERSHIP_TOL.

    The extreme-point range is computed by the geometry: exactly over
    polytope vertices, analytically for balls and matrix spaces.
    """
    if a.linear.shape != (space.coords_len,):
        raise ValueError(f"functional has {a.linear.size} coefficients, the space {space.coords_len} coordinates")
    lo, hi = space.functional_range(a)
    return lo >= -MEMBERSHIP_TOL and hi <= 1.0 + MEMBERSHIP_TOL
