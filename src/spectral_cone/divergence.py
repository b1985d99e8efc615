"""Payoff envelopes, regret functions, Bregman divergences and their checkers.

A convex generator F on the state space induces the regret (Bregman
divergence) D(s1, s2) = F(s1) - F(s2) - <grad F(s2), s1 - s2>, the vertical
gap at s1 between F and its tangent at s2.  Equivalently, with actions the
tangent functionals of F, D(s1, s2) is the payoff lost by acting optimally
for s2 when the state is s1.

Divergences evaluate in the extended reals: a distinguished infinite value
(math.inf) encodes failures of absolute continuity, never a float overflow.
The locality checker compares such values as extended reals (two infinities
of the same sign are equal).  Divergences whose generator is undefined on
the boundary (Itakura-Saito) declare ``requires_interior``; their checker
trials are projected into the interior by an epsilon-mixture with the
barycenter before evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jordan
from .cone import AffineFunctional, State, evaluate, mix, mix_coords, require_space, require_states
from .errors import NotInConeError, PreconditionError, check_report, require_count, require_tolerance
from .tolerances import (ENTROPY_FIT_TOL, INTERIOR_EPS, KL_ZERO_MASS, LOCALITY_TOL, OPTIMAL_ACTION_TOL,
                         REVERSIBILITY_TOL, SUFFICIENCY_TOL, SUPPORT_LEAK_TOL, ZERO_EIGENVALUE_TOL)

DEFAULT_T_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


# ---------------------------------------------------------------------------
# Generators and the payoff envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """Convex function on a state space with value and gradient oracles.

    The gradient is a covector on the coordinate embedding.  Gradients at
    boundary states are taken after an epsilon-mixture with the barycenter
    (see ``clamp``), which keeps logarithmic generators finite.
    """

    name: str
    value: Callable[[State], float]
    gradient: Callable[[State], np.ndarray]

    def tangent(self, s: State) -> AffineFunctional:
        """Supporting affine functional of the generator at s."""
        g = self.gradient(s)
        return AffineFunctional(g, self.value(s) - float(np.dot(g, s.coords)))


def clamp(s: State) -> State:
    """Mix a state toward the barycenter, with weight INTERIOR_EPS, to keep gradients finite."""
    bary = State(s.space, s.space.barycenter_coords())
    return mix([1.0 - INTERIOR_EPS, INTERIOR_EPS], [s, bary])


def negentropy_generator() -> Generator:
    """F(p) = sum p ln p on the simplex; induces the KL divergence."""

    def value(s):
        p = np.asarray(s.coords)
        p = p[p > 0.0]
        return float(np.sum(p * np.log(p)))

    def gradient(s):
        p = np.asarray(clamp(s).coords)
        return np.log(p) + 1.0

    return Generator("negentropy", value, gradient)


def squared_norm_generator() -> Generator:
    """F(x) = sum x_i^2; induces the squared Euclidean divergence."""
    return Generator(
        "squared_norm",
        lambda s: float(np.dot(s.coords, s.coords)),
        lambda s: 2.0 * np.asarray(s.coords),
    )


@dataclass(frozen=True)
class FiniteActionSet:
    """A finite, closed set of payoff functionals."""

    actions: tuple

    def optimal_for(self, s: State):
        values = [evaluate(a, s) for a in self.actions]
        best = max(values)
        return best, [a for a, v in zip(self.actions, values) if v >= best - OPTIMAL_ACTION_TOL]


@dataclass(frozen=True)
class TangentActionSet:
    """The tangent planes of a convex generator; optimal action = tangent."""

    generator: Generator

    def optimal_for(self, s: State):
        a = self.generator.tangent(s)
        return self.generator.value(s), [a]


def envelope(actions, s: State):
    """Maximal payoff over the action set and one attaining action."""
    value, best = actions.optimal_for(s)
    if not best:
        raise PreconditionError("action set has no optimal action; not closed")
    return value, best[0]


def regret_action(s: State, a: AffineFunctional, actions) -> float:
    """Payoff shortfall F(s) - <a, s> of playing a in state s."""
    value, _ = envelope(actions, s)
    return value - evaluate(a, s)


def regret_state(s1: State, s2: State, actions) -> float:
    """Infimum of regret_action(s1, a) over actions a optimal for s2."""
    require_space(s1.space, (s2,))
    value_s1, _ = envelope(actions, s1)
    _, optimal = actions.optimal_for(s2)
    if not optimal:
        raise PreconditionError("no action optimal for the second state")
    return value_s1 - max(evaluate(a, s1) for a in optimal)


def bregman(gen: Generator, s1: State, s2: State) -> float:
    """F(s1) - F(s2) - <grad F(s2), s1 - s2>; tangent gap of the generator."""
    require_space(s1.space, (s2,))
    tangent = gen.tangent(s2)
    return gen.value(s1) - evaluate(tangent, s1)


# ---------------------------------------------------------------------------
# The divergence zoo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """Evaluation rule D(s1, s2) >= 0 with provenance and domain flags.

    ``rule`` maps two States to a value.  The builtin divergences give
    ``array_rule`` instead: it maps two broadcastable (..., coords_len)
    coordinate arrays to the value of every row pair, and their scalar call
    evaluates one row of it.
    """

    name: str
    provenance: str
    rule: Optional[Callable[[State, State], float]] = None
    requires_interior: bool = False
    array_rule: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, s1: State, s2: State) -> float:
        require_space(s1.space, (s2,))
        if self.array_rule is None:
            return self.rule(s1, s2)
        return float(self.array_rule(s1.coords, s2.coords))

    def values(self, space, p, q) -> np.ndarray:
        """D between the rows of two broadcastable (..., coords_len) state arrays; an array rule gets them as given."""
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        if self.array_rule is not None:
            return np.broadcast_to(self.array_rule(p, q), np.broadcast_shapes(p.shape, q.shape)[:-1])
        p, q = np.broadcast_arrays(p, q)
        rows = zip(p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1]))
        out = [self.rule(State(space, a), State(space, b)) for a, b in rows]
        return np.array(out, dtype=float).reshape(p.shape[:-1])


def _kl_values(p, q):
    mask = p > KL_ZERO_MASS
    off = np.any(mask & (q <= 0.0), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, p * np.log(p / q), 0.0)
    return np.where(off, math.inf, np.sum(terms, axis=-1))


def kl_divergence() -> Divergence:
    """Relative entropy sum p ln(p/q) with 0 ln 0 = 0 and inf off support."""
    return Divergence("kl", "builtin", array_rule=_kl_values)


def _squared_euclidean_values(p, q):
    d = (p - q)[..., None, :]
    return (d @ d.swapaxes(-1, -2))[..., 0, 0]  # the BLAS dot that np.dot runs on one row


def squared_euclidean_divergence() -> Divergence:
    return Divergence("squared_euclidean", "builtin", array_rule=_squared_euclidean_values)


def _itakura_saito_values(p, q):
    outside = (np.min(p, axis=-1) <= 0.0) | (np.min(q, axis=-1) <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / q
        terms = ratio - np.log(ratio) - 1.0
    return np.where(outside, math.inf, np.sum(terms, axis=-1))


def itakura_saito_divergence() -> Divergence:
    """sum (p/q - ln(p/q) - 1) on positive vectors."""
    return Divergence("itakura_saito", "builtin", requires_interior=True,
                      array_rule=_itakura_saito_values)


def matrix_negentropy_divergence(space: "DensityMatrices") -> Divergence:
    """Tr rho (ln rho - ln sigma), inf when supp rho exceeds supp sigma.

    With sigma = sum_j mu_j |v_j><v_j| over the eigenvectors of its form, D = Tr rho ln rho - sum_j ln mu_j
    <v_j|rho|v_j> / mult.  The support of sigma is its eigenvalues above ZERO_EIGENVALUE_TOL; D is inf when
    rho puts more than SUPPORT_LEAK_TOL of its mass outside it.  Tr rho ln rho comes from one stacked eigvalsh
    under the rule of ``jordan.spectral_entropies``, skipped when every pair leaks, as in the mixture-first
    order of a locality check: its rows are states there, so that rule could not have raised.
    """

    def array_rule(p, q):
        mu, v = np.linalg.eigh(space.forms(q))
        rho = space.forms(p)
        mass = np.real(np.sum(np.conj(v) * (rho @ v), axis=-2)) / space.mult  # <v_j|rho|v_j>
        supp = mu > ZERO_EIGENVALUE_TOL
        leaks = np.sum(np.where(supp, 0.0, mass), axis=-1) > SUPPORT_LEAK_TOL
        if np.all(leaks):
            return np.full(leaks.shape, math.inf)
        cross = np.sum(np.log(np.where(supp, mu, 1.0)) * mass, axis=-1)
        negentropy = -jordan.spectral_entropies(jordan.ring_eigenvalues(np.linalg.eigvalsh(rho), space.mult))
        return np.where(leaks, math.inf, negentropy - cross)

    return Divergence("matrix_negentropy", "builtin", array_rule=array_rule)


def scaled_divergence(c: float, div: Divergence) -> Divergence:
    array_rule = None if div.array_rule is None else (lambda p, q: c * div.array_rule(p, q))
    return Divergence(
        f"{c}*{div.name}", div.provenance, lambda s1, s2: c * div(s1, s2), div.requires_interior,
        array_rule,
    )


def divergence_from_generator(gen: Generator) -> Divergence:
    return Divergence(gen.name, "from_generator", lambda s1, s2: bregman(gen, s1, s2))


def divergence_from_action_set(actions) -> Divergence:
    return Divergence(
        "action_set_regret", "from_action_set", lambda s1, s2: regret_state(s1, s2, actions)
    )


_BUILTINS = {  # name -> constructor from the space
    "kl": lambda space: kl_divergence(),
    "squared_euclidean": lambda space: squared_euclidean_divergence(),
    "itakura_saito": lambda space: itakura_saito_divergence(),
    "matrix_negentropy": matrix_negentropy_divergence,
}
_VECTOR_ONLY = "{name} is a probability-vector divergence; use {use} on {kind} spaces"
_OFF_DOMAIN = {"kl": _VECTOR_ONLY, "itakura_saito": _VECTOR_ONLY,
               "matrix_negentropy": "matrix_negentropy needs a density-matrix space"}


def builtin_divergence(name: str, space) -> Divergence:
    """The builtin divergence called name, on a space whose zoo holds it (squared_euclidean on any)."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown divergence {name!r}")
    if name not in (*space.divergences, "squared_euclidean"):
        use = ", ".join(space.divergences)
        raise ValueError(_OFF_DOMAIN[name].format(name=name, use=use, kind=space.kind))
    return _BUILTINS[name](space)


def divergence_zoo(space) -> list:
    """The builtin divergences of a space, in the order of ``space.divergences``."""
    return [_BUILTINS[name](space) for name in space.divergences]


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------

def _extended_gaps(a, b) -> np.ndarray:
    """|a - b| elementwise in the extended reals; equal infinities are distance 0.

    A NaN on either side is an infinite gap, so no tolerance can pass it.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isinf(a) & (a == b), 0.0, np.abs(a - b))
    return np.where(np.isnan(gap), math.inf, gap)


def _interior_map(div: Divergence, space):
    """Coordinate map onto the points a divergence is evaluated at.

    For divergences that require the interior, this is the epsilon-mixture
    with the barycenter, which maps states to states; otherwise the identity.
    """
    if not div.requires_interior:
        return lambda coords: coords
    bary = space.barycenter_coords()
    return lambda coords: mix_coords(INTERIOR_EPS, coords, bary)


def check_locality(div: Divergence, space, trials: int = 1000, tol: float = LOCALITY_TOL,
                   seed: int = 0) -> dict:
    """Test whether D((1-t)s0 + t*s1, s0) and D(s0, (1-t)s0 + t*s1) are independent of the orthogonal s1.

    The mixing weights t are DEFAULT_T_GRID.  The check passes only when the gaps of both argument orders,
    ``max_gap`` (mixture first, the order of the defining identity) and ``reversed_max_gap``, are at most tol:
    the entropy-generated divergences are +inf on every mixture-first pair, so for them only the reversed order
    is finite.  Gaps compare extended reals, so two divergences that are both infinite agree.  The triples are
    drawn as stacks by the space's ``orthogonal_triples`` and take the check's one membership test together
    (state spaces are convex, so their mixtures are states); every (trial, t) pair is evaluated as one stacked
    array, and the witness is the first largest gap in (trial, t) order, of the forward order when it fails
    and of the reversed one otherwise.
    """
    require_count("trials", trials)
    require_tolerance("tol", tol)
    if space.dim < 1:  # rank 1 (polytopes may have no rank): one state, no orthogonal pair
        raise ValueError(f"locality needs a space of rank at least 2, got a {space.kind} space of rank 1")
    rng = np.random.default_rng(seed)
    s0, s1, s2, vacuous = space.orthogonal_triples(rng, trials)
    require_states(space, np.stack([s0, s1, s2]))
    t = np.asarray(DEFAULT_T_GRID)[:, None]
    dom = _interior_map(div, space)
    # mixtures with s1 and with s2, shape (2, trials, len(DEFAULT_T_GRID), coords_len)
    mixed = dom(mix_coords(t, s0[None, :, None], np.stack([s1, s2])[:, :, None]))
    pure = dom(s0)[:, None]
    a, b = div.values(space, mixed, pure)
    gaps = _extended_gaps(a, b)
    max_gap = float(np.max(gaps, initial=-1.0))
    ar, br = div.values(space, pure, mixed)
    reversed_gaps = _extended_gaps(ar, br)
    max_gap_reversed = float(np.max(reversed_gaps, initial=-1.0))
    passed = max_gap <= tol and max_gap_reversed <= tol
    witness = None
    if not passed:
        failing = gaps if max_gap > tol else reversed_gaps
        trial, k = np.unravel_index(int(np.argmax(failing)), failing.shape)
        witness = {
            "trial": int(trial),
            "t": DEFAULT_T_GRID[k],
            "s0": [float(c) for c in s0[trial]],
            "s1": [float(c) for c in s1[trial]],
            "s2": [float(c) for c in s2[trial]],
            "values": [float(a[trial, k]), float(b[trial, k])],
            "reversed_values": [float(ar[trial, k]), float(br[trial, k])],
        }
    return check_report("locality", passed, max_gap, witness, trials, seed, divergence=div.name,
                        space=space.to_json(), reversed_max_gap=max_gap_reversed, tolerance=float(tol),
                        vacuous=bool(np.all(vacuous)))


# ---------------------------------------------------------------------------
# Sufficiency
# ---------------------------------------------------------------------------

def _pair_rows(space, rows) -> np.ndarray:
    """(k, 2, coords_len) stack of k row pairs; rows of another length raise as State() does."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != space.coords_len:
        raise NotInConeError(f"expected {space.coords_len} coordinates, got {rows.shape[-1]}")
    return rows.reshape(-1, 2, space.coords_len)


def check_sufficiency(div: Divergence, space, channel_suite=None, tol: float = SUFFICIENCY_TOL,
                      trials: int = 200, seed: int = 0) -> dict:
    """Invariance of the divergence under channels reversible on the family.

    Each trial draws two states from a pair's reversible family, verifies
    psi(phi(s)) = s (violations are reported separately as precondition
    failures, not divergence failures) and compares D(phi s1, phi s2)
    against D(s1, s2).  Trial k belongs to pair k mod len(suite).  The base
    rows of every trial come from one ``space.family_draws`` stack; each pair
    then maps the rows of its trials onto its family, through phi and back
    through psi as one stack, and the drawn, mapped and pulled-back stacks
    take one membership test together.  The base and image divergences of
    all trials that meet the precondition are evaluated as one stacked array.
    """
    require_count("trials", trials)
    require_tolerance("tol", tol)
    rng = np.random.default_rng(seed)
    suite = channel_suite if channel_suite is not None else space.channel_suite(rng)
    owner = np.arange(trials) % len(suite)  # the pair of every trial

    def by_pair(name, stack):  # apply each pair's family, phi or psi map to the rows of its trials
        out = np.empty_like(stack)
        for k, pair in enumerate(suite):
            mine = owner == k
            out[mine] = _pair_rows(space, getattr(pair, name)(stack[mine].reshape(-1, space.coords_len)))
        return out

    drawn = by_pair("family", space.family_draws(rng, (trials, 2)))
    mapped = by_pair("phi", drawn)
    back = by_pair("psi", mapped)
    require_states(space, np.stack([drawn, mapped, back]))
    bad = np.max(np.abs(back - drawn), axis=-1) > REVERSIBILITY_TOL
    violations = int(np.sum(bad))
    kept = np.flatnonzero(~np.any(bad, axis=1))
    pairs = _interior_map(div, space)(np.stack([drawn[kept], mapped[kept]]))  # (base or image, pair, 2, coords)
    base, image = div.values(space, pairs[:, :, 0], pairs[:, :, 1])
    gaps = _extended_gaps(base, image)
    max_gap = float(np.max(gaps, initial=-1.0))
    passed = violations == 0 and max_gap <= tol
    witness = None
    if not passed and kept.size:
        i = int(np.argmax(gaps))
        trial = int(kept[i])
        witness = {
            "trial": trial,
            "channel": suite[owner[trial]].name,
            "s1": [float(c) for c in drawn[trial, 0]],
            "s2": [float(c) for c in drawn[trial, 1]],
            "values": [float(base[i]), float(image[i])],
        }
    return check_report("sufficiency", passed, max_gap, witness, trials, seed, divergence=div.name,
                        space=space.to_json(), precondition_violations=violations,
                        exploratory=bool(space.exploratory), tolerance=float(tol))


# ---------------------------------------------------------------------------
# Entropy-constant recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyFit:
    constant: float
    residual: float
    entropy_generated: bool


def fit_entropy_constant(div: Divergence, space: "Simplex", tol: float = ENTROPY_FIT_TOL,
                         samples: int = 200, seed: int = 0) -> EntropyFit:
    """Least-squares fit of a local divergence against the KL divergence.

    A local regret on a simplex with at least three vertices must be c times
    the KL divergence with c > 0 (the generator is -c times the entropy).
    Raises when the locality precheck (50 trials) fails; a residual above
    tol reports "not entropy-generated", which contradicts locality and
    flags a numerical problem.
    """
    require_count("samples", samples)
    require_tolerance("tol", tol)
    if "kl" not in space.divergences or space.rank < 3:
        raise PreconditionError("entropy-constant recovery needs a simplex with n >= 3: on two outcomes every "
                                "permutation-invariant divergence satisfies sufficiency, so locality does not "
                                "single out kl and there is no constant to recover")
    report = check_locality(div, space, trials=50, seed=seed + 1)
    if not report["pass"]:
        raise PreconditionError(f"divergence {div.name} is not local (max gap {report['max_gap']:.3e})")
    rows = space.family_draws(np.random.default_rng(seed), (samples, 2))
    rows = rows / np.sum(rows, axis=-1, keepdims=True)
    require_states(space, rows)
    d, k = (f.values(space, rows[:, 0], rows[:, 1]) for f in (div, kl_divergence()))
    c = sum((d * k).tolist()) / sum((k * k).tolist())  # summed in sample order
    residual = max(np.abs(d - c * k).tolist())
    if c <= 0.0:
        raise PreconditionError(f"fitted constant {c} is not positive")
    return EntropyFit(float(c), float(residual), bool(residual <= tol))
