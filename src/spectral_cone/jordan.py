"""Jordan-algebra arithmetic over the real, complex and quaternionic rings.

Hermitian matrices over the three division rings form Euclidean Jordan
algebras under the symmetrized product x o y = (xy + yx) / 2.  This module
provides the eigendecomposition into orthogonal idempotents, the matrix
functional calculus, directional and trace derivatives of matrix functions
(divided-difference formulas), and the numerical checker for strict
concavity of entropy.

Every computation runs on the complex form of a matrix: real matrices are
complex matrices with zero imaginary part, and quaternionic matrices go
through the complex embedding, where each eigenvalue appears twice.
Eigendecompositions are LAPACK heevd (numpy.linalg.eigh) on that form.

The ring layer is the one place that knows a ring: each entry component's
sign under conjugation (and so the entry width), the multiplicity of
eigenvalues in the complex form, the conversions between ring data, its
(..., n, n, k) real entries and complex forms, and the Hermitian part
(A + A*) / 2, taken on entries in float arithmetic so that it is exact and
keeps signed zeros (complex division by 2 would not).  HermitianMatrix is
the public face of this calculus; the density-matrix geometry reshapes its
coordinate rows to entries and calls the ring layer on whole stacks.

Random positive matrices come from one density kernel over stacks of ring
data, :func:`positive_matrices`; the single-matrix samplers call it on one
draw and :func:`check_concavity` on all its trials at once.  The concavity
checker draws every trial first, in the order of a per-trial loop, and
evaluates them as stacked arrays: one ``eigh`` of all the ``a`` for the
second derivatives (the Daleckii-Krein form coeff * |V* B V|^2), stacked
``eigvalsh`` calls for the finite differences and midpoint entropies, and
array closed forms on the spin factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import quaternion as quat
from .decomposition import weights_entropy
from .errors import DomainError, require_count, require_tolerance
from .tolerances import (CLUSTER_RADIUS_FLOOR, CLUSTER_RTOL, CONCAVITY_FD_RTOL, CONCAVITY_FD_STEP,
                         CONCAVITY_REL_FLOOR, CONCAVITY_STRICTNESS, HERMITIAN_TOL, MIDPOINT_SLACK_TOL,
                         NEGATIVE_EIGENVALUE_TOL, SPIN_DEGENERATE_TOL, ZERO_EIGENVALUE_TOL)

RINGS = ("real", "complex", "quaternion")
# the sign each real component of an entry takes under conjugation: the imaginary units flip
_ADJOINT_SIGNS = {ring: np.array([1.0] + [-1.0] * (k - 1)) for ring, k in zip(RINGS, (1, 2, 4))}


def entry_width(ring: str) -> int:
    """Real components of an entry: 1, 2 or 4."""
    return len(_ADJOINT_SIGNS[ring])


def multiplicity(ring: str) -> int:
    """Copies of each ring eigenvalue in a complex form: 2 for quaternions, else 1."""
    return 2 if ring == "quaternion" else 1


# ---------------------------------------------------------------------------
# Hermitian matrices over a division ring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianMatrix:
    """A Hermitian matrix tagged with its division ring.

    data has shape (n, n) for the real and complex rings and (n, n, 4)
    for the quaternionic ring.
    """

    ring: str
    data: np.ndarray

    def __post_init__(self):
        data = _ring_array(self.ring, self.data)
        scale = max(1.0, float(np.max(np.abs(data))))
        defect = np.max(np.abs(data - _conj_transpose(self.ring, data)))
        if defect > HERMITIAN_TOL * scale:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        data = _hermitian_data(self.ring, data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def _trusted(cls, ring: str, data: np.ndarray) -> "HermitianMatrix":
        """Wrap data of a known ring and shape that is exactly Hermitian.

        Skips the defect check and the re-symmetrization, which would leave
        such data bit-for-bit unchanged.  The array is frozen in place, so
        callers pass one that nothing else holds.
        """
        data = np.asarray(data, dtype=complex if ring == "complex" else float)
        data.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "data", data)
        return out

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def mult(self) -> int:
        return multiplicity(self.ring)

    # Sums, differences and real multiples of exactly Hermitian matrices are
    # exactly Hermitian in IEEE arithmetic: conjugation only flips signs.
    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_compatible(other)
        return HermitianMatrix._trusted(self.ring, self.data + other.data)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_compatible(other)
        return HermitianMatrix._trusted(self.ring, self.data - other.data)

    def scale(self, c: float) -> "HermitianMatrix":
        return HermitianMatrix._trusted(self.ring, float(c) * self.data)

    def matmul(self, other: "HermitianMatrix") -> np.ndarray:
        """Raw ring product; the result is generally not Hermitian."""
        self._check_compatible(other)
        return _ring_matmul(self.ring, self.data, other.data)

    def to_complex(self) -> np.ndarray:
        """Complex matrix with the same spectrum structure (embedding for quaternions)."""
        return complex_forms(self.ring, self.data)

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    def _check_compatible(self, other: "HermitianMatrix") -> None:
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("ring or size mismatch")

    @classmethod
    def identity(cls, ring: str, n: int) -> "HermitianMatrix":
        return cls(ring, _identity_data(ring, n))

    @classmethod
    def zeros(cls, ring: str, n: int) -> "HermitianMatrix":
        return cls(ring, np.zeros_like(_identity_data(ring, n)))


def _ring_array(ring: str, data) -> np.ndarray:
    """Matrix data coerced to the ring's dtype, checked to be square and finite."""
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    quaternion = ring == "quaternion"
    data = np.asarray(data)
    if ring != "complex" and np.iscomplexobj(data):  # real and quaternion entries have no imaginary part
        if np.any(data.imag != 0):
            raise ValueError(f"{ring} matrix entries must have no imaginary part")
        data = data.real
    data = quat.qarray(data) if quaternion else np.asarray(data, dtype=complex if ring == "complex" else float)
    if data.ndim != 2 + quaternion or data.shape[0] != data.shape[1]:
        raise ValueError("quaternion matrix data must have shape (n, n, 4)" if quaternion
                         else "matrix data must be square")
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix entries must be finite")
    return data


# The ring layer; every helper acts on every matrix of a stack.

def ring_entries(ring: str, data) -> np.ndarray:
    """The (..., n, n, k) real entries of ring data; a view of contiguous data."""
    data = np.ascontiguousarray(data, dtype=complex if ring == "complex" else float)
    if ring == "complex":
        return data.view(float).reshape(*data.shape, 2)
    return data if ring == "quaternion" else data[..., None]


def entry_data(ring: str, entries: np.ndarray) -> np.ndarray:
    """Ring data of (..., n, n, k) entries; inverts ring_entries."""
    if ring == "complex":
        return np.ascontiguousarray(entries).view(complex)[..., 0]
    return entries if ring == "quaternion" else entries[..., 0]


def hermitian_entries(ring: str, entries: np.ndarray) -> np.ndarray:
    """(A + A*) / 2 of (..., n, n, k) entries; exactly Hermitian in IEEE arithmetic."""
    return (entries + np.swapaxes(entries, -2, -3) * _ADJOINT_SIGNS[ring]) / 2.0


def entry_traces(entries: np.ndarray) -> np.ndarray:
    """Ring trace of every matrix of (..., n, n, k) entries: the sum of the real parts of its diagonal."""
    return np.sum(np.diagonal(entries[..., 0], axis1=-2, axis2=-1), axis=-1)


def _conj_transpose(ring: str, data: np.ndarray) -> np.ndarray:
    return entry_data(ring, np.swapaxes(ring_entries(ring, data), -2, -3) * _ADJOINT_SIGNS[ring])


def _hermitian_data(ring: str, raw) -> np.ndarray:
    """(A + A*) / 2 of ring data."""
    return entry_data(ring, hermitian_entries(ring, ring_entries(ring, raw)))


def _identity_data(ring: str, n: int) -> np.ndarray:
    entries = np.zeros((n, n, entry_width(ring)))
    entries[np.arange(n), np.arange(n), 0] = 1.0
    return entry_data(ring, entries)


def _ring_matmul(ring: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return quat.qmat_mul(a, b) if ring == "quaternion" else a @ b


def complex_forms(ring: str, data: np.ndarray) -> np.ndarray:
    """Complex forms of ring data: the data itself, the embedding for quaternions."""
    return quat.to_complex(data) if ring == "quaternion" else np.asarray(data, dtype=complex)


def form_entries(ring: str, z) -> np.ndarray:
    """Entries of the Hermitian parts of (..., m, m) complex forms, through the inverse of complex_forms."""
    data = quat.from_complex(z) if ring == "quaternion" else z if ring == "complex" else np.real(z)
    return hermitian_entries(ring, ring_entries(ring, data))


def hermitian_part(ring: str, raw: np.ndarray) -> HermitianMatrix:
    """The HermitianMatrix (A + A*) / 2 of raw data; exactly Hermitian, so it needs no defect check."""
    raw = _ring_array(ring, np.real(raw) if ring == "real" else raw)
    return HermitianMatrix._trusted(ring, _hermitian_data(ring, raw))


def from_form(ring: str, z: np.ndarray) -> HermitianMatrix:
    """The matrix over the ring whose complex form is the Hermitian part of z."""
    return HermitianMatrix._trusted(ring, entry_data(ring, form_entries(ring, z)))


def jordan_product(x: HermitianMatrix, y: HermitianMatrix) -> HermitianMatrix:
    """Symmetrized product x o y = (xy + yx) / 2; Hermitian and commutative."""
    return hermitian_part(x.ring, x.matmul(y) + y.matmul(x)).scale(0.5)


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def _cluster_starts(w: np.ndarray) -> np.ndarray:
    """Where each cluster of every ascending row starts: where the gap exceeds CLUSTER_RTOL times its radius."""
    thresh = CLUSTER_RTOL * np.maximum(CLUSTER_RADIUS_FLOOR, np.max(np.abs(w), axis=-1, keepdims=True))
    starts = np.ones(w.shape, dtype=bool)
    starts[..., 1:] = ~(np.diff(w, axis=-1) <= thresh)
    return starts


def cluster_indices(values: np.ndarray) -> list:
    """Group sorted eigenvalues whose gaps are below CLUSTER_RTOL * spectral radius."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    return np.split(np.arange(values.size), np.flatnonzero(_cluster_starts(values))[1:])


def cluster_means(w: np.ndarray) -> np.ndarray:
    """Every eigenvalue of each ascending row replaced by the mean of its cluster (the cluster_indices rule)."""
    starts = _cluster_starts(w)
    flat = w.reshape(-1)
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, flat.size))
    return np.repeat(np.add.reduceat(flat, first) / counts, counts).reshape(w.shape)


@dataclass(frozen=True)
class EigenDecomposition:
    """Clustered eigenvalues with orthogonal idempotents summing to identity."""

    ring: str
    eigenvalues: tuple
    multiplicities: tuple
    idempotents: tuple

    def reconstruct(self) -> HermitianMatrix:
        zero = HermitianMatrix.zeros(self.ring, self.idempotents[0].n)
        return sum((e.scale(t) for t, e in zip(self.eigenvalues, self.idempotents)), zero)


def eigen_hermitian(m: HermitianMatrix) -> EigenDecomposition:
    """Eigendecomposition into distinct eigenvalues and orthogonal idempotents.

    Quaternionic matrices are diagonalized through the complex embedding;
    every eigenvalue then shows up with even multiplicity and the
    quaternionic multiplicity is half the complex one.
    """
    w, v = np.linalg.eigh(m.to_complex())
    groups = cluster_indices(w)
    if any(len(g) % m.mult for g in groups):
        raise RuntimeError("embedded quaternionic eigenvalues must pair up")
    return EigenDecomposition(m.ring, tuple(float(np.mean(w[g])) for g in groups),
                              tuple(len(g) // m.mult for g in groups),
                              tuple(from_form(m.ring, v[:, g] @ np.conj(v[:, g].T)) for g in groups))


def rank_one_components(m: HermitianMatrix) -> list:
    """Split a Hermitian matrix into (eigenvalue, rank-one idempotent) pairs."""
    t, forms = rank_one_forms(*np.linalg.eigh(m.to_complex()), m.mult)
    return [(float(a), from_form(m.ring, p)) for a, p in zip(t, forms)]


def ring_eigenvalues(w: np.ndarray, mult: int = 1) -> np.ndarray:
    """Ring eigenvalues (..., m // mult) of ascending ``eigh`` stacks w (..., m); quaternionic ones (mult 2),
    whose complex eigenvalues come in pairs, are each cluster's mean once per pair."""
    if mult == 1:
        return w
    clusters = [(row, g) for row in np.ndindex(w.shape[:-1]) for g in cluster_indices(w[row])]
    if any(len(g) % 2 for _, g in clusters):
        raise RuntimeError("embedded quaternionic eigenvalues must pair up")
    t = [np.mean(w[row][g]) for row, g in clusters for _ in range(len(g) // 2)]
    return np.reshape(t, (*w.shape[:-1], w.shape[-1] // 2))


def rank_one_forms(w: np.ndarray, v: np.ndarray, mult: int = 1):
    """Ring eigenvalues (..., m // mult) and rank-one idempotent forms (..., m // mult, m, m) of ``eigh`` stacks.

    w (..., m), v (..., m, m) are eigenpairs of Hermitian complex forms; mult
    is 2 for quaternionic matrices, whose rank-one idempotents have rank-two
    forms, built one cluster at a time from an eigenvector and its structure
    partner (see ``ring_eigenvalues``).  Within each eigenvalue cluster the
    idempotents are pairwise orthogonal.
    """
    t = ring_eigenvalues(w, mult)
    if mult == 1:  # one (m, 1) @ (1, m) product per eigenvector, as for a single form
        return t, np.stack([c @ np.conj(np.swapaxes(c, -1, -2)) for c in np.split(v, w.shape[-1], -1)], axis=-3)
    forms = []
    for row in np.ndindex(w.shape[:-1]):
        for g in cluster_indices(w[row]):
            cols = v[row][:, g]
            proj = cols @ np.conj(cols.T)
            for _ in range(len(g) // 2):
                j = int(np.argmax(np.real(np.diag(proj))))
                u = proj[:, j] / np.linalg.norm(proj[:, j])
                ut = quat.structure_partner(u)
                forms.append(np.outer(u, np.conj(u)) + np.outer(ut, np.conj(ut)))
                proj = proj - forms[-1]
    return t, np.reshape(np.array(forms, dtype=complex), (*t.shape, *v.shape[-2:]))


def eigenvalues_of(m: HermitianMatrix) -> np.ndarray:
    """Ring eigenvalues in ascending order (deduplicated for quaternions)."""
    return np.linalg.eigvalsh(m.to_complex())[:: m.mult]


# ---------------------------------------------------------------------------
# Scalar functions and matrix functional calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """A real-analytic scalar function with derivative oracles on an open interval."""

    name: str
    f: Callable
    df: Callable
    d2f: Callable = None
    domain: tuple = (-math.inf, math.inf)

    def outside(self, values) -> np.ndarray:
        """Flags of the rows of a (..., k) array with a value outside the domain."""
        lo, hi = self.domain
        return (np.min(values, axis=-1) <= lo) | (np.max(values, axis=-1) >= hi)

    def check_domain(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.size and self.outside(values.reshape(-1)):
            lo, hi = self.domain
            raise DomainError(
                f"eigenvalues {values} outside the domain ({lo}, {hi}) of {self.name}"
            )


SQUARE = ScalarFunction("square", lambda z: z * z, lambda z: 2.0 * z, lambda z: 2.0 * np.ones_like(z))
CUBE = ScalarFunction("cube", lambda z: z ** 3, lambda z: 3.0 * z * z, lambda z: 6.0 * z)
EXP = ScalarFunction("exp", np.exp, np.exp, np.exp)
NEG_XLOGX = ScalarFunction(
    "neg_xlogx",
    lambda z: -z * np.log(z),
    lambda z: -np.log(z) - 1.0,
    lambda z: -1.0 / z,
    domain=(0.0, math.inf),
)


def _divided_difference_matrix(fvals: np.ndarray, dfvals: np.ndarray,
                               reps: np.ndarray) -> np.ndarray:
    """Matrices of (f(t_i) - f(t_j)) / (t_i - t_j) with f' on equal clusters, one per row."""
    diff = reps[..., :, None] - reps[..., None, :]
    same = diff == 0.0
    safe = np.where(same, 1.0, diff)
    dd = (fvals[..., :, None] - fvals[..., None, :]) / safe
    return np.where(same, (dfvals[..., :, None] + dfvals[..., None, :]) / 2.0, dd)


def directional_derivative(fn: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Derivative of f(a + t b) at t = 0 via divided differences.

    Eigenvalues closer than CLUSTER_RTOL times the spectral radius are
    treated as equal, switching the coefficient to f'.
    """
    a._check_compatible(b)
    w, v = np.linalg.eigh(a.to_complex())
    fn.check_domain(w)
    reps = cluster_means(w)
    coeff = _divided_difference_matrix(fn.f(reps), fn.df(reps), reps)
    mid = np.conj(v.T) @ b.to_complex() @ v
    return from_form(a.ring, v @ (coeff * mid) @ np.conj(v.T))


def trace_derivative(fn: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix) -> float:
    """d/dt Tr f(a + t b) at t = 0, computed as Tr(f'(a) b)."""
    a._check_compatible(b)
    w, v = np.linalg.eigh(a.to_complex())
    fn.check_domain(w)
    mid_diag = np.real(np.einsum("ij,jk,ki->i", np.conj(v.T), b.to_complex(), v))
    return float(np.dot(fn.df(w), mid_diag)) / a.mult


def second_trace_derivative(fn: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix) -> float:
    """d^2/dt^2 Tr f(a + t b) at t = 0 via divided differences of f'."""
    a._check_compatible(b)
    if fn.d2f is None:
        raise ValueError(f"{fn.name} carries no second derivative oracle")
    w, v = np.linalg.eigh(a.to_complex())
    fn.check_domain(w)
    return float(_second_trace_derivatives(fn, w, v, b.to_complex())) / a.mult


def _second_trace_derivatives(fn: ScalarFunction, w: np.ndarray, v: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Sum of coeff * |V* B V|^2 for stacks of eigendecompositions (w, v) and forms zb.

    coeff holds the divided differences of f' (Daleckii-Krein); divided by
    the multiplicity of the forms, this is d^2/dt^2 Tr f(a + t b) at t = 0.
    """
    reps = cluster_means(w)
    coeff = _divided_difference_matrix(fn.df(reps), fn.d2f(reps), reps)
    mid = np.conj(np.swapaxes(v, -1, -2)) @ zb @ v
    terms = coeff * np.abs(mid) ** 2
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def trace_function(fn: ScalarFunction, m: HermitianMatrix) -> float:
    """Tr f(m) from the ring eigenvalues."""
    w = eigenvalues_of(m)
    fn.check_domain(w)
    return float(np.sum(fn.f(w)))


def von_neumann_entropy(m: HermitianMatrix) -> float:
    """Entropy -sum t ln t of the ring eigenvalues, with 0 ln 0 = 0."""
    return float(spectral_entropies(eigenvalues_of(m)))


def _negative_spectra(w: np.ndarray) -> np.ndarray:
    """Rows of an ascending eigenvalue stack with an eigenvalue below -NEGATIVE_EIGENVALUE_TOL * max(1, radius)."""
    return w[..., 0] < -NEGATIVE_EIGENVALUE_TOL * np.maximum(1.0, np.max(np.abs(w), axis=-1))


def spectral_entropies(w: np.ndarray) -> np.ndarray:
    """-sum t ln t over the last axis of an ascending ring-eigenvalue stack.

    Eigenvalues at or below ZERO_EIGENVALUE_TOL count as 0; a row with an
    eigenvalue below -NEGATIVE_EIGENVALUE_TOL times its spectral radius (at
    least 1) raises DomainError.
    """
    if np.any(_negative_spectra(w)):
        raise DomainError("matrix has a negative eigenvalue")
    return weights_entropy(np.moveaxis(np.where(w > ZERO_EIGENVALUE_TOL, w, 0.0), -1, 0))


# ---------------------------------------------------------------------------
# Random sampling helpers (deterministic per seed)
# ---------------------------------------------------------------------------

def gaussian_draws(ring: str, n: int, rng: np.random.Generator, lead: tuple = (),
                   cols: Optional[int] = None) -> np.ndarray:
    """Raw Gaussian ring data of shape (*lead, n, cols), or (*lead, n, cols, 4) over the quaternions.

    cols defaults to n (square draws); cols = 1 draws column vectors.  The
    draws consume the stream exactly as successive single draws do (a
    complex draw takes its real part, then its imaginary part), so row k
    of a stack is the k-th draw of a loop.
    """
    lead, cols = tuple(lead), n if cols is None else cols
    if ring == "real":
        return rng.standard_normal((*lead, n, cols))
    if ring == "complex":
        g = rng.standard_normal((*lead, 2, n, cols))
        return g[..., 0, :, :] + 1j * g[..., 1, :, :]
    return rng.standard_normal((*lead, n, cols, 4))


def random_unitary(ring: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ring data (n, n), or (n, n, 4) over the quaternions, of a random unitary.

    Over the real and complex rings, the Q factor of a Gaussian draw with the
    phases of R's diagonal moved into it; over the quaternions, unit-quaternion
    phases on the diagonal composed with 2n Givens-like rotations.
    """
    if ring == "real":
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(r))
    if ring == "complex":
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * np.exp(-1j * np.angle(np.diag(r)))
    u = np.zeros((n, n, 4))
    phases = rng.standard_normal((n, 4))
    phases /= np.linalg.norm(phases, axis=1, keepdims=True)
    u[np.arange(n), np.arange(n)] = phases
    for _ in range(2 * n if n > 1 else 0):  # a 1x1 unitary is its phase alone
        i, j = rng.choice(n, size=2, replace=False)
        theta = rng.uniform(0, 2 * np.pi)
        c, s = math.cos(theta), math.sin(theta)
        qph = rng.standard_normal(4)
        qph /= np.linalg.norm(qph)
        g = _identity_data(ring, n)
        g[i, i] = g[j, j] = c * quat.ONE
        g[i, j] = s * qph
        g[j, i] = -s * quat.qconj(qph)
        u = quat.qmat_mul(u, g)
    return u


def positive_matrices(ring: str, raw: np.ndarray, floor: float = 0.0,
                      unit_trace: bool = True) -> np.ndarray:
    """The density kernel: positive ring data from a stack of raw draws.

    With g the Hermitian part of a draw and m the Hermitian part of g g,
    a unit_trace result is (m + floor I) / Tr(m + floor I), a density matrix;
    otherwise it is m / max(1, Tr m) + floor I, whose eigenvalues are at
    least floor.  Every matrix of the stack is computed as it would be alone.
    """
    g = _hermitian_data(ring, raw)
    m = _hermitian_data(ring, _ring_matmul(ring, g, g))
    eye = floor * _identity_data(ring, raw.shape[-3 if ring == "quaternion" else -1])
    if unit_trace:
        if floor > 0.0:
            m = m + eye
        return _per_matrix(1.0 / entry_traces(ring_entries(ring, m)), m)
    return _per_matrix(1.0 / np.maximum(1.0, entry_traces(ring_entries(ring, m))), m) + eye


def pure_matrices(ring: str, raw: np.ndarray) -> np.ndarray:
    """The pure-density kernel: v v* for every raw column draw of a stack, v scaled to unit norm.

    raw holds (..., n, 1) columns, or (..., n, 1, 4) over the quaternions.
    The norm is the one ``np.linalg.norm`` takes of a single vector (BLAS
    dots of the real and imaginary parts), so every matrix of the stack is
    computed as it would be alone.
    """
    if ring == "quaternion":
        sq = np.sum((raw ** 2).reshape(*raw.shape[:-3], -1), axis=-1)[..., None, None, None]
        v = raw / np.sqrt(sq)
        return _hermitian_data(ring, quat.qmat_mul(v, _conj_transpose(ring, v)))
    sq = np.swapaxes(raw.real, -1, -2) @ raw.real
    if ring == "complex":
        sq = sq + np.swapaxes(raw.imag, -1, -2) @ raw.imag
    v = raw / np.sqrt(sq)
    return _hermitian_data(ring, v * _conj_transpose(ring, v))


def _per_matrix(c: np.ndarray, data: np.ndarray) -> np.ndarray:
    """c[k] * data[k] for every k of a leading-axis stack."""
    c = np.asarray(c)
    return c.reshape(c.shape + (1,) * (data.ndim - c.ndim)) * data


def random_hermitian(ring: str, n: int, rng: np.random.Generator) -> HermitianMatrix:
    return HermitianMatrix._trusted(ring, _hermitian_data(ring, gaussian_draws(ring, n, rng)))


def random_positive_definite(ring: str, n: int, rng: np.random.Generator,
                             floor: float = 0.2) -> HermitianMatrix:
    """Random positive matrix with eigenvalues at least `floor`."""
    return HermitianMatrix._trusted(
        ring, positive_matrices(ring, gaussian_draws(ring, n, rng), floor, unit_trace=False))


def random_density_matrix(ring: str, n: int, rng: np.random.Generator,
                          floor: float = 0.0) -> HermitianMatrix:
    """Random density matrix (positive, unit ring trace)."""
    return HermitianMatrix._trusted(ring, positive_matrices(ring, gaussian_draws(ring, n, rng), floor))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

ALGEBRA_PATTERN = re.compile(rf"^({'|'.join(RINGS)}|spin)(\d+)$")


def _parse_algebra(algebra) -> tuple:
    """Accept ('complex', 3), 'complex3', ('spin', 5) or 'spin5'."""
    if isinstance(algebra, tuple):
        kind, n = algebra
        kind, n = str(kind), int(n)
    else:
        m = ALGEBRA_PATTERN.match(str(algebra).strip())
        if m is None:
            raise ValueError(f"cannot parse algebra {algebra!r}: expected real, complex, quaternion "
                             f"or spin followed by a size, e.g. complex3")
        kind, n = m.group(1), int(m.group(2))
    require_count("algebra size", n)
    return kind, n


CONCAVITY_CONDITIONS = ("second_derivative", "finite_difference", "midpoint")


def check_concavity(algebra, trials: int = 200, seed: int = 0,
                    fd_step: float = CONCAVITY_FD_STEP, strictness: float = CONCAVITY_STRICTNESS) -> dict:
    """Verify strict concavity of entropy on the positive cone of an algebra.

    For random positive a and nonzero Hermitian b (unit Frobenius norm) the
    second trace derivative of -z ln z along b must be below
    -strictness * ||b||^2, and must match a central second difference of
    Tr f(a + t b).  Midpoint concavity of entropy is checked along random
    state segments.  Every trial is drawn first, in the order of a per-trial
    loop, and all trials are evaluated as stacked arrays.  A failing
    report's witness is the first failing trial: its index, the first
    condition it breaks and its values.  The aggregates skip NaN values,
    which still fail their trial.
    """
    kind, n = _parse_algebra(algebra)
    require_count("trials", trials)
    require_tolerance("strictness", strictness)
    rng = np.random.default_rng(seed)
    steps = np.array([fd_step, 0.0, -fd_step])
    terms = _spin_concavity_terms if kind == "spin" else _matrix_concavity_terms
    d2, g, slack = terms(kind, n, trials, rng, steps)
    fd = (g[:, 0] - 2.0 * g[:, 1] + g[:, 2]) / fd_step ** 2
    rel = np.abs(fd - d2) / np.maximum(CONCAVITY_REL_FLOOR, np.abs(d2))
    holds = np.stack([d2 < -strictness, rel <= CONCAVITY_FD_RTOL, slack >= -MIDPOINT_SLACK_TOL], axis=1)
    failing = np.flatnonzero(~np.all(holds, axis=1))
    witness = None
    if failing.size:
        trial = int(failing[0])
        witness = {"trial": trial, "condition": CONCAVITY_CONDITIONS[int(np.argmin(holds[trial]))],
                   "d2": float(d2[trial]), "fd": float(fd[trial]), "rel_err": float(rel[trial]),
                   "slack": float(slack[trial])}
    max_second = float(np.max(d2[~np.isnan(d2)], initial=-math.inf))
    return {
        "check": "concavity",
        "algebra": f"{kind}{n}",
        "pass": witness is None,
        "max_gap": float(max(0.0, max_second + strictness)),
        "max_second_derivative": max_second,
        "fd_max_rel_err": float(np.max(rel[~np.isnan(rel)], initial=0.0)),
        "min_midpoint_slack": float(np.min(slack[~np.isnan(slack)], initial=math.inf)),
        "witness": witness,
        "trials": int(trials),
        "seed": int(seed),
    }


def _matrix_concavity_terms(ring: str, n: int, trials: int, rng: np.random.Generator, steps: np.ndarray):
    """Second derivatives, Tr f(a + t b) at the steps t and midpoint slacks of every matrix trial.

    A trial draws a (positive, eigenvalues at least 0.2), then b (unit
    Frobenius norm), then two density matrices with eigenvalues at least
    0.01 of the segment whose midpoint is tested.
    """
    raw = gaussian_draws(ring, n, rng, (trials, 4))
    a = positive_matrices(ring, raw[:, 0], floor=0.2, unit_trace=False)
    b = _hermitian_data(ring, raw[:, 1])
    b = _per_matrix(1.0 / np.sqrt(np.sum(np.abs(b.reshape(trials, -1)) ** 2, axis=1)), b)
    s = positive_matrices(ring, raw[:, 2:], floor=0.01)
    mult = multiplicity(ring)
    w, v = np.linalg.eigh(complex_forms(ring, a))
    points = a[:, None] + _per_matrix(np.broadcast_to(steps, (trials, 3)), b[:, None])
    pw = np.linalg.eigvalsh(complex_forms(ring, points))[..., ::mult]
    states = np.stack([0.5 * (s[:, 0] + s[:, 1]), s[:, 0], s[:, 1]], axis=1)
    sw = np.linalg.eigvalsh(complex_forms(ring, states))[..., ::mult]
    _raise_first_domain_error((w[:, None], NEG_XLOGX.outside(w)[:, None], NEG_XLOGX.check_domain),
                              (sw, _negative_spectra(sw), spectral_entropies),
                              (pw, NEG_XLOGX.outside(pw), NEG_XLOGX.check_domain))
    d2 = _second_trace_derivatives(NEG_XLOGX, w, v, complex_forms(ring, b)) / mult
    h = spectral_entropies(sw)
    return d2, np.sum(NEG_XLOGX.f(pw), axis=-1), h[:, 0] - (h[:, 1] + h[:, 2]) / 2.0


def _spin_concavity_terms(kind: str, d: int, trials: int, rng: np.random.Generator, steps: np.ndarray):
    """The terms of :func:`_matrix_concavity_terms` on the spin factor R + R^d.

    A trial draws a = (1, v) with |v| <= 0.8, then b = (s, u) of unit norm,
    then two states (1/2, x/2) with x uniform in the unit ball.  The
    eigenvalues of (t, v) are t -+ |v|; the second derivative is the closed
    form of differentiating them, with f'' on the single eigenvalue when
    |v| <= SPIN_DEGENERATE_TOL.
    """
    draws = np.empty((trials, 4 * d + 1))  # v, s, u, then the two ball directions
    radii = np.zeros((trials, 2))

    def radius(x):  # a zero direction draws no radius
        return rng.uniform() ** (1.0 / d) if np.dot(x, x) > 0.0 else 0.0

    for trial in range(trials):
        row = draws[trial]
        row[: 3 * d + 1] = rng.standard_normal(3 * d + 1)
        radii[trial, 0] = radius(row[2 * d + 1 : 3 * d + 1])
        row[3 * d + 1 :] = rng.standard_normal(d)
        radii[trial, 1] = radius(row[3 * d + 1 :])
    v = draws[:, :d] * 0.3
    nv = _norms(v)[:, None]
    v = np.where(nv > 0.8, v * (0.8 / np.where(nv > 0.8, nv, 1.0)), v)
    s, u = draws[:, d], draws[:, d + 1 : 2 * d + 1]
    norm = np.sqrt(s ** 2 + _row_dots(u, u))
    s, u = s / norm, u / norm[:, None]
    x = draws[:, 2 * d + 1 :].reshape(trials, 2, d)
    xn = _norms(x)[..., None]
    halves = np.where(xn > 0.0, x / np.where(xn > 0.0, xn, 1.0) * radii[..., None], 0.0) / 2.0

    fn = NEG_XLOGX
    r = _norms(v)
    tv = 1.0 + steps * s[:, None]
    tr = _norms(v[:, None] + steps[:, None] * u[:, None])
    pw = np.stack([tv - tr, tv + tr], axis=-1)
    mr = _norms(np.stack([(halves[:, 0] + halves[:, 1]) / 2.0, halves[:, 0], halves[:, 1]], axis=1))
    sw = np.stack([0.5 - mr, 0.5 + mr], axis=-1)
    aw = np.where((r <= SPIN_DEGENERATE_TOL)[:, None], 1.0, np.stack([1.0 - r, 1.0 + r], axis=-1))[:, None]
    _raise_first_domain_error((aw, fn.outside(aw), fn.check_domain),
                              (sw, _negative_spectra(sw), spectral_entropies),
                              (pw, fn.outside(pw), fn.check_domain))
    d2 = _spin_second_derivatives(fn, np.ones(trials), v, s, u)
    h = spectral_entropies(sw)
    return d2, fn.f(pw[..., 0]) + fn.f(pw[..., 1]), h[:, 0] - (h[:, 1] + h[:, 2]) / 2.0


def _spin_second_derivatives(fn: ScalarFunction, t: np.ndarray, v: np.ndarray, s: np.ndarray,
                             u: np.ndarray) -> np.ndarray:
    """d^2/dh^2 [f(lam_-(a + h b)) + f(lam_+(a + h b))] at h = 0 for rows a = (t, v), b = (s, u).

    Closed form from differentiating the eigenvalues t +- |v|; the
    degenerate branch (|v| <= SPIN_DEGENERATE_TOL) uses f'' on the single
    eigenvalue, mirroring the equal-eigenvalue rule of the matrix calculus.
    """
    r = _norms(v)
    degenerate = r <= SPIN_DEGENERATE_TOL
    safe_r = np.where(degenerate, 1.0, r)
    lo, hi = t - r, t + r
    rdot = _row_dots(v / safe_r[:, None], u)
    rddot = (_row_dots(u, u) - rdot ** 2) / safe_r
    un = _norms(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(degenerate, fn.d2f(t) * ((s + un) ** 2 + (s - un) ** 2),
                        fn.d2f(hi) * (s + rdot) ** 2 + fn.d2f(lo) * (s - rdot) ** 2
                        + rddot * (fn.df(hi) - fn.df(lo)))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y of every row pair, through the BLAS dot that np.dot runs on one row."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, computed as np.linalg.norm computes it for one."""
    return np.sqrt(_row_dots(x, x))


def _raise_first_domain_error(*checks) -> None:
    """Raise the error a per-trial loop meets first: its earliest trial, then its first check.

    Each check is (rows, bad, check): a (trials, k, ...) stack of eigenvalue
    rows in the order a trial evaluates them, the (trials, k) flags of the
    rows that fail, and the scalar check that raises on such a row.
    """
    bad = np.concatenate([flags for _, flags, _ in checks], axis=1)
    if not np.any(bad):
        return
    trial, col = np.argwhere(bad)[0]
    for rows, flags, check in checks:
        if col < flags.shape[1]:
            check(rows[trial, col])
        col -= flags.shape[1]
