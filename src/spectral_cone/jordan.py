"""Jordan-algebra arithmetic over the real, complex and quaternionic rings.

Hermitian matrices over the three division rings form Euclidean Jordan
algebras under the symmetrized product x o y = (xy + yx) / 2.  This module
provides the eigendecomposition into orthogonal idempotents, the matrix
functional calculus, directional and trace derivatives of matrix functions
(divided-difference formulas), and the numerical checkers for strict
concavity of entropy and positive definiteness of the trace form.

Every computation runs on the complex form of a matrix: real matrices are
complex matrices with zero imaginary part, and quaternionic matrices go
through the complex embedding, where each eigenvalue appears twice.
Eigendecompositions are LAPACK heevd (numpy.linalg.eigh) on that form, and
:func:`from_form` is the one way back to the ring.  HermitianMatrix is the
public face of this calculus; the density-matrix geometry works on stacks of
complex forms directly (see :class:`spectral_cone.geometries.DensityMatrices`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quaternion as quat
from .decomposition import weights_entropy
from .errors import DomainError, require_count

RINGS = ("real", "complex", "quaternion")

HERMITIAN_TOL = 1e-12
CLUSTER_RTOL = 1e-9


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
        data = (data + _conj_transpose(self.ring, data)) / 2.0
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
        """Copies of each eigenvalue in the complex form (2 for quaternions)."""
        return 2 if self.ring == "quaternion" else 1

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
        if self.ring == "quaternion":
            return quat.qmat_mul(self.data, other.data)
        return self.data @ other.data

    def to_complex(self) -> np.ndarray:
        """Complex matrix with the same spectrum structure (embedding for quaternions)."""
        if self.ring == "quaternion":
            return quat.to_complex(self.data)
        return np.asarray(self.data, dtype=complex)

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    def _check_compatible(self, other: "HermitianMatrix") -> None:
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("ring or size mismatch")

    @classmethod
    def identity(cls, ring: str, n: int) -> "HermitianMatrix":
        if ring == "quaternion":
            data = np.zeros((n, n, 4))
            data[np.arange(n), np.arange(n), 0] = 1.0
            return cls(ring, data)
        dtype = complex if ring == "complex" else float
        return cls(ring, np.eye(n, dtype=dtype))

    @classmethod
    def zeros(cls, ring: str, n: int) -> "HermitianMatrix":
        if ring == "quaternion":
            return cls(ring, np.zeros((n, n, 4)))
        dtype = complex if ring == "complex" else float
        return cls(ring, np.zeros((n, n), dtype=dtype))


def _ring_array(ring: str, data) -> np.ndarray:
    """Matrix data coerced to the ring's dtype, checked to be square."""
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    if ring == "quaternion":
        data = quat.qarray(data)
        if data.ndim != 3 or data.shape[0] != data.shape[1]:
            raise ValueError("quaternion matrix data must have shape (n, n, 4)")
        return data
    data = np.asarray(data, dtype=complex if ring == "complex" else float)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError("matrix data must be square")
    return data


def _conj_transpose(ring: str, data: np.ndarray) -> np.ndarray:
    if ring == "quaternion":
        return quat.qmat_conj_transpose(data)
    return np.conj(data.T)


def hermitian_part(ring: str, raw: np.ndarray) -> HermitianMatrix:
    """Build a HermitianMatrix from raw data by symmetrizing.

    (A + A*) / 2 is exactly Hermitian in IEEE arithmetic, so the result
    needs no defect check.
    """
    if ring == "real":
        raw = np.real(raw)
    raw = _ring_array(ring, raw)
    return HermitianMatrix._trusted(ring, (raw + _conj_transpose(ring, raw)) / 2.0)


def from_form(ring: str, z: np.ndarray) -> HermitianMatrix:
    """The matrix over the ring whose complex form is the Hermitian part of z."""
    return hermitian_part(ring, quat.from_complex(z) if ring == "quaternion" else z)


def trace(m: HermitianMatrix) -> float:
    """Ring trace: sum of the real parts of the diagonal entries."""
    if m.ring == "quaternion":
        return float(np.sum(m.data[np.arange(m.n), np.arange(m.n), 0]))
    return float(np.real(np.trace(m.data)))


def trace_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Tr(ab) for Hermitian a, b; equals the real component-wise dot product."""
    a._check_compatible(b)
    if a.ring == "quaternion":
        return float(np.sum(a.data * b.data))
    return float(np.real(np.sum(a.data * np.conj(b.data))))


def jordan_product(x: HermitianMatrix, y: HermitianMatrix) -> HermitianMatrix:
    """Symmetrized product x o y = (xy + yx) / 2; Hermitian and commutative."""
    xy = x.matmul(y)
    yx = y.matmul(x)
    return hermitian_part(x.ring, (xy + yx) / 2.0)


def jordan_associator_norm(x: HermitianMatrix, y: HermitianMatrix) -> float:
    """Frobenius norm of (x o y) o (x o x) - x o (y o (x o x))."""
    xx = jordan_product(x, x)
    lhs = jordan_product(jordan_product(x, y), xx)
    rhs = jordan_product(x, jordan_product(y, xx))
    return (lhs - rhs).frobenius_norm()


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def cluster_indices(values: np.ndarray, rtol: float = CLUSTER_RTOL) -> list:
    """Group sorted eigenvalues whose gaps are below rtol * spectral radius."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    thresh = rtol * max(1e-300, float(np.max(np.abs(values))))
    groups = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= thresh:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


@dataclass(frozen=True)
class EigenDecomposition:
    """Clustered eigenvalues with orthogonal idempotents summing to identity."""

    ring: str
    eigenvalues: tuple
    multiplicities: tuple
    idempotents: tuple

    def reconstruct(self) -> HermitianMatrix:
        n = self.idempotents[0].n
        acc = HermitianMatrix.zeros(self.ring, n)
        for t, e in zip(self.eigenvalues, self.idempotents):
            acc = acc + e.scale(t)
        return acc


def eigen_hermitian(m: HermitianMatrix, cluster_rtol: float = CLUSTER_RTOL) -> EigenDecomposition:
    """Eigendecomposition into distinct eigenvalues and orthogonal idempotents.

    Quaternionic matrices are diagonalized through the complex embedding;
    every eigenvalue then shows up with even multiplicity and the
    quaternionic multiplicity is half the complex one.
    """
    w, v = np.linalg.eigh(m.to_complex())
    groups = cluster_indices(w, cluster_rtol)
    eigenvalues = []
    multiplicities = []
    idempotents = []
    for g in groups:
        cols = v[:, g]
        proj = cols @ np.conj(cols.T)
        if len(g) % m.mult:
            raise RuntimeError("embedded quaternionic eigenvalues must pair up")
        eigenvalues.append(float(np.mean(w[g])))
        multiplicities.append(len(g) // m.mult)
        idempotents.append(from_form(m.ring, proj))
    return EigenDecomposition(m.ring, tuple(eigenvalues), tuple(multiplicities),
                              tuple(idempotents))


def rank_one_components(m: HermitianMatrix, cluster_rtol: float = CLUSTER_RTOL) -> list:
    """Split a Hermitian matrix into (eigenvalue, rank-one idempotent) pairs."""
    return [(t, from_form(m.ring, p)) for t, p in rank_one_forms(m.to_complex(), m.mult, cluster_rtol)]


def rank_one_forms(z: np.ndarray, mult: int = 1, cluster_rtol: float = CLUSTER_RTOL) -> list:
    """Split a Hermitian complex form into (eigenvalue, rank-one idempotent form) pairs.

    mult is 2 for the form of a quaternionic matrix and 1 otherwise.  Within
    each eigenvalue cluster the idempotents are pairwise orthogonal.  A
    quaternionic rank-one idempotent has a rank-two form, built from an
    eigenvector and its quaternionic structure partner.
    """
    w, v = np.linalg.eigh(z)
    if mult == 1:
        return [(float(w[i]), v[:, i : i + 1] @ np.conj(v[:, i : i + 1].T)) for i in range(w.size)]
    out = []
    for g in cluster_indices(w, cluster_rtol):
        cols = v[:, g]
        proj = cols @ np.conj(cols.T)
        t = float(np.mean(w[g]))
        if len(g) % 2:
            raise RuntimeError("embedded quaternionic eigenvalues must pair up")
        for _ in range(len(g) // 2):
            j = int(np.argmax(np.real(np.diag(proj))))
            u = proj[:, j] / np.linalg.norm(proj[:, j])
            ut = quat.structure_partner(u)
            rank2 = np.outer(u, np.conj(u)) + np.outer(ut, np.conj(ut))
            out.append((t, rank2))
            proj = proj - rank2
    return out


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

    def check_domain(self, values) -> None:
        values = np.asarray(values, dtype=float)
        lo, hi = self.domain
        if values.size and (float(np.min(values)) <= lo or float(np.max(values)) >= hi):
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


def apply_function(fn: ScalarFunction, m: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus: sum of f(eigenvalue) times eigenprojection."""
    w, v = np.linalg.eigh(m.to_complex())
    fn.check_domain(w)
    return from_form(m.ring, (v * fn.f(w)) @ np.conj(v.T))


def _divided_difference_matrix(fvals: np.ndarray, dfvals: np.ndarray,
                               reps: np.ndarray) -> np.ndarray:
    """Matrix of (f(t_i) - f(t_j)) / (t_i - t_j) with f' on equal clusters."""
    diff = reps[:, None] - reps[None, :]
    same = diff == 0.0
    safe = np.where(same, 1.0, diff)
    dd = (fvals[:, None] - fvals[None, :]) / safe
    return np.where(same, (dfvals[:, None] + dfvals[None, :]) / 2.0, dd)


def _cluster_representatives(w: np.ndarray, cluster_rtol: float) -> np.ndarray:
    reps = np.empty_like(w)
    for g in cluster_indices(w, cluster_rtol):
        reps[g] = float(np.mean(w[g]))
    return reps


def directional_derivative(fn: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix,
                           cluster_rtol: float = CLUSTER_RTOL) -> HermitianMatrix:
    """Derivative of f(a + t b) at t = 0 via divided differences.

    Eigenvalues closer than cluster_rtol times the spectral radius are
    treated as equal, switching the coefficient to f'.
    """
    a._check_compatible(b)
    w, v = np.linalg.eigh(a.to_complex())
    fn.check_domain(w)
    reps = _cluster_representatives(w, cluster_rtol)
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


def second_trace_derivative(fn: ScalarFunction, a: HermitianMatrix, b: HermitianMatrix,
                            cluster_rtol: float = CLUSTER_RTOL) -> float:
    """d^2/dt^2 Tr f(a + t b) at t = 0 via divided differences of f'."""
    a._check_compatible(b)
    if fn.d2f is None:
        raise ValueError(f"{fn.name} carries no second derivative oracle")
    w, v = np.linalg.eigh(a.to_complex())
    fn.check_domain(w)
    reps = _cluster_representatives(w, cluster_rtol)
    coeff = _divided_difference_matrix(fn.df(reps), fn.d2f(reps), reps)
    mid = np.conj(v.T) @ b.to_complex() @ v
    return float(np.sum(coeff * np.abs(mid) ** 2)) / a.mult


def trace_function(fn: ScalarFunction, m: HermitianMatrix) -> float:
    """Tr f(m) from the ring eigenvalues."""
    w = eigenvalues_of(m)
    fn.check_domain(w)
    return float(np.sum(fn.f(w)))


def von_neumann_entropy(m: HermitianMatrix, zero_tol: float = 1e-12) -> float:
    """Entropy -sum t ln t of the ring eigenvalues, with 0 ln 0 = 0."""
    w = eigenvalues_of(m)
    if float(np.min(w)) < -1e-9 * max(1.0, float(np.max(np.abs(w)))):
        raise DomainError("matrix has a negative eigenvalue")
    return float(weights_entropy(w[w > zero_tol]))


# ---------------------------------------------------------------------------
# Spin factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinElement:
    """Element (t, v) of the spin factor R + R^d with eigenvalues t +- |v|."""

    t: float
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", float(self.t))

    @property
    def d(self) -> int:
        return self.v.shape[0]

    def eigenvalues(self) -> tuple:
        r = float(np.linalg.norm(self.v))
        return (self.t - r, self.t + r)

    def trace_value(self) -> float:
        return 2.0 * self.t

    def norm(self) -> float:
        return math.sqrt(self.t ** 2 + float(np.dot(self.v, self.v)))


def spin_identity(d: int) -> SpinElement:
    return SpinElement(1.0, np.zeros(d))


def spin_product(a: SpinElement, b: SpinElement) -> SpinElement:
    """Spin-factor composition (s, u) o (t, v) = (s t + u.v, s v + t u)."""
    if a.d != b.d:
        raise ValueError("spin elements of different dimension")
    return SpinElement(a.t * b.t + float(np.dot(a.v, b.v)), a.t * b.v + b.t * a.v)


def spin_trace_function(fn: ScalarFunction, a: SpinElement) -> float:
    lo, hi = a.eigenvalues()
    fn.check_domain(np.array([lo, hi]))
    return float(fn.f(np.array([lo, hi])).sum())


def spin_second_trace_derivative(fn: ScalarFunction, a: SpinElement, b: SpinElement,
                                 degenerate_tol: float = 1e-14) -> float:
    """d^2/dt^2 [f(lam_-(a + t b)) + f(lam_+(a + t b))] at t = 0.

    Closed form from differentiating the eigenvalues t +- |v|; the
    degenerate branch (|v| = 0) uses f'' on the single eigenvalue,
    mirroring the equal-eigenvalue rule of the matrix calculus.
    """
    if a.d != b.d:
        raise ValueError("spin elements of different dimension")
    if fn.d2f is None:
        raise ValueError(f"{fn.name} carries no second derivative oracle")
    r = float(np.linalg.norm(a.v))
    s, u = b.t, b.v
    if r <= degenerate_tol:
        fn.check_domain(np.array([a.t]))
        un = float(np.linalg.norm(u))
        return float(fn.d2f(a.t) * ((s + un) ** 2 + (s - un) ** 2))
    lo, hi = a.eigenvalues()
    fn.check_domain(np.array([lo, hi]))
    vhat = a.v / r
    rdot = float(np.dot(vhat, u))
    rddot = (float(np.dot(u, u)) - rdot ** 2) / r
    return float(
        fn.d2f(hi) * (s + rdot) ** 2
        + fn.d2f(lo) * (s - rdot) ** 2
        + rddot * (fn.df(hi) - fn.df(lo))
    )


def spin_entropy(a: SpinElement, zero_tol: float = 1e-12) -> float:
    w = np.array(a.eigenvalues())  # (lo, hi)
    if w[0] < -1e-9:
        raise DomainError("spin element is not positive")
    return float(weights_entropy(w[w > zero_tol]))


# ---------------------------------------------------------------------------
# Random sampling helpers (deterministic per seed)
# ---------------------------------------------------------------------------

def random_hermitian(ring: str, n: int, rng: np.random.Generator) -> HermitianMatrix:
    if ring == "real":
        g = rng.standard_normal((n, n))
        return hermitian_part("real", g)
    if ring == "complex":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return hermitian_part("complex", g)
    g = rng.standard_normal((n, n, 4))
    return hermitian_part("quaternion", g)


def random_positive_definite(ring: str, n: int, rng: np.random.Generator,
                             floor: float = 0.2) -> HermitianMatrix:
    """Random positive matrix with eigenvalues at least `floor`."""
    g = random_hermitian(ring, n, rng)
    m = hermitian_part(ring, g.matmul(g))  # g g* with g = g*
    m = m.scale(1.0 / max(1.0, trace(m)))
    return m + HermitianMatrix.identity(ring, n).scale(floor)


def random_density_matrix(ring: str, n: int, rng: np.random.Generator,
                          floor: float = 0.0) -> HermitianMatrix:
    """Random density matrix (positive, unit ring trace)."""
    g = random_hermitian(ring, n, rng)
    m = hermitian_part(ring, g.matmul(g))  # g g* with g = g*
    if floor > 0.0:
        m = m + HermitianMatrix.identity(ring, n).scale(floor)
    return m.scale(1.0 / trace(m))


def random_pure_density(ring: str, n: int, rng: np.random.Generator) -> HermitianMatrix:
    """Rank-one density matrix from a random unit vector."""
    if ring == "real":
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return hermitian_part("real", np.outer(v, v))
    if ring == "complex":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return hermitian_part("complex", np.outer(v, np.conj(v)))
    v = rng.standard_normal((n, 1, 4))
    v /= math.sqrt(float(np.sum(v ** 2)))
    return hermitian_part("quaternion", quat.qmat_mul(v, quat.qmat_conj_transpose(v)))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _parse_algebra(algebra) -> tuple:
    """Accept ('complex', 3), 'complex3', ('spin', 5) or 'spin5'."""
    if isinstance(algebra, tuple):
        kind, n = algebra
        kind, n = str(kind), int(n)
    else:
        text = str(algebra)
        kind = next((k for k in ("real", "complex", "quaternion", "spin") if text.startswith(k)), None)
        if kind is None:
            raise ValueError(f"cannot parse algebra descriptor {algebra!r}")
        n = int(text[len(kind):])
    require_count("algebra size", n)
    return kind, n


def check_concavity(algebra, trials: int = 200, seed: int = 0,
                    fd_step: float = 1e-4, strictness: float = 1e-10) -> dict:
    """Verify strict concavity of entropy on the positive cone of an algebra.

    For random positive a and nonzero Hermitian b (unit Frobenius norm) the
    second trace derivative of -z ln z along b must be below
    -strictness * ||b||^2, and must match a central second difference of
    Tr f(a + t b).  Midpoint concavity of entropy is checked along random
    state segments.  A failing report's witness is the first failing trial:
    its index, the first condition it breaks and its values.
    """
    kind, n = _parse_algebra(algebra)
    require_count("trials", trials)
    rng = np.random.default_rng(seed)
    max_second = -math.inf
    max_rel_err = 0.0
    min_slack = math.inf
    witness = None
    for trial in range(trials):
        if kind == "spin":
            v = rng.standard_normal(n) * 0.3
            nv = float(np.linalg.norm(v))
            if nv > 0.8:  # keep the smallest eigenvalue clear of zero
                v *= 0.8 / nv
            a = SpinElement(1.0, v)
            b_raw = SpinElement(rng.standard_normal(), rng.standard_normal(n))
            b = SpinElement(b_raw.t / b_raw.norm(), b_raw.v / b_raw.norm())
            d2 = spin_second_trace_derivative(NEG_XLOGX, a, b)
            g = lambda t: spin_trace_function(NEG_XLOGX, SpinElement(a.t + t * b.t, a.v + t * b.v))
            # midpoint concavity on states (t = 1/2, |v| <= 1/2)
            s1 = SpinElement(0.5, _random_in_ball(rng, n) / 2.0)
            s2 = SpinElement(0.5, _random_in_ball(rng, n) / 2.0)
            mid = SpinElement(0.5, (s1.v + s2.v) / 2.0)
            slack = spin_entropy(mid) - (spin_entropy(s1) + spin_entropy(s2)) / 2.0
        else:
            a = random_positive_definite(kind, n, rng)
            b = random_hermitian(kind, n, rng)
            b = b.scale(1.0 / b.frobenius_norm())
            d2 = second_trace_derivative(NEG_XLOGX, a, b)
            g = lambda t: trace_function(NEG_XLOGX, a + b.scale(t))
            s1 = random_density_matrix(kind, n, rng, floor=0.01)
            s2 = random_density_matrix(kind, n, rng, floor=0.01)
            mid = (s1 + s2).scale(0.5)
            slack = von_neumann_entropy(mid) - (von_neumann_entropy(s1) + von_neumann_entropy(s2)) / 2.0
        fd = (g(fd_step) - 2.0 * g(0.0) + g(-fd_step)) / fd_step ** 2
        rel = abs(fd - d2) / max(1e-12, abs(d2))
        max_second = max(max_second, d2)
        max_rel_err = max(max_rel_err, rel)
        min_slack = min(min_slack, slack)
        failed = [name for name, holds in (("second_derivative", d2 < -strictness),
                                           ("finite_difference", rel <= 1e-5),
                                           ("midpoint", slack >= -1e-10)) if not holds]
        if failed and witness is None:
            witness = {"trial": trial, "condition": failed[0], "d2": float(d2),
                       "fd": float(fd), "rel_err": float(rel), "slack": float(slack)}
    return {
        "check": "concavity",
        "algebra": f"{kind}{n}",
        "pass": witness is None,
        "max_gap": float(max(0.0, max_second + strictness)),
        "max_second_derivative": float(max_second),
        "fd_max_rel_err": float(max_rel_err),
        "min_midpoint_slack": float(min_slack),
        "witness": witness,
        "trials": int(trials),
        "seed": int(seed),
    }


def _random_in_ball(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros(d)
    return v / norm * rng.uniform() ** (1.0 / d)


def euclidean_check(algebra, trials: int = 200, seed: int = 0) -> dict:
    """Positive definiteness of the trace form: Tr(x o x) > 0 for x != 0."""
    kind, n = _parse_algebra(algebra)
    require_count("trials", trials)
    rng = np.random.default_rng(seed)
    min_value = math.inf
    for _ in range(trials):
        if kind == "spin":
            x = SpinElement(rng.standard_normal(), rng.standard_normal(n))
            sq = spin_product(x, x)
            value = sq.trace_value() / x.norm() ** 2
        else:
            x = random_hermitian(kind, n, rng)
            value = trace_product(x, x) / x.frobenius_norm() ** 2
        min_value = min(min_value, value)
    ok = min_value > 0.0
    return {
        "check": "euclidean",
        "algebra": f"{kind}{n}",
        "pass": bool(ok),
        "max_gap": float(max(0.0, -min_value)),
        "min_normalized_trace_form": float(min_value),
        "witness": None,
        "trials": int(trials),
        "seed": int(seed),
    }
