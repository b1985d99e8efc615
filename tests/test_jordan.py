"""Tests for Jordan-algebra arithmetic, eigendecomposition and derivatives.

Closed forms, numpy.linalg eigvalsh on the complex embedding and central
finite differences serve as the independent oracles: the eigendecomposition
into idempotents, divided-difference derivatives and entropy formulas are
checked against them.  The scalar forms below (the Hamilton product, ring
traces and the spin factor) are the references the stacked kernels are
checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_cone import jordan, quaternion as quat
from spectral_cone.errors import DomainError
from spectral_cone.jordan import (
    CUBE,
    EXP,
    NEG_XLOGX,
    SQUARE,
    HermitianMatrix,
    check_concavity,
    directional_derivative,
    eigen_hermitian,
    jordan_product,
    rank_one_components,
    second_trace_derivative,
    trace_derivative,
    trace_function,
    von_neumann_entropy,
)
from spectral_cone.tolerances import SPIN_DEGENERATE_TOL

RINGS = ("real", "complex", "quaternion")


def embedded(m: HermitianMatrix) -> np.ndarray:
    return m.to_complex()


# ---------------------------------------------------------------------------
# scalar reference forms
# ---------------------------------------------------------------------------

def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions (a, b, c, d) = a + bi + cj + dk."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                     a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                     a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2])


def trace(m: HermitianMatrix) -> float:
    """Ring trace: the sum of the real parts of the diagonal entries."""
    diagonal = m.data[np.arange(m.n), np.arange(m.n)]
    return float(np.sum(diagonal[:, 0] if m.ring == "quaternion" else diagonal.real))


def trace_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Tr(ab) for Hermitian a, b: the real component-wise dot product of their entries."""
    if a.ring == "quaternion":
        return float(np.sum(a.data * b.data))
    return float(np.real(np.sum(a.data * np.conj(b.data))))


class SpinElement:
    """Element (t, v) of the spin factor R + R^d, with eigenvalues t -+ |v|."""

    def __init__(self, t, v):
        self.t, self.v = float(t), np.asarray(v, dtype=float)

    def eigenvalues(self) -> tuple:
        r = float(np.linalg.norm(self.v))
        return self.t - r, self.t + r

    def norm(self) -> float:
        return math.sqrt(self.t ** 2 + float(np.dot(self.v, self.v)))


def spin_product(a: SpinElement, b: SpinElement) -> SpinElement:
    """Spin-factor composition (s, u) o (t, v) = (s t + u.v, s v + t u)."""
    return SpinElement(a.t * b.t + float(np.dot(a.v, b.v)), a.t * b.v + b.t * a.v)


def spin_trace_function(fn, a: SpinElement) -> float:
    w = np.array(a.eigenvalues())
    fn.check_domain(w)
    return float(fn.f(w).sum())


def spin_second_trace_derivative(fn, a: SpinElement, b: SpinElement) -> float:
    """d^2/dh^2 [f(t - |v + h u|) + f(t + |v + h u|)] at h = 0, for a = (t, v) and b = (s, u).

    |v + h u| has first derivative v.u / |v| and second (|u|^2 - (v.u / |v|)^2) / |v|;
    when |v| <= SPIN_DEGENERATE_TOL both eigenvalues are t and move at the rates s -+ |u|.
    """
    r = float(np.linalg.norm(a.v))
    if r <= SPIN_DEGENERATE_TOL:
        fn.check_domain(np.array([a.t]))
        un = float(np.linalg.norm(b.v))
        return float(fn.d2f(a.t) * ((b.t + un) ** 2 + (b.t - un) ** 2))
    lo, hi = a.eigenvalues()
    fn.check_domain(np.array([lo, hi]))
    rdot = float(np.dot(a.v / r, b.v))
    rddot = (float(np.dot(b.v, b.v)) - rdot ** 2) / r
    return float(fn.d2f(hi) * (b.t + rdot) ** 2 + fn.d2f(lo) * (b.t - rdot) ** 2
                 + rddot * (fn.df(hi) - fn.df(lo)))


def spin_entropy(a: SpinElement) -> float:
    """-sum t ln t over the eigenvalues t -+ |v|, under the rule of spectral_entropies."""
    return float(jordan.spectral_entropies(np.array(a.eigenvalues())))


# ---------------------------------------------------------------------------
# quaternion arithmetic
# ---------------------------------------------------------------------------

def test_quaternion_units():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(qmul(i, j), k, atol=0)
    np.testing.assert_allclose(qmul(j, i), -k, atol=0)
    np.testing.assert_allclose(qmul(i, i), -quat.ONE, atol=0)
    np.testing.assert_allclose(qmul(j, k), i, atol=0)
    np.testing.assert_allclose(qmul(k, i), j, atol=0)


def test_quaternion_associative_and_norm_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q, r = rng.standard_normal((3, 4))
        left = qmul(qmul(p, q), r)
        right = qmul(p, qmul(q, r))
        np.testing.assert_allclose(left, right, atol=1e-12)
        assert abs(np.linalg.norm(qmul(p, q)) - np.linalg.norm(p) * np.linalg.norm(q)) <= 1e-12


def test_qmat_mul_is_the_matrix_product_of_hamilton_products():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 2, 4))
    want = [[sum(qmul(a[i, j], b[j, k]) for j in range(3)) for k in range(2)] for i in range(2)]
    np.testing.assert_allclose(quat.qmat_mul(a, b), want, rtol=0, atol=1e-12)
    stacked = quat.qmat_mul(np.stack([a, 2.0 * a]), b)
    np.testing.assert_allclose(stacked, [want, 2.0 * np.array(want)], rtol=0, atol=1e-12)


def test_embedding_is_ring_homomorphism():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3, 4))
    b = rng.standard_normal((3, 3, 4))
    np.testing.assert_allclose(
        quat.to_complex(quat.qmat_mul(a, b)),
        quat.to_complex(a) @ quat.to_complex(b),
        atol=1e-12,
    )
    np.testing.assert_allclose(quat.from_complex(quat.to_complex(a)), a, atol=0)
    # the inverse keeps every bit, signed zeros included
    signed = np.where(rng.uniform(size=a.shape) < 0.5, np.copysign(0.0, a), a)
    assert quat.from_complex(quat.to_complex(signed)).tobytes() == signed.tobytes()
    np.testing.assert_allclose(
        quat.to_complex(quat.qconj(np.swapaxes(a, 0, 1))),
        quat.to_complex(a).conj().T,
        atol=0,
    )


def test_trace_cyclic_over_quaternions():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = jordan.random_hermitian("quaternion", 3, rng)
        n = jordan.random_hermitian("quaternion", 3, rng)
        mn = quat.qmat_mul(m.data, n.data)
        nm = quat.qmat_mul(n.data, m.data)
        tr_mn = float(np.sum(mn[np.arange(3), np.arange(3), 0]))
        tr_nm = float(np.sum(nm[np.arange(3), np.arange(3), 0]))
        assert abs(tr_mn - tr_nm) <= 1e-10
        assert abs(tr_mn - trace_product(m, n)) <= 1e-10


def test_trace_values():
    assert trace(HermitianMatrix.identity("quaternion", 4)) == pytest.approx(4.0)
    assert trace(HermitianMatrix("real", np.diag([0.75, 0.25]))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Hermitian matrices and the Jordan product
# ---------------------------------------------------------------------------

def test_hermitian_validation():
    with pytest.raises(ValueError):
        HermitianMatrix("complex", np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        HermitianMatrix("bogus", np.eye(2))


@pytest.mark.parametrize("ring", RINGS)
def test_public_constructor_rejects_non_hermitian(ring):
    rng = np.random.default_rng(11)
    shape = (3, 3, 4) if ring == "quaternion" else (3, 3)
    raw = rng.standard_normal(shape)
    if ring == "complex":
        raw = raw + 1j * rng.standard_normal(shape)
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(ring, raw)
    with pytest.raises(ValueError):
        jordan.hermitian_part(ring, raw[:2])


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_refused(ring, bad):
    # a NaN defect compares false against the tolerance, and inf - inf warns; both must refuse with one line
    data = jordan._identity_data(ring, 2)
    data[(1, 0, 0) if ring == "quaternion" else (1, 0)] = bad
    for build in (HermitianMatrix, jordan.hermitian_part):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            build(ring, data)


def _defect(m: HermitianMatrix) -> float:
    return float(np.max(np.abs(m.data - jordan._conj_transpose(m.ring, m.data))))


@pytest.mark.parametrize("ring", RINGS)
def test_trusted_results_are_exactly_hermitian_and_frozen(ring):
    # the trusted path skips the defect check, so its results must have none
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = jordan.random_hermitian(ring, 4, rng)
        y = jordan.random_hermitian(ring, 4, rng).scale(rng.uniform(1e-8, 1e8))
        for m in (x, y, x + y, x - y, y - x, x.scale(rng.standard_normal() * 1e-3),
                  jordan.jordan_product(x, y)):
            assert m.ring == ring
            assert _defect(m) == 0.0
            assert not m.data.flags.writeable


def test_jordan_product_unit_and_square():
    rng = np.random.default_rng(3)
    for ring in RINGS:
        x = jordan.random_hermitian(ring, 3, rng)
        eye = HermitianMatrix.identity(ring, 3)
        assert (jordan_product(x, eye) - x).frobenius_norm() <= 1e-12
        sq = jordan_product(x, x)
        np.testing.assert_allclose(embedded(sq), embedded(x) @ embedded(x), atol=1e-12)


def test_jordan_identity_all_rings():
    rng = np.random.default_rng(4)
    for ring in RINGS:
        for _ in range(10):
            x = jordan.random_hermitian(ring, 3, rng)
            y = jordan.random_hermitian(ring, 3, rng)
            xx = jordan_product(x, x)
            associator = jordan_product(jordan_product(x, y), xx) - jordan_product(x, jordan_product(y, xx))
            assert associator.frobenius_norm() <= 1e-10


def test_spin_product_rules():
    rng = np.random.default_rng(5)
    a = SpinElement(rng.standard_normal(), rng.standard_normal(4))
    e = SpinElement(1.0, np.zeros(4))
    out = spin_product(a, e)
    assert out.t == pytest.approx(a.t) and np.allclose(out.v, a.v)
    u = rng.standard_normal(4)
    sq = spin_product(SpinElement(0.0, u), SpinElement(0.0, u))
    assert sq.t == pytest.approx(float(np.dot(u, u))) and np.allclose(sq.v, 0.0)
    # Jordan identity
    for _ in range(20):
        x = SpinElement(rng.standard_normal(), rng.standard_normal(4))
        y = SpinElement(rng.standard_normal(), rng.standard_normal(4))
        xx = spin_product(x, x)
        lhs = spin_product(spin_product(x, y), xx)
        rhs = spin_product(x, spin_product(y, xx))
        assert abs(lhs.t - rhs.t) <= 1e-12
        np.testing.assert_allclose(lhs.v, rhs.v, atol=1e-12)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", RINGS)
def test_eigen_one_by_one(ring):
    m = HermitianMatrix.identity(ring, 1).scale(0.7)
    dec = eigen_hermitian(m)
    assert dec.eigenvalues == pytest.approx((0.7,), abs=1e-15)
    assert dec.multiplicities == (1,)
    assert (dec.idempotents[0] - HermitianMatrix.identity(ring, 1)).frobenius_norm() <= 1e-15
    np.testing.assert_allclose(jordan.eigenvalues_of(m), [0.7], atol=1e-15)


@pytest.mark.parametrize("ring", RINGS)
def test_eigen_zero_matrix(ring):
    m = HermitianMatrix.zeros(ring, 3)
    dec = eigen_hermitian(m)
    assert dec.eigenvalues == (0.0,)
    assert dec.multiplicities == (3,)
    assert (dec.idempotents[0] - HermitianMatrix.identity(ring, 3)).frobenius_norm() <= 1e-12
    np.testing.assert_array_equal(jordan.eigenvalues_of(m), np.zeros(3))


def test_eigen_diagonal_matrix():
    dec = eigen_hermitian(HermitianMatrix("real", np.diag([0.25, 0.75])))
    assert dec.eigenvalues == pytest.approx((0.25, 0.75))
    np.testing.assert_allclose(dec.idempotents[0].data, np.diag([1.0, 0.0]), atol=1e-12)


def test_eigen_complex_projector_like():
    m = HermitianMatrix("complex", np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    dec = eigen_hermitian(m)
    assert sorted(dec.eigenvalues) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_eigen_quaternion_example():
    # [[1, j], [-j, 1]] has eigenvalues 2 and 0, found via the embedding
    # with multiplicity two each and deduplicated on pull-back
    data = np.zeros((2, 2, 4))
    data[0, 0, 0] = data[1, 1, 0] = 1.0
    data[0, 1, 2] = 1.0
    data[1, 0, 2] = -1.0
    dec = eigen_hermitian(HermitianMatrix("quaternion", data))
    assert sorted(dec.eigenvalues) == pytest.approx([0.0, 2.0], abs=1e-12)
    assert dec.multiplicities == (1, 1)


@pytest.mark.parametrize("ring", RINGS)
def test_eigen_invariants(ring):
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = jordan.random_hermitian(ring, 3, rng)
        dec = eigen_hermitian(m)
        assert (dec.reconstruct() - m).frobenius_norm() <= 1e-9
        total = HermitianMatrix.zeros(ring, 3)
        for e in dec.idempotents:
            sq = jordan.hermitian_part(ring, e.matmul(e))
            assert (sq - e).frobenius_norm() <= 1e-9
            total = total + e
        assert (total - HermitianMatrix.identity(ring, 3)).frobenius_norm() <= 1e-9
        for i in range(len(dec.idempotents)):
            for j in range(i + 1, len(dec.idempotents)):
                prod = dec.idempotents[i].matmul(dec.idempotents[j])
                assert float(np.max(np.abs(prod))) <= 1e-9


def test_quaternion_eigenvalues_match_embedding_with_even_multiplicity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = jordan.random_hermitian("quaternion", 3, rng)
        ours = np.sort(np.repeat(jordan.eigenvalues_of(m), 2))
        oracle = np.sort(np.linalg.eigvalsh(m.to_complex()))
        np.testing.assert_allclose(ours, oracle, atol=1e-9 * max(1.0, np.max(np.abs(oracle))))


def test_rank_one_components_degenerate_spectrum():
    rng = np.random.default_rng(9)
    # deliberately repeated eigenvalues over each ring
    for ring in RINGS:
        base = jordan.random_hermitian(ring, 4, rng)
        dec = eigen_hermitian(base)
        rebuilt = HermitianMatrix.zeros(ring, 4)
        values = [0.5, 0.5, 1.5, 1.5]
        k = 0
        for e, mult in zip(dec.idempotents, dec.multiplicities):
            rebuilt = rebuilt + e.scale(values[min(k, 3)])
            k += mult
        comps = rank_one_components(rebuilt)
        acc = HermitianMatrix.zeros(ring, 4)
        for t, e in comps:
            assert abs(trace(e) - 1.0) <= 1e-9
            acc = acc + e.scale(t)
        assert (acc - rebuilt).frobenius_norm() <= 1e-9


# ---------------------------------------------------------------------------
# functional calculus and derivatives
# ---------------------------------------------------------------------------

def test_trace_function_entropy_diagonal():
    m = HermitianMatrix("real", np.diag([0.5, 0.5]))
    assert trace_function(NEG_XLOGX, m) == pytest.approx(math.log(2))


def test_trace_function_domain_violation():
    m = HermitianMatrix("real", np.diag([0.5, -0.5]))
    with pytest.raises(DomainError):
        trace_function(NEG_XLOGX, m)


def test_directional_derivative_zero_direction():
    rng = np.random.default_rng(11)
    a = jordan.random_positive_definite("complex", 3, rng)
    b = HermitianMatrix.zeros("complex", 3)
    assert directional_derivative(EXP, a, b).frobenius_norm() <= 1e-12


def test_directional_derivative_square_is_anticommutator():
    rng = np.random.default_rng(12)
    for ring in RINGS:
        a = jordan.random_hermitian(ring, 3, rng)
        b = jordan.random_hermitian(ring, 3, rng)
        out = directional_derivative(SQUARE, a, b)
        expect = jordan.hermitian_part(ring, a.matmul(b) + b.matmul(a))
        assert (out - expect).frobenius_norm() <= 1e-9


def _repeated_eigenvalue_matrix(ring, n, rng):
    base = jordan.random_hermitian(ring, n, rng)
    dec = eigen_hermitian(base)
    values = [0.5, 1.5, 0.5, 1.5, 0.5]  # forced repeats
    out = HermitianMatrix.zeros(ring, n)
    k = 0
    for e, mult in zip(dec.idempotents, dec.multiplicities):
        out = out + e.scale(values[k % len(values)])
        k += 1
    return out


@pytest.mark.parametrize("fn", [SQUARE, CUBE, EXP, NEG_XLOGX], ids=lambda f: f.name)
@pytest.mark.parametrize("ring", RINGS)
def test_directional_derivative_matches_finite_differences(fn, ring):
    rng = np.random.default_rng(13)
    h = 1e-5
    for repeated in (False, True):
        if repeated:
            a = _repeated_eigenvalue_matrix(ring, 3, rng)
        else:
            a = jordan.random_positive_definite(ring, 3, rng, floor=0.3)
        b = jordan.random_hermitian(ring, 3, rng)
        b = b.scale(1.0 / b.frobenius_norm())
        ours = embedded(directional_derivative(fn, a, b))
        # oracle: central difference of the matrix function via numpy.eigh
        za, zb = a.to_complex(), b.to_complex()

        def f_np(z):
            w, v = np.linalg.eigh(z)
            return (v * fn.f(w)) @ v.conj().T

        fd = (f_np(za + h * zb) - f_np(za - h * zb)) / (2 * h)
        rel = np.max(np.abs(ours - fd)) / max(1e-12, np.max(np.abs(ours)))
        assert rel <= 1e-6, (fn.name, ring, repeated, rel)


def test_directional_derivative_linear_in_direction():
    rng = np.random.default_rng(14)
    a = jordan.random_positive_definite("complex", 3, rng)
    b1 = jordan.random_hermitian("complex", 3, rng)
    b2 = jordan.random_hermitian("complex", 3, rng)
    combo = directional_derivative(EXP, a, b1 + b2.scale(2.5))
    split = directional_derivative(EXP, a, b1) + directional_derivative(EXP, a, b2).scale(2.5)
    assert (combo - split).frobenius_norm() <= 1e-10


def test_trace_derivative_matches_trace_of_directional():
    rng = np.random.default_rng(15)
    for ring in RINGS:
        a = jordan.random_positive_definite(ring, 3, rng, floor=0.3)
        b = jordan.random_hermitian(ring, 3, rng)
        td = trace_derivative(NEG_XLOGX, a, b)
        assert abs(td - trace(directional_derivative(NEG_XLOGX, a, b))) <= 1e-9


def test_trace_derivative_examples():
    rng = np.random.default_rng(16)
    a = jordan.random_hermitian("complex", 3, rng)
    b = jordan.random_hermitian("complex", 3, rng)
    assert abs(trace_derivative(SQUARE, a, b) - 2.0 * trace_product(a, b)) <= 1e-9
    zero = HermitianMatrix.zeros("complex", 3)
    assert trace_derivative(EXP, a, zero) == pytest.approx(0.0)
    # symmetric cancellation
    aa = HermitianMatrix("real", np.diag([0.5, 0.5]))
    bb = HermitianMatrix("real", np.diag([1.0, -1.0]))
    assert abs(trace_derivative(NEG_XLOGX, aa, bb)) <= 1e-12


def test_second_trace_derivative_frozen_value():
    a = HermitianMatrix("real", np.diag([0.5, 0.5]))
    b = HermitianMatrix("real", np.diag([0.5, -0.5]))
    assert second_trace_derivative(NEG_XLOGX, a, b) == pytest.approx(-1.0, abs=1e-12)


def test_second_trace_derivative_zero_direction():
    rng = np.random.default_rng(17)
    a = jordan.random_positive_definite("real", 3, rng)
    assert second_trace_derivative(NEG_XLOGX, a, HermitianMatrix.zeros("real", 3)) == 0.0


def test_second_trace_derivative_trace_direction():
    # along b proportional to the identity the second derivative is -sum 1/t
    rng = np.random.default_rng(18)
    a = jordan.random_positive_definite("real", 3, rng)
    b = HermitianMatrix.identity("real", 3)
    w = jordan.eigenvalues_of(a)
    assert second_trace_derivative(NEG_XLOGX, a, b) == pytest.approx(float(-np.sum(1.0 / w)), rel=1e-9)


def test_second_trace_derivative_negative_and_matches_fd():
    rng = np.random.default_rng(19)
    h = 1e-4
    for ring in RINGS:
        for _ in range(10):
            a = jordan.random_positive_definite(ring, 3, rng)
            b = jordan.random_hermitian(ring, 3, rng)
            b = b.scale(1.0 / b.frobenius_norm())
            d2 = second_trace_derivative(NEG_XLOGX, a, b)
            assert d2 < 0.0
            za, zb = a.to_complex(), b.to_complex()

            def tr_f(z):
                w = np.linalg.eigvalsh(z)
                val = float(np.sum(-w * np.log(w)))
                return val / (2.0 if ring == "quaternion" else 1.0)

            fd = (tr_f(za + h * zb) - 2 * tr_f(za) + tr_f(za - h * zb)) / h ** 2
            assert abs(fd - d2) / abs(d2) <= 1e-5


def test_spin_second_trace_derivative_matches_fd():
    rng = np.random.default_rng(20)
    h = 1e-4
    for _ in range(40):
        v = rng.standard_normal(5) * 0.3
        if np.linalg.norm(v) > 0.8:
            v *= 0.8 / np.linalg.norm(v)
        a = SpinElement(1.0, v)
        b = SpinElement(rng.standard_normal(), rng.standard_normal(5))
        b = SpinElement(b.t / b.norm(), b.v / b.norm())
        d2 = spin_second_trace_derivative(NEG_XLOGX, a, b)
        assert d2 < 0.0

        def g(t):
            return spin_trace_function(NEG_XLOGX, SpinElement(a.t + t * b.t, a.v + t * b.v))

        fd = (g(h) - 2 * g(0.0) + g(-h)) / h ** 2
        assert abs(fd - d2) / abs(d2) <= 1e-5


def test_spin_entropy_is_binary_entropy_of_radius():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        s = SpinElement(0.5, v / 2.0)
        lo, hi = s.eigenvalues()
        r = float(np.linalg.norm(v))
        assert hi == pytest.approx((1 + r) / 2) and lo == pytest.approx((1 - r) / 2)
        p = (1 + r) / 2
        expect = 0.0 if r >= 1 else -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert spin_entropy(s) == pytest.approx(expect, abs=1e-12)


def test_spin_entropy_negative_eigenvalue_rule_is_relative():
    """A negative eigenvalue within 1e-9 of the spectral radius counts as 0, as in spectral_entropies."""
    a = SpinElement(1e3, [1e3 + 1e-7, 0.0])
    lo, hi = a.eigenvalues()
    assert -1e-6 < lo < -1e-9
    assert spin_entropy(a) == float(jordan.spectral_entropies(np.array([lo, hi]))) == -hi * math.log(hi)
    with pytest.raises(DomainError):
        spin_entropy(SpinElement(1.0, [1.0 + 1e-6, 0.0]))


# ---------------------------------------------------------------------------
# checkers and entropy consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", [("real", 3), ("complex", 2), ("quaternion", 2), ("spin", 3)])
def test_check_concavity_passes(algebra):
    report = check_concavity(algebra, trials=40, seed=0)
    assert report["pass"], report
    assert report["max_second_derivative"] < 0.0
    assert report["fd_max_rel_err"] <= 1e-5
    assert report["min_midpoint_slack"] >= -1e-10
    assert report["witness"] is None


@pytest.mark.parametrize("algebra", [("complex", 2), ("spin", 3)])
def test_check_concavity_witness_replays(algebra):
    report = check_concavity(algebra, trials=5, seed=3, strictness=1e3)
    assert not report["pass"]
    assert report["witness"]["trial"] == 0 and report["witness"]["condition"] == "second_derivative"
    # a strictness that only the largest second derivative breaks fails at that trial
    top = check_concavity(algebra, trials=30, seed=3)["max_second_derivative"]
    report = check_concavity(algebra, trials=30, seed=3, strictness=-top)
    witness = report["witness"]
    assert not report["pass"] and witness["condition"] == "second_derivative"
    assert witness["d2"] == top and witness["slack"] >= -1e-10
    assert abs(witness["fd"] - witness["d2"]) <= 1e-5 * abs(witness["d2"])
    replay = check_concavity(algebra, trials=witness["trial"] + 1, seed=3, strictness=-top)
    assert replay["witness"] == witness
    if witness["trial"] > 0:
        assert check_concavity(algebra, trials=witness["trial"], seed=3, strictness=-top)["pass"]


# ---------------------------------------------------------------------------
# the stacked concavity checker against the per-trial loop
# ---------------------------------------------------------------------------

def reference_random_in_ball(rng, d):
    v = rng.standard_normal(d)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros(d)
    return v / norm * rng.uniform() ** (1.0 / d)


def reference_check_concavity(algebra, trials=200, seed=0, fd_step=1e-4, strictness=1e-10):
    """Per-trial loop: seven single-matrix eigensolves (or spin closed forms) per trial."""
    kind, n = jordan._parse_algebra(algebra)
    rng = np.random.default_rng(seed)
    max_second = -math.inf
    max_rel_err = 0.0
    min_slack = math.inf
    witness = None
    for trial in range(trials):
        if kind == "spin":
            v = rng.standard_normal(n) * 0.3
            nv = float(np.linalg.norm(v))
            if nv > 0.8:
                v *= 0.8 / nv
            a = SpinElement(1.0, v)
            b_raw = SpinElement(rng.standard_normal(), rng.standard_normal(n))
            b = SpinElement(b_raw.t / b_raw.norm(), b_raw.v / b_raw.norm())
            d2 = spin_second_trace_derivative(NEG_XLOGX, a, b)
            g = lambda t: spin_trace_function(NEG_XLOGX, SpinElement(a.t + t * b.t, a.v + t * b.v))
            s1 = SpinElement(0.5, reference_random_in_ball(rng, n) / 2.0)
            s2 = SpinElement(0.5, reference_random_in_ball(rng, n) / 2.0)
            mid = SpinElement(0.5, (s1.v + s2.v) / 2.0)
            slack = spin_entropy(mid) - (spin_entropy(s1) + spin_entropy(s2)) / 2.0
        else:
            a = jordan.random_positive_definite(kind, n, rng)
            b = jordan.random_hermitian(kind, n, rng)
            b = b.scale(1.0 / b.frobenius_norm())
            d2 = second_trace_derivative(NEG_XLOGX, a, b)
            g = lambda t: trace_function(NEG_XLOGX, a + b.scale(t))
            s1 = jordan.random_density_matrix(kind, n, rng, floor=0.01)
            s2 = jordan.random_density_matrix(kind, n, rng, floor=0.01)
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
        "check": "concavity", "algebra": f"{kind}{n}", "pass": witness is None,
        "max_gap": float(max(0.0, max_second + strictness)),
        "max_second_derivative": float(max_second), "fd_max_rel_err": float(max_rel_err),
        "min_midpoint_slack": float(min_slack), "witness": witness,
        "trials": int(trials), "seed": int(seed),
    }


# fd_max_rel_err is |fd - d2| / |d2| with fd = (g(h) - 2 g(0) + g(-h)) / h^2 and h = 1e-4.
# Here |g| = |Tr f| <= 4 * 0.37 and |d2| >= 1 / 1.2, so a change of up to 4 ulps in each
# g moves fd by at most 16 * 2.2e-16 * 1.5 / 1e-8 = 5.3e-7 and the ratio by at most 6.4e-7:
# rounding noise that says nothing about the stacked evaluation.  Every other float is
# compared within 1e-12.
FD_REL_ERR_NOISE = 1e-6
CONCAVITY_ALGEBRAS = [(ring, n) for ring in RINGS for n in (1, 2, 3, 4)] + [("spin", d) for d in range(1, 7)]


def assert_concavity_reports_match(got, want):
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if key == "witness" and value is not None:
            assert sorted(got[key]) == sorted(value)
            assert (got[key]["trial"], got[key]["condition"]) == (value["trial"], value["condition"])
            for field in ("d2", "fd", "rel_err", "slack"):
                assert got[key][field] == pytest.approx(value[field], rel=1e-12, abs=1e-12), field
        elif key == "fd_max_rel_err":
            assert abs(got[key] - value) <= FD_REL_ERR_NOISE
        elif isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("algebra", CONCAVITY_ALGEBRAS, ids=lambda a: f"{a[0]}{a[1]}")
def test_stacked_concavity_matches_reference_loop(algebra):
    for seed in (0, 1, 5):
        assert_concavity_reports_match(check_concavity(algebra, trials=25, seed=seed),
                                       reference_check_concavity(algebra, trials=25, seed=seed))


@pytest.mark.parametrize("algebra", [("real", 3), ("complex", 2), ("quaternion", 3), ("spin", 1), ("spin", 4)],
                         ids=lambda a: f"{a[0]}{a[1]}")
def test_stacked_concavity_forced_failures_match_reference_and_replay(algebra):
    top = check_concavity(algebra, trials=30, seed=4)["max_second_derivative"]
    for kwargs in ({"strictness": 1e3}, {"strictness": -top}, {"fd_step": 0.05}):
        report = check_concavity(algebra, trials=30, seed=4, **kwargs)
        assert_concavity_reports_match(report, reference_check_concavity(algebra, trials=30, seed=4, **kwargs))
        witness = report["witness"]
        assert not report["pass"] and witness["condition"] == (
            "finite_difference" if "fd_step" in kwargs else "second_derivative")
        replay = check_concavity(algebra, trials=witness["trial"] + 1, seed=4, **kwargs)
        assert replay["witness"] == witness


class ZeroedNormals:
    """A generator whose normal stream has zeros at chosen positions; everything else passes through."""

    def __init__(self, seed, zeroed):
        self.rng, self.zeroed, self.drawn = np.random.Generator(np.random.PCG64(seed)), zeroed, 0

    def standard_normal(self, size=None):
        x = np.asarray(self.rng.standard_normal(size), dtype=float)
        index = self.drawn + np.arange(x.size).reshape(x.shape)
        self.drawn += x.size
        x = np.where(np.isin(index, self.zeroed), 0.0, x)
        return float(x) if size is None else x

    def uniform(self, *args):
        return self.rng.uniform(*args)


@pytest.mark.parametrize("d", [1, 3])
def test_stacked_spin_concavity_matches_loop_on_zero_draws(monkeypatch, d):
    # trial 0 draws a = (1, 0) (the |v| <= 1e-14 branch) and a zero first ball direction
    # (no radius drawn); both read positions of the one normal stream
    zeroed = [*range(d), *range(2 * d + 1, 3 * d + 1)]
    reports = []
    for check in (check_concavity, reference_check_concavity):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroedNormals(seed, zeroed))
        reports.append(check(("spin", d), trials=6, seed=2))
        monkeypatch.undo()
    assert reports[0] == reports[1]
    assert reports[0]["pass"]


def test_stacked_concavity_raises_where_the_loop_raises():
    # a step of 1 leaves the positive cone along b; both raise the same DomainError
    for algebra in (("complex", 3), ("spin", 2)):
        with pytest.raises(DomainError) as want:
            reference_check_concavity(algebra, trials=20, seed=1, fd_step=1.0)
        with pytest.raises(DomainError) as got:
            check_concavity(algebra, trials=20, seed=1, fd_step=1.0)
        assert str(got.value) == str(want.value)


def test_concavity_aggregates_skip_nan_but_the_trial_fails(monkeypatch):
    clean = check_concavity(("complex", 2), trials=4, seed=0)
    second_derivatives = jordan._second_trace_derivatives
    seen = []

    def nan_at_trial_2(*args):
        out = second_derivatives(*args)
        seen.append(out.copy())
        out[2] = math.nan
        return out

    monkeypatch.setattr(jordan, "_second_trace_derivatives", nan_at_trial_2)
    report = check_concavity(("complex", 2), trials=4, seed=0)
    assert not report["pass"]
    assert (report["witness"]["trial"], report["witness"]["condition"]) == (2, "second_derivative")
    assert math.isnan(report["witness"]["d2"]) and math.isnan(report["witness"]["rel_err"])
    # max and min skip the NaN trial, as Python's max and min do in the loop
    assert report["max_second_derivative"] == max(seen[0][[0, 1, 3]])
    assert 0.0 < report["fd_max_rel_err"] <= clean["fd_max_rel_err"]
    assert report["min_midpoint_slack"] == clean["min_midpoint_slack"]


def reference_density_matrix(ring, n, rng, floor=0.0):
    """The density draw built from HermitianMatrix arithmetic, one matrix at a time."""
    g = jordan.random_hermitian(ring, n, rng)
    m = jordan.hermitian_part(ring, g.matmul(g))
    if floor > 0.0:
        m = m + HermitianMatrix.identity(ring, n).scale(floor)
    return m.scale(1.0 / trace(m))


def reference_positive_definite(ring, n, rng, floor=0.2):
    g = jordan.random_hermitian(ring, n, rng)
    m = jordan.hermitian_part(ring, g.matmul(g))
    m = m.scale(1.0 / max(1.0, trace(m)))
    return m + HermitianMatrix.identity(ring, n).scale(floor)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(ring=st.sampled_from(RINGS), n=st.integers(1, 4), k=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), floor=st.sampled_from([0.0, 0.01, 0.05, 0.2]))
def test_property_density_kernel_stack_equals_rows_bit_for_bit(ring, n, k, seed, floor):
    stack = jordan.positive_matrices(ring, jordan.gaussian_draws(ring, n, np.random.default_rng(seed), (k,)), floor)
    rng = np.random.default_rng(seed)
    rows = np.array([jordan.random_density_matrix(ring, n, rng, floor).data for _ in range(k)])
    assert stack.tobytes() == rows.tobytes()
    rng = np.random.default_rng(seed)
    assert rows.tobytes() == np.array([reference_density_matrix(ring, n, rng, floor).data for _ in range(k)]).tobytes()
    positive = jordan.positive_matrices(ring, jordan.gaussian_draws(ring, n, np.random.default_rng(seed), (k,)),
                                        floor, unit_trace=False)
    rng = np.random.default_rng(seed)
    assert positive.tobytes() == np.array([reference_positive_definite(ring, n, rng, floor).data
                                           for _ in range(k)]).tobytes()


def test_von_neumann_entropy_matches_numpy():
    rng = np.random.default_rng(22)
    for ring in RINGS:
        for _ in range(10):
            m = jordan.random_density_matrix(ring, 3, rng)
            w = np.linalg.eigvalsh(m.to_complex())
            w = w[w > 1e-12]
            oracle = float(-np.sum(w * np.log(w)))
            if ring == "quaternion":
                oracle /= 2.0
            assert abs(von_neumann_entropy(m) - oracle) <= 1e-9


def test_parse_algebra_strings():
    assert jordan._parse_algebra("complex3") == ("complex", 3)
    assert jordan._parse_algebra(("spin", 5)) == ("spin", 5)
    for text in ("octonion3", "complex", "complex3.0", "complex3x", "3complex", "complex 3"):
        with pytest.raises(ValueError, match="e.g. complex3"):
            jordan._parse_algebra(text)
    with pytest.raises(ValueError, match="algebra size"):
        jordan._parse_algebra(("real", 0))


def test_scalar_function_derivative_oracles():
    # df and d2f agree with central finite differences of f on the domain
    zs = np.linspace(0.3, 2.0, 9)
    h = 1e-6
    for fn in (SQUARE, CUBE, EXP, NEG_XLOGX):
        fd1 = (fn.f(zs + h) - fn.f(zs - h)) / (2 * h)
        rel1 = np.max(np.abs(fd1 - fn.df(zs)) / np.maximum(1e-12, np.abs(fn.df(zs)) + 1.0))
        assert rel1 <= 1e-6, (fn.name, rel1)
        fd2 = (fn.df(zs + h) - fn.df(zs - h)) / (2 * h)
        rel2 = np.max(np.abs(fd2 - fn.d2f(zs)) / np.maximum(1e-12, np.abs(fn.d2f(zs)) + 1.0))
        assert rel2 <= 1e-6, (fn.name, rel2)
