"""Quaternion scalars and matrices stored as numpy arrays.

A quaternion a + bi + cj + dk is the length-4 vector (a, b, c, d); a
quaternion matrix of shape (n, m) is an array of shape (n, m, 4).  The
complex embedding maps each entry to the 2x2 block

    [[a + bi,  c + di],
     [-c + di, a - bi]]

so an (n, m) quaternion matrix becomes a (2n, 2m) complex matrix.  The
embedding is a *-homomorphism: it commutes with products and conjugate
transposition, which lets a single complex eigensolver serve the
quaternionic case.
"""

from __future__ import annotations

import numpy as np

def qarray(values) -> np.ndarray:
    """Coerce to a float array whose last axis has length 4."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError(f"quaternion components must come in 4-tuples, got shape {arr.shape}")
    return arr


def qmat_mul(a, b) -> np.ndarray:
    """Product of quaternion matrices, shapes (..., n, m, 4) @ (..., m, k, 4)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw @ bw - ax @ bx - ay @ by - az @ bz,
            aw @ bx + ax @ bw + ay @ bz - az @ by,
            aw @ by + ay @ bw + az @ bx - ax @ bz,
            aw @ bz + az @ bw + ax @ by - ay @ bx,
        ],
        axis=-1,
    )


def to_complex(q) -> np.ndarray:
    """Embed an (..., n, m, 4) quaternion matrix stack as (..., 2n, 2m) complex matrices, signed zeros too."""
    q = qarray(q)
    *lead, n, m, _ = q.shape
    out = np.empty((*lead, 2 * n, 2 * m), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0::2, 0::2], im[..., 0::2, 0::2] = q[..., 0], q[..., 1]
    re[..., 0::2, 1::2], im[..., 0::2, 1::2] = q[..., 2], q[..., 3]
    re[..., 1::2, 0::2], im[..., 1::2, 0::2] = -q[..., 2], q[..., 3]
    re[..., 1::2, 1::2], im[..., 1::2, 1::2] = q[..., 0], -q[..., 1]
    return out


def from_complex(z) -> np.ndarray:
    """Invert :func:`to_complex` on a (..., 2n, 2m) stack, averaging the two redundant copies.

    Only valid for matrices in (or numerically near) the image of the
    embedding; the averaging suppresses rounding noise.  Float arithmetic
    keeps signed zeros, so it inverts the embedding bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    re, im = z.real, z.imag
    return np.stack([re[..., 0::2, 0::2] + re[..., 1::2, 1::2], im[..., 0::2, 0::2] - im[..., 1::2, 1::2],
                     re[..., 0::2, 1::2] - re[..., 1::2, 0::2], im[..., 0::2, 1::2] + im[..., 1::2, 0::2]],
                    axis=-1) / 2.0


def structure_partner(u) -> np.ndarray:
    """Orthogonal partner of a complex 2n-vector under the quaternionic structure.

    If u is an eigenvector of an embedded matrix, the partner is another
    eigenvector with the same eigenvalue, always orthogonal to u.
    """
    u = np.asarray(u, dtype=complex)
    out = np.empty_like(u)
    out[0::2] = -np.conj(u[1::2])
    out[1::2] = np.conj(u[0::2])
    return out
