"""Truncated SVD and dominant-singular-value queries for unfolding matrices.

Both come from the small-side Gram matrix ``G`` (``a @ a.T`` if the matrix
is wide, else ``a.T @ a``) of ``a``, the matrix scaled by an exact power of
two so its largest entry lies in [0.5, 1): the Gram entries then neither
underflow nor overflow, and the scale comes back out exactly. An
eigendecomposition of ``G`` costs far less than an SVD of a skinny
unfolding, but squares the condition number: a singular value is resolved
only down to about ``sqrt(eps) * sigma_1`` (~1.5e-8 relative), and below
that the triplet is rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SvdTriplet", "dominant_sigma", "truncated_svd"]


@dataclass
class SvdTriplet:
    """Top-r singular triplets: ``u`` (p, r), ``sigma`` (r,) nonincreasing, ``v`` (q, r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a, exp)`` with ``m == a * 2**exp`` exactly and ``max|a|`` in [0.5, 1)
    (``exp == 0`` for the zero matrix). Rejects non-finite entries: the peak
    is non-finite iff some entry is."""
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
    peak = float(np.abs(m).max())
    if not math.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    exp = math.frexp(peak)[1]
    return np.ldexp(m, -exp), exp


def _gram(a: np.ndarray) -> np.ndarray:
    """The small-side Gram matrix of ``a`` (``a @ a.T`` when it is wide)."""
    return a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a


def truncated_svd(m: np.ndarray, r: int) -> SvdTriplet:
    """Top-``r`` singular triplets of ``m``.

    The small side's vectors are the top ``r`` eigenvectors of the Gram
    matrix, ``sigma`` the square roots of their eigenvalues (negative
    rounding clipped to zero), and each other-side vector is ``m`` applied
    to its small-side vector over ``sigma``, or zero where ``sigma`` is zero.
    Each column is computed on its own, so the result for ``r`` is bitwise
    the first ``r`` columns of the result for any larger rank. Triplets below
    the resolution floor (see the module docstring) are not singular
    triplets; callers drop them. Signs are fixed by making the
    largest-magnitude entry of each left singular vector positive.
    """
    a, exp = _scaled(m)
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"rank {r} out of range 1..{min(m.shape)}")
    wide = a.shape[0] <= a.shape[1]
    lam, vec = np.linalg.eigh(_gram(a))
    lam, vec = lam[::-1][:r], vec[:, ::-1][:, :r]
    s = np.sqrt(np.maximum(lam, 0.0))
    b = a.T if wide else a
    other = np.zeros((b.shape[0], r))
    for j in np.flatnonzero(s):  # one product per column: independent of r
        other[:, j] = (b @ vec[:, j]) / s[j]
    u, v = (vec, other) if wide else (other, vec)
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(r)] < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdTriplet(u, np.ldexp(s, exp), v)


def dominant_sigma(m: np.ndarray) -> float:
    """Largest singular value of ``m``: the square root of the Gram matrix's
    top eigenvalue (see the module docstring), accurate to rounding."""
    a, exp = _scaled(m)
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(_gram(a))[-1]), exp))
