"""Truncated SVD and dominant-singular-value queries for unfolding matrices."""

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


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")


def truncated_svd(m: np.ndarray, r: int) -> SvdTriplet:
    """Top-``r`` singular triplets of ``m``.

    Backed by the dense LAPACK SVD, which is deterministic, so the result is
    bitwise reproducible. Signs are fixed by making the largest-magnitude
    entry of each left singular vector positive.
    """
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"rank {r} out of range 1..{min(m.shape)}")
    _check_finite(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    u, s, v = u[:, :r].copy(), s[:r].copy(), vt[:r].T.copy()
    for j in range(r):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdTriplet(u, s, v)


def dominant_sigma(m: np.ndarray) -> float:
    """Largest singular value of ``m``.

    Computed as the square root of the top eigenvalue of the small-side Gram
    matrix (``a @ a.T`` or ``a.T @ a``), which costs far less than an SVD of
    a skinny unfolding. ``a`` is ``m`` scaled by an exact power of two so its
    largest entry lies in [0.5, 1): the Gram entries then neither underflow
    nor overflow, and the scale comes back out exactly.
    """
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
    _check_finite(m)
    peak = float(np.abs(m).max())
    if peak == 0.0:
        return 0.0
    exp = math.frexp(peak)[1]
    a = np.ldexp(m, -exp)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[-1]), exp))
