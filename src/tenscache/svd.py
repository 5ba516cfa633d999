"""Truncated SVD and dominant-singular-value queries for unfolding matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdTriplet", "dominant_sigma", "truncated_svd"]


@dataclass
class SvdTriplet:
    """Top-r singular triplets: ``u`` (p, r), ``sigma`` (r,) nonincreasing, ``v`` (q, r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def matrix(self) -> np.ndarray:
        """Reconstruction ``u @ diag(sigma) @ v.T``."""
        return (self.u * self.sigma) @ self.v.T


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
    """Largest singular value of ``m``."""
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
    _check_finite(m)
    if not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])
