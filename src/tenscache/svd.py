"""Truncated SVD and dominant-singular-value queries for unfolding matrices.

Both read one :class:`Gram`: the small-side Gram matrix ``G`` (``a @ a.T``
if the matrix is wide, else ``a.T @ a``) of ``a = m * 2**-exp``, the matrix
scaled exactly so its largest entry lies in [0.5, 1). The Gram entries then
neither underflow nor overflow, and the scale comes back out exactly.
Matrices that share their largest entry, such as every unfolding of one
tensor, share ``exp``: a caller can scale the tensor once and hand each
already-scaled matrix to ``Gram`` with that exponent.
An eigendecomposition of ``G`` costs far less than an SVD of a skinny
unfolding, but squares the condition number: a singular value is resolved
only down to about ``sqrt(eps) * sigma_1`` (~1.5e-8 relative), and below
that the triplet is rounding noise. Without any eigensolve, ``G`` bounds
the dominant singular value: ``sigma_1**2``, the top eigenvalue of the
positive semidefinite ``G``, is at most its Frobenius norm, so
``sigma_1 <= ||G||_F**(1/2) * 2**exp``. One product tighter,
``sigma_1**4``, the top eigenvalue of ``G @ G``, is at most that matrix's
Frobenius norm, so ``sigma_1 <= ||G @ G||_F**(1/4) * 2**exp``: with ``n``
equal singular values the two bounds are ``n**(1/4)`` and ``n**(1/8)``
times sigma, and at rank one both are exact. A caller that needs only the
largest of several sigmas can skip the eigensolve of a matrix these bounds
rule out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Gram", "SvdTriplet", "dominant_sigma", "truncated_svd"]


@dataclass
class SvdTriplet:
    """Top-r singular triplets: ``u`` (p, r), ``sigma`` (r,) nonincreasing, ``v`` (q, r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


class Gram:
    """Matrix ``m`` made ready for both queries, once: ``a`` and ``exp`` with
    ``m == a * 2**exp`` exactly, and ``g``, the ``G`` of ``a`` (module docstring).
    ``a`` is held in F order whatever ``m``'s layout, so results do not depend on it.

    Given ``exp``, ``m`` is taken to be ``a`` itself: a matrix already scaled
    by ``2**-exp``, with ``exp`` the :meth:`exponent` of the unscaled matrix.
    Since the scaling is exact, the result is bitwise the ``Gram`` of the
    unscaled matrix."""

    def __init__(self, m: np.ndarray, exp: int | None = None):
        if m.ndim != 2 or m.size == 0:
            raise ValueError(f"expected a nonempty matrix, got shape {m.shape}")
        if exp is None:
            exp = self.exponent(m)
            m = np.ldexp(m, -exp, order="F")
        a = self.a = np.asfortranarray(m)
        self.exp = exp
        self.g = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a

    @staticmethod
    def exponent(m: np.ndarray) -> int:
        """The ``exp`` that puts the largest entry of ``m * 2**-exp`` in
        [0.5, 1); 0 for a zero ``m``."""
        peak = float(np.abs(m).max())
        if not math.isfinite(peak):  # the peak is non-finite iff some entry is
            raise ValueError("matrix contains non-finite entries")
        return math.frexp(peak)[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


def truncated_svd(gram: Gram, r: int, *, _work: np.ndarray | None = None) -> SvdTriplet:
    """Top-``r`` singular triplets of the matrix ``m`` of ``gram``.

    The small side's vectors are the top ``r`` eigenvectors of the Gram
    matrix, ``sigma`` the square roots of their eigenvalues (negative
    rounding clipped to zero), and each other-side vector is ``m`` applied
    to its small-side vector over ``sigma``, or zero where ``sigma`` is zero.
    Each column is computed on its own, so the result for ``r`` is bitwise
    the first ``r`` columns of the result for any larger rank. Triplets below
    the resolution floor (see the module docstring) are not singular
    triplets; callers drop them. Signs are fixed by making the
    largest-magnitude entry of each left singular vector positive, one
    column at a time, in place.

    Each column's product ``m @ vector`` and magnitudes are written into
    one array as long as the larger side: ``_work``'s leading part, if given
    (a flat float64 array; the solver passes its workspace's scratch), else
    a fresh one.
    """
    if not 1 <= r <= min(gram.shape):
        raise ValueError(f"rank {r} out of range 1..{min(gram.shape)}")
    wide = gram.shape[0] <= gram.shape[1]
    lam, vec = np.linalg.eigh(gram.g)
    lam, vec = lam[::-1][:r], vec[:, ::-1][:, :r]
    s = np.sqrt(np.maximum(lam, 0.0))
    b = gram.a.T if wide else gram.a
    other = np.zeros((b.shape[0], r))
    product = np.empty(b.shape[0]) if _work is None else _work[: b.shape[0]]
    for j in np.flatnonzero(s):  # one product per column: independent of r
        np.divide(np.matmul(b, vec[:, j], out=product), s[j], out=other[:, j])
    # contiguous, so the factors a step keeps of it multiply through BLAS
    # without a hidden copy
    vec = np.ascontiguousarray(vec)
    u, v = (vec, other) if wide else (other, vec)
    for j in range(r):
        col = u[:, j]
        if col[np.argmax(np.abs(col, out=product[: col.size]))] < 0:
            col *= -1.0
            v[:, j] *= -1.0
    return SvdTriplet(u, np.ldexp(s, gram.exp), v)


def dominant_sigma(gram: Gram) -> float:
    """Largest singular value of the matrix ``m`` of ``gram``: the square root
    of the Gram matrix's top eigenvalue, accurate to rounding."""
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(gram.g)[-1]), gram.exp))
