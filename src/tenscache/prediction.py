"""Normalized demand shares and constrained linear demand prediction.

Demands are aggregated per base station and slot into a per-file share vector
that sums to one. The one-step-ahead forecast is a linear combination of the
``M`` most recent share vectors; coefficient ``m`` multiplies the slot ``m``
steps behind the forecast target, both in the regression residuals and in the
forecast itself, and the lagged regressor for the response at slot ``s`` is
the slot ``s - m``.

Because every share vector sums to one, the requirement that the forecast sum
to one reduces exactly to the coefficients summing to one; that equality is
solved in closed form by eliminating the last coefficient. Nonnegativity is
then enforced on the forecast (not the coefficients) by clipping and
renormalizing, a documented approximation that keeps every forecast on the
simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DemandHistory",
    "Forecast",
    "PredictorConfig",
    "fit_predict",
    "normalize_demands",
]

PREDICT_LS = "lp"
PREDICT_MEAN = "mean"


@dataclass
class DemandHistory:
    """Sliding window of normalized demand shares, shape (window, F, N_BS).

    Every per-(bs, slot) share vector is entrywise nonnegative and sums to
    one (degenerate all-zero slots are stored as the uniform distribution).
    """

    shares: np.ndarray

    def __post_init__(self):
        self.shares = np.asarray(self.shares, dtype=np.float64)
        if self.shares.ndim != 3:
            raise ValueError(f"expected (window, F, N_BS), got {self.shares.shape}")
        if (self.shares < -1e-12).any():
            raise ValueError("negative demand share")
        sums = self.shares.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("demand shares must sum to 1 per (bs, slot)")

    @property
    def window(self) -> int:
        return self.shares.shape[0]


@dataclass
class PredictorConfig:
    """Prediction order ``M`` and mode (constrained LS or plain mean)."""

    order: int
    mode: str = PREDICT_LS

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.mode not in (PREDICT_LS, PREDICT_MEAN):
            raise ValueError(f"unknown predictor mode {self.mode!r}")


@dataclass
class Forecast:
    """One base station's predicted share vector for the next slot."""

    shares: np.ndarray
    coefficients: np.ndarray
    used_fallback: bool = False


def normalize_demands(d: np.ndarray) -> DemandHistory:
    """Per-(bs, slot) demand shares from a (F, F, N_BS, window) demand tensor.

    Negative entries (e.g. from a completed tensor) are clipped to zero
    before aggregation. File ``f`` is credited with all mass in row ``f``
    (the sum over the recommendation axis), as :func:`~tenscache.caching.hit_rate`
    scores it. All-zero (bs, slot) pairs fall back to the uniform distribution.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 4:
        raise ValueError(f"expected a 4th-order demand tensor, got shape {d.shape}")
    # C order: a view sums as its copy would
    return _clipped_shares(np.clip(d, 0.0, None, order="C"))


def _clipped_shares(d: np.ndarray) -> DemandHistory:
    """:func:`normalize_demands` of a C-contiguous (F, F, N_BS, window)
    tensor already clipped at zero, such as one the caller clipped in place."""
    mass = d.sum(axis=1)  # (F, N_BS, window)
    totals = mass.sum(axis=0, keepdims=True)
    f = mass.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = np.where(totals > 0.0, mass / totals, 1.0 / f)
    return DemandHistory(np.moveaxis(shares, -1, 0))


def _lagged_system(shares_b: np.ndarray, m_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked regression (design, response) over files and usable slots."""
    responses = np.arange(shares_b.shape[0] - 1, m_order - 1, -1)  # newest first
    # row (response slot s, file i) holds slot s's share of file i, then slots s-1 .. s-M's
    lagged = shares_b[responses[:, None] - np.arange(m_order + 1)]  # (n_resp, M+1, F)
    stacked = lagged.transpose(0, 2, 1).reshape(-1, m_order + 1)
    return stacked[:, 1:], stacked[:, 0]


def fit_predict(history: DemandHistory, cfg: PredictorConfig, bs: int) -> Forecast:
    """Forecast the next slot's share vector for base station ``bs``.

    LS mode minimizes the lagged residuals subject to the coefficients
    summing to one, then clips and renormalizes the forecast onto the
    simplex. Mean mode uses uniform coefficients ``1/M``. A numerically
    failed LS solve falls back to mean coefficients with a flag set.
    """
    m_order = cfg.order
    if history.window < m_order + 1:
        raise ValueError(f"window {history.window} too short for order {m_order}")
    shares_b = history.shares[:, :, bs]  # (window, F)
    fallback = False
    if cfg.mode == PREDICT_MEAN:
        coeff = np.full(m_order, 1.0 / m_order)
    else:
        coeff = _solve_constrained(shares_b, m_order)
        if coeff is None:
            coeff = np.full(m_order, 1.0 / m_order)
            fallback = True
    # coefficient m multiplies the slot m steps behind the forecast target
    lags = shares_b[history.window - np.arange(1, m_order + 1)]  # (M, F)
    raw = coeff @ lags
    shares = np.clip(raw, 0.0, None)
    shares /= shares.sum()
    return Forecast(shares, coeff, fallback)


def _solve_constrained(shares_b: np.ndarray, m_order: int):
    """LS coefficients under the sum-to-one equality, or None on failure.

    Eliminates the last coefficient via ``c_M = 1 - sum(c_1..c_{M-1})`` and
    solves the reduced unconstrained problem by least squares.
    """
    a, y = _lagged_system(shares_b, m_order)
    try:
        a_last = a[:, -1]
        a_red = a[:, :-1] - a_last[:, None]
        z, *_ = np.linalg.lstsq(a_red, y - a_last, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(z).all():
        return None
    return np.concatenate([z, [1.0 - z.sum()]])
