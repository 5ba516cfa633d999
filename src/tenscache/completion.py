"""Rank-budgeted Frank-Wolfe tensor completion over circular unfoldings.

The solver minimizes ``F(X) = 0.5 * ||X(mask) - T(mask)||_F^2`` starting from
``X = 0``. Each iteration:

1. builds the circular unfoldings of the gradient tensor (the observed
   residual at the observed positions, zero elsewhere) straight from the
   residual, never forming the dense gradient,
2. picks the mode whose gradient unfolding has the largest dominant singular
   value (or, with the cheap rule, the smallest matrix dimension),
3. truncates the SVD of that unfolding to the per-iteration rank allowance,
   normalizes it so the step's unfolding has nuclear norm ``beta``, and folds
   it back into a step tensor ``S``,
4. takes an exact line-search step ``X <- X - gamma * S``, and
5. charges the step's rank to that mode's ledger, which counts against the
   global budget.

The state is the dense iterate (desk-scale tensors) and the per-mode rank
ledger, which is all a Frank-Wolfe step reads: the step's factors are folded
into the iterate and not kept, and the active modes are those whose ledger is
below the smaller dimension of their unfolding.

Each step's observed correlation with the residual is ``b_bar = <grad, S> =
sum_i w_i sigma_i > 0`` while the gradient is nonzero, so the exact line
search finds ``gamma > 0`` on every real input, and :func:`complete` is one
flat loop with no retry. The step size scales as ``1 / beta``, so the product
``gamma * beta`` and the whole trajectory are invariant to the choice of
``beta`` (up to floating-point rounding).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .svd import dominant_sigma, truncated_svd
from .tensors import SparseTensor, UnfoldSpec, fold, unfold, validate_shape

__all__ = [
    "FwConfig",
    "FwState",
    "GradientStep",
    "GradientUnfoldings",
    "TraceRow",
    "ZeroGradientError",
    "apply_update",
    "beta_invariance_check",
    "complete",
    "gradient_step",
    "line_search",
    "select_mode",
    "update_rank_budget",
    "write_trace_csv",
]

MODE_SIGMA_MAX = "sigma"
MODE_MIN_DIM = "min-dim"
UPDATE_MULTI = "multi"
UPDATE_RANK_ONE = "rank1"

# Relative threshold below which trailing singular values of a gradient
# unfolding are treated as zero and never appended as components.
_SIGMA_EPS = 1e-13
# Observed-entry RSE below which an exactly recoverable input is done: further
# steps would only churn at the numerical noise floor.
_RSE_FLOOR = 1e-12


class ZeroGradientError(ValueError):
    """The gradient is (numerically) zero: the solver has converged."""


@dataclass
class FwConfig:
    """Solver configuration.

    ``rank_budget`` caps the total number of appended SVD components across
    all modes. ``beta`` is the nuclear-norm scale of each step; results are
    invariant to it (see :func:`beta_invariance_check`). ``shift`` is the
    circular-unfolding shift ``d``.
    """

    rank_budget: int
    beta: float = 1e5
    shift: int = 1
    max_iter: int = 200
    mode_selection: str = MODE_SIGMA_MAX
    update_rule: str = UPDATE_MULTI

    def __post_init__(self):
        if self.rank_budget < 1:
            raise ValueError("rank_budget must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.shift < 1:
            raise ValueError("shift must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mode_selection not in (MODE_SIGMA_MAX, MODE_MIN_DIM):
            raise ValueError(f"unknown mode_selection {self.mode_selection!r}")
        if self.update_rule not in (UPDATE_MULTI, UPDATE_RANK_ONE):
            raise ValueError(f"unknown update_rule {self.update_rule!r}")


@dataclass
class TraceRow:
    iteration: int
    rse: float
    elapsed_s: float
    mode: int
    gamma: float
    beta_gamma: float


@dataclass
class GradientStep:
    """One step tensor in factored form.

    ``weights`` are the singular values of the step's ``mode`` unfolding; they
    sum to ``beta`` by construction (for the rank-1 rule the single weight is
    ``beta`` itself).
    """

    mode: int
    u: np.ndarray
    weights: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    def dense(self, shape, shift: int) -> np.ndarray:
        """Materialize the step tensor ``S``."""
        return fold((self.u * self.weights) @ self.v.T, UnfoldSpec(self.mode, shift), shape)


@dataclass
class FwState:
    """Solver state: the dense iterate ``x`` and the per-mode rank ledger.

    ``consumed[k]`` is the rank charged against the global budget by steps
    along mode ``k``.
    """

    x: np.ndarray
    consumed: dict[int, int]
    config: FwConfig

    @classmethod
    def initial(cls, shape, config: FwConfig) -> "FwState":
        shape = validate_shape(shape)
        n = len(shape)
        if not 1 <= config.shift <= n - 1:
            raise ValueError(f"shift {config.shift} invalid for order {n}")
        return cls(x=np.zeros(shape), consumed=dict.fromkeys(range(1, n + 1), 0), config=config)

    @property
    def active(self) -> set[int]:
        """Modes whose unfolding still has rank to give (``consumed[k]`` below
        its smaller dimension)."""
        shift, shape = self.config.shift, self.x.shape
        return {k for k, c in self.consumed.items()
                if c < min(UnfoldSpec(k, shift).matrix_dims(shape))}

    def consumed_total(self) -> int:
        return sum(self.consumed.values())


class GradientUnfoldings:
    """Circular unfoldings of the gradient tensor, scattered from the residual.

    The gradient is the observed residual at the observed positions and zero
    elsewhere, so its mode-``k`` unfolding is a zero matrix holding the
    residual at each observed entry's place in that unfolding.
    ``positions[k]`` lists those places (F-order flat indices). They are found
    once per solve by unfolding a tensor of entry numbers, so they follow
    :func:`unfold`'s flattening convention by construction.
    """

    def __init__(self, t: SparseTensor, shift: int):
        # numbered from 1 (0 marks unobserved), in the smallest dtype that
        # holds them: each mode copies the whole tensor once
        numbers = t.to_dense(np.arange(1, t.nnz + 1, dtype=np.min_scalar_type(t.nnz)))
        self.dims: dict[int, tuple[int, int]] = {}
        self.positions: dict[int, np.ndarray] = {}
        for k in range(1, len(t.shape) + 1):
            spec = UnfoldSpec(k, shift)
            self.dims[k] = spec.matrix_dims(t.shape)
            entry = unfold(numbers, spec).ravel(order="F")
            where = np.flatnonzero(entry)
            pos = np.empty(t.nnz, dtype=np.intp)
            pos[entry[where] - 1] = where
            self.positions[k] = pos

    def matrix(self, k: int, residual: np.ndarray) -> np.ndarray:
        """Mode-``k`` gradient unfolding: bitwise and in (F-contiguous) layout
        what :func:`unfold` gives for the dense gradient."""
        rows, cols = self.dims[k]
        flat = np.zeros(rows * cols)
        flat[self.positions[k]] = residual
        return flat.reshape((rows, cols), order="F")


def select_mode(
    grads: GradientUnfoldings, residual: np.ndarray, cfg: FwConfig, active: set[int]
) -> tuple[int, np.ndarray]:
    """Pick the unfolding mode for the next step; return it with its gradient
    unfolding.

    ``sigma``: argmax of the dominant singular value of the gradient's
    circular unfolding over the active modes. ``min-dim``: argmin of the
    smaller unfolding dimension (the cheap proxy; the two rules need not
    agree). Ties break toward the smallest mode index.

    At ``N == 2 * shift`` the mode-``k`` and mode-``(k + shift)`` unfoldings
    are transposes. When they are not square their Gram sigmas are bitwise
    equal, so the second reuses the first's value (and, tied, cannot win).
    A square pair is evaluated twice: ``a @ a.T`` and ``a.T @ a`` round
    differently. Only the best candidate's unfolding is kept alive.
    """
    if not active:
        raise ValueError("active mode set is empty")
    modes = sorted(active)
    if cfg.mode_selection == MODE_MIN_DIM:
        best = min(modes, key=lambda k: min(grads.dims[k]))
        return best, grads.matrix(best, residual)
    twins = len(grads.dims) == 2 * cfg.shift
    sigma: dict[int, float] = {}
    best, best_m = modes[0], None
    for k in modes:
        twin = k - cfg.shift
        if twins and twin in sigma and grads.dims[k][0] != grads.dims[k][1]:
            sigma[k] = sigma[twin]
            continue
        m = grads.matrix(k, residual)
        sigma[k] = dominant_sigma(m)
        if best_m is None or sigma[k] > sigma[best]:
            best, best_m = k, m
        del m
    return best, best_m


def gradient_step(
    m: np.ndarray,
    k_star: int,
    r_k: int,
    beta: float,
    update_rule: str = UPDATE_MULTI,
) -> GradientStep:
    """Best-correlated step of nuclear norm ``beta`` along mode ``k_star``,
    from ``m``, the gradient's mode-``k_star`` unfolding.

    The multi-rank rule keeps the top ``r_k`` singular triplets of the
    gradient unfolding, rescaled so the weights sum to ``beta``; the rank-1
    rule keeps the leading pair with weight ``beta`` and discards the
    singular-value structure. Trailing singular values at the numerical-zero
    level are dropped rather than appended as zero-weight components, so the
    returned rank may be below ``r_k``.
    """
    if not 1 <= r_k <= min(m.shape):
        raise ValueError(f"r_k {r_k} out of range 1..{min(m.shape)}")
    r_want = 1 if update_rule == UPDATE_RANK_ONE else r_k
    trip = truncated_svd(m, r_want)
    if trip.sigma[0] <= 0.0:
        raise ZeroGradientError("gradient unfolding is numerically zero")
    keep = trip.sigma > trip.sigma[0] * _SIGMA_EPS
    u, sig, v = trip.u[:, keep], trip.sigma[keep], trip.v[:, keep]
    if update_rule == UPDATE_RANK_ONE:
        return GradientStep(k_star, u[:, :1], np.array([beta]), v[:, :1])
    return GradientStep(k_star, u, beta / float(sig.sum()) * sig, v)


def line_search(residual: np.ndarray, s_obs: np.ndarray) -> float:
    """Exact step size ``max(b_bar / a_bar, 0)`` for the update ``x - gamma * s``.

    ``residual`` is ``x - T`` and ``s_obs`` is ``s``, both at the observed
    entries. ``a_bar`` is the observed energy of the step, ``b_bar`` the
    correlation of the step with the observed residual. A step that misses
    every observed position (``a_bar == 0``, hence ``b_bar == 0``) gets
    ``0.0``.
    """
    a_bar = float(s_obs @ s_obs)
    if a_bar == 0.0:
        return 0.0
    b_bar = float(residual @ s_obs)
    return max(b_bar / a_bar, 0.0)


def apply_update(state: FwState, step: GradientStep, gamma: float, s: np.ndarray) -> FwState:
    """Apply ``x <- x - gamma * s``, with ``s`` the step's dense tensor, and
    charge the step's rank to its mode.

    The rank ledger always advances by the step's rank; a ``gamma == 0``
    step leaves the iterate unchanged.
    """
    state.x -= gamma * s
    if not np.isfinite(state.x).all():
        raise FloatingPointError(
            f"non-finite iterate after mode-{step.mode} update (gamma={gamma!r})"
        )
    state.consumed[step.mode] += step.rank
    return state


def update_rank_budget(state: FwState, k: int) -> int:
    """Per-iteration rank allowance for mode ``k``.

    ``min(rows - R_k, cols - R_k, budget - total_consumed)`` floored at zero:
    zero when mode ``k`` is saturated or the budget is spent.
    """
    rows, cols = UnfoldSpec(k, state.config.shift).matrix_dims(state.x.shape)
    consumed = state.consumed[k]
    remaining = state.config.rank_budget - state.consumed_total()
    return max(min(rows - consumed, cols - consumed, remaining), 0)


def complete(t: SparseTensor, cfg: FwConfig) -> tuple[FwState, list[TraceRow]]:
    """Run the solver on observed tensor ``t``.

    Each step selects a mode, takes its rank allowance, builds the step
    tensor once, line-searches it and applies it. The gradient unfoldings are
    scattered from the residual, and the selected one is handed to the step.
    The run stops at the first of: the RSE floor, the budget spent, no active
    mode, a zero gradient, a ``gamma == 0`` step, or ``max_iter`` steps.

    Returns the final state and the per-iteration trace. The trace starts at
    the exact RSE 1.0 baseline (the iterate starts at zero) and records, for
    every applied step, the observed-entry RSE, cumulative wall-clock time,
    the selected mode, and the step size both raw and multiplied by ``beta``.
    """
    if t.nnz == 0:
        raise ValueError("observed tensor has no entries")
    t_norm = float(np.linalg.norm(t.values))
    if t_norm == 0.0:
        raise ValueError("observed values are all zero; nothing to fit")
    state = FwState.initial(t.shape, cfg)
    start = time.perf_counter()
    grads = GradientUnfoldings(t, cfg.shift)
    trace = [TraceRow(0, 1.0, 0.0, 0, 0.0, 0.0)]
    residual = t.gather(state.x) - t.values
    rse = float(np.linalg.norm(residual)) / t_norm

    for it in range(1, cfg.max_iter + 1):
        active = state.active
        if rse < _RSE_FLOOR or not active or state.consumed_total() >= cfg.rank_budget:
            break
        k, m = select_mode(grads, residual, cfg, active)
        r = update_rank_budget(state, k)  # >= 1: k is active and budget remains
        try:
            step = gradient_step(m, k, r, cfg.beta, cfg.update_rule)
        except ZeroGradientError:
            break
        del m  # free the unfolding before the step tensor is built
        s = step.dense(t.shape, cfg.shift)
        gamma = line_search(residual, t.gather(s))
        if gamma == 0.0:
            break
        apply_update(state, step, gamma, s)
        residual = t.gather(state.x) - t.values
        rse = float(np.linalg.norm(residual)) / t_norm
        trace.append(TraceRow(it, rse, time.perf_counter() - start, k, gamma, gamma * cfg.beta))

    return state, trace


def beta_invariance_check(
    t: SparseTensor, cfg: FwConfig, betas, rel_tol: float = 1e-8
) -> bool:
    """True iff solver runs differing only in ``beta`` agree.

    Agreement means: identical mode sequences, per-iteration ``gamma * beta``
    products equal to ``rel_tol`` relative, and final iterates equal
    elementwise to ``rel_tol`` relative (against the largest magnitude).
    """
    betas = [float(b) for b in betas]
    if len(betas) < 2:
        raise ValueError("need at least two beta values")
    if any(b <= 0 for b in betas):
        raise ValueError("beta values must be > 0")
    runs = [complete(t, replace(cfg, beta=b)) for b in betas]
    ref_state, ref_trace = runs[0]
    ref_scale = max(float(np.abs(ref_state.x).max()), 1e-300)
    for state, trace in runs[1:]:
        if len(trace) != len(ref_trace):
            return False
        for row, ref in zip(trace, ref_trace):
            if row.mode != ref.mode:
                return False
            denom = max(abs(ref.beta_gamma), abs(row.beta_gamma), 1e-300)
            if abs(row.beta_gamma - ref.beta_gamma) / denom > rel_tol:
                return False
        if float(np.abs(state.x - ref_state.x).max()) > rel_tol * ref_scale:
            return False
    return True


def write_trace_csv(path, trace: list[TraceRow], manifest: str | None = None) -> None:
    """Write the RSE trace (``iter,rse,elapsed_s,mode,gamma,beta_gamma``)."""
    with open(path, "w") as fh:
        if manifest:
            fh.write(f"# manifest: {manifest}\n")
        fh.write("iter,rse,elapsed_s,mode,gamma,beta_gamma\n")
        for row in trace:
            fh.write(
                f"{row.iteration},{row.rse!r},{row.elapsed_s!r},"
                f"{row.mode},{row.gamma!r},{row.beta_gamma!r}\n"
            )
