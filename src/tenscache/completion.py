"""Rank-budgeted Frank-Wolfe tensor completion over circular unfoldings.

The solver minimizes ``F(X) = 0.5 * ||X(mask) - T(mask)||_F^2`` starting from
``X = 0``. Each iteration:

1. forms the gradient tensor (the observed residual embedded at the observed
   positions, zero elsewhere),
2. picks the mode whose circular unfolding of the gradient has the largest
   dominant singular value (or, with the cheap rule, the smallest matrix
   dimension),
3. truncates the SVD of that unfolding to the per-iteration rank allowance,
   normalizes it so the step's unfolding has nuclear norm ``beta``, and folds
   it back into a step tensor ``S``,
4. takes an exact line-search step ``X <- X - gamma * S``, and
5. charges the step's rank to that mode's ledger, which counts against the
   global budget.

The state is the dense iterate (desk-scale tensors) and the per-mode rank
ledger, which is all a Frank-Wolfe step reads: the step's factors are folded
into the iterate and not kept.

Because each step's observed part is, by construction, positively correlated
with the residual, the exact line search always finds ``gamma > 0`` while the
gradient is nonzero; the stall branches below are defensive and also handle
direct calls with hand-built steps. The step size scales as ``1 / beta``, so
the product ``gamma * beta`` and the whole trajectory are invariant to the
choice of ``beta`` (up to floating-point rounding).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .svd import dominant_sigma, truncated_svd
from .tensors import SparseTensor, UnfoldSpec, fold, unfold, validate_shape

__all__ = [
    "FwConfig",
    "FwState",
    "GradientStep",
    "TraceRow",
    "ZeroGradientError",
    "ZeroOverlapError",
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


class ZeroGradientError(ValueError):
    """The gradient is (numerically) zero: the solver has converged."""


class ZeroOverlapError(ValueError):
    """The step tensor vanishes on the observed positions (``a_bar == 0``)."""


@dataclass
class FwConfig:
    """Solver configuration.

    ``rank_budget`` caps the total number of appended SVD components across
    all modes. ``beta`` is the nuclear-norm scale of each step; results are
    invariant to it (see :func:`beta_invariance_check`). ``shift`` is the
    circular-unfolding shift ``d``. ``rse_floor`` adds an early exit for
    exactly recoverable inputs, below which further iterations only churn at
    the numerical noise floor.
    """

    rank_budget: int
    beta: float = 1e5
    shift: int = 1
    max_iter: int = 200
    mode_selection: str = MODE_SIGMA_MAX
    update_rule: str = UPDATE_MULTI
    rse_floor: float = 1e-12

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
    ``beta`` itself). ``gamma`` is filled in by the line search before the
    step is applied.
    """

    mode: int
    u: np.ndarray
    weights: np.ndarray
    v: np.ndarray
    gamma: float = 0.0

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
    along mode ``k``. ``active`` holds the modes whose unfolding still has
    rank to give (``consumed[k]`` below its smaller dimension).
    """

    x: np.ndarray
    consumed: dict[int, int]
    active: set[int]
    config: FwConfig
    trace: list[TraceRow] = field(default_factory=list)

    @classmethod
    def initial(cls, shape, config: FwConfig) -> "FwState":
        shape = validate_shape(shape)
        n = len(shape)
        if not 1 <= config.shift <= n - 1:
            raise ValueError(f"shift {config.shift} invalid for order {n}")
        modes = range(1, n + 1)
        return cls(
            x=np.zeros(shape),
            consumed=dict.fromkeys(modes, 0),
            active=set(modes),
            config=config,
        )

    def consumed_total(self) -> int:
        return sum(self.consumed.values())


def select_mode(grad: np.ndarray, cfg: FwConfig, active: set[int]) -> int:
    """Pick the unfolding mode for the next step.

    ``sigma``: argmax of the dominant singular value of the gradient's
    circular unfolding over the active modes. ``min-dim``: argmin of the
    smaller unfolding dimension (the cheap proxy; the two rules need not
    agree). Ties break toward the smallest mode index.
    """
    if not active:
        raise ValueError("active mode set is empty")
    modes = sorted(active)
    if cfg.mode_selection == MODE_MIN_DIM:
        return min(modes, key=lambda k: min(UnfoldSpec(k, cfg.shift).matrix_dims(grad.shape)))
    best, best_sigma = modes[0], -np.inf
    for k in modes:
        s = dominant_sigma(unfold(grad, UnfoldSpec(k, cfg.shift)))
        if s > best_sigma:
            best, best_sigma = k, s
    return best


def gradient_step(
    grad: np.ndarray,
    k_star: int,
    r_k: int,
    beta: float,
    shift: int = 1,
    update_rule: str = UPDATE_MULTI,
) -> GradientStep:
    """Best-correlated step of nuclear norm ``beta`` along mode ``k_star``.

    The multi-rank rule keeps the top ``r_k`` singular triplets of the
    gradient unfolding, rescaled so the weights sum to ``beta``; the rank-1
    rule keeps the leading pair with weight ``beta`` and discards the
    singular-value structure. Trailing singular values at the numerical-zero
    level are dropped rather than appended as zero-weight components, so the
    returned rank may be below ``r_k``.
    """
    spec = UnfoldSpec(k_star, shift)
    m = unfold(grad, spec)
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


def line_search(x: np.ndarray, t: SparseTensor, s: np.ndarray) -> float:
    """Exact step size ``max(b_bar / a_bar, 0)`` for the update ``x - gamma * s``.

    ``a_bar`` is the observed energy of the step, ``b_bar`` the correlation of
    the step with the observed residual. Raises :class:`ZeroOverlapError`
    when the step misses every observed position (``a_bar == 0``), in which
    case the caller should discard the step.
    """
    s_obs = t.gather(s)
    a_bar = float(s_obs @ s_obs)
    if a_bar == 0.0:
        raise ZeroOverlapError("step tensor vanishes on the observed positions")
    b_bar = float((t.gather(x) - t.values) @ s_obs)
    return max(b_bar / a_bar, 0.0)


def apply_update(state: FwState, step: GradientStep) -> FwState:
    """Apply ``x <- x - gamma * S`` and charge the step's rank to its mode.

    The rank ledger always advances by the step's rank; a ``gamma == 0``
    step leaves the iterate unchanged. A mode whose ledger reaches the
    smaller dimension of its unfolding leaves the active set.
    """
    k = step.mode
    if step.gamma > 0.0:
        state.x -= step.gamma * step.dense(state.x.shape, state.config.shift)
        if not np.isfinite(state.x).all():
            raise FloatingPointError(
                f"non-finite iterate after mode-{k} update (gamma={step.gamma!r})"
            )
    state.consumed[k] += step.rank
    rows, cols = UnfoldSpec(k, state.config.shift).matrix_dims(state.x.shape)
    if state.consumed[k] >= min(rows, cols):
        state.active.discard(k)
    return state


def update_rank_budget(state: FwState, k: int) -> int:
    """Per-iteration rank allowance for mode ``k``.

    ``min(rows - R_k, cols - R_k, budget - total_consumed)`` floored at zero.
    A zero caused by mode saturation removes ``k`` from the active set; a
    zero caused by budget exhaustion means the solver is done.
    """
    rows, cols = UnfoldSpec(k, state.config.shift).matrix_dims(state.x.shape)
    consumed = state.consumed[k]
    remaining = state.config.rank_budget - state.consumed_total()
    r = max(min(rows - consumed, cols - consumed, remaining), 0)
    if r == 0 and consumed >= min(rows, cols):
        state.active.discard(k)
    return r


def complete(t: SparseTensor, cfg: FwConfig) -> tuple[FwState, list[TraceRow]]:
    """Run the solver on observed tensor ``t`` until the budget, ``max_iter``,
    or the RSE floor is reached.

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
    mask = t.mask_tuple()
    start = time.perf_counter()
    trace = [TraceRow(0, 1.0, 0.0, 0, 0.0, 0.0)]

    for it in range(1, cfg.max_iter + 1):
        residual = state.x[mask] - t.values
        rse = float(np.linalg.norm(residual)) / t_norm
        if rse < cfg.rse_floor or not state.active:
            break
        if state.config.rank_budget - state.consumed_total() <= 0:
            break
        grad = np.zeros(t.shape)
        grad[mask] = residual

        applied = False
        skipped: set[int] = set()
        while not applied:
            candidates = state.active - skipped
            if not candidates:
                break  # every remaining mode stalled: treat as converged
            k = select_mode(grad, cfg, candidates)
            r = update_rank_budget(state, k)
            if r == 0:
                if k in state.active:
                    break  # global budget exhausted
                continue  # mode was saturated and pruned; rescan
            try:
                step = gradient_step(grad, k, r, cfg.beta, cfg.shift, cfg.update_rule)
            except ZeroGradientError:
                break
            s_dense = step.dense(t.shape, cfg.shift)
            try:
                gamma = line_search(state.x, t, s_dense)
            except ZeroOverlapError:
                skipped.add(k)
                continue
            if gamma == 0.0:
                skipped.add(k)
                continue
            step = replace(step, gamma=gamma)
            apply_update(state, step)
            applied = True
        if not applied:
            break

        rse = float(np.linalg.norm(state.x[mask] - t.values)) / t_norm
        trace.append(
            TraceRow(it, rse, time.perf_counter() - start, step.mode, gamma, gamma * cfg.beta)
        )

    state.trace = trace
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
