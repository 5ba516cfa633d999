"""Rank-budgeted Frank-Wolfe tensor completion over circular unfoldings.

The solver minimizes ``F(X) = 0.5 * ||X(mask) - T(mask)||_F^2`` starting from
``X = 0``. Each iteration:

1. builds the circular unfoldings of the gradient tensor (the observed
   residual at the observed positions, zero elsewhere) straight from the
   residual, never forming the dense gradient,
2. picks the mode whose gradient unfolding has the largest dominant singular
   value (or, with the cheap rule, the smallest matrix dimension),
3. takes that unfolding's top singular triplets, up to the per-iteration
   rank allowance, from the eigendecomposition of its small-side Gram matrix
   (accurate down to about ``sqrt(eps) * sigma_1``; triplets below
   ``_SIGMA_EPS * sigma_1`` are dropped as unresolved), normalizes them so
   the step's unfolding has nuclear norm ``beta``, and folds them back into
   a step tensor ``S``,
4. takes an exact line-search step ``X <- X - gamma * S``, and
5. charges the step's rank to that mode's ledger, which counts against the
   global budget.

The state is the dense iterate (desk-scale tensors) and the per-mode rank
ledger, which is all a Frank-Wolfe step reads: the step's factors are folded
into the iterate and not kept, and the active modes are those whose ledger is
below the smaller dimension of their unfolding.

Mode selection and the step's SVD do not depend on the rank budget, so
:func:`complete_sweep` solves a list of budgets in one pass, bitwise as if
each ran alone; :func:`complete` is its one-budget case.

Each step's observed correlation with the residual is ``b_bar = <grad, S> =
sum_i w_i sigma_i > 0`` while the gradient is nonzero, so the exact line
search finds ``gamma > 0`` on every real input, and the loop has no retry.
The step size scales as ``1 / beta``, so the product ``gamma * beta`` and the
whole trajectory are invariant to the choice of ``beta`` (up to
floating-point rounding).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .svd import SvdTriplet, dominant_sigma, truncated_svd

# ``unfold`` is not called here; perfbench/tracing.py wraps it in this namespace
from .tensors import SparseTensor, UnfoldSpec, fold, unfold, validate_shape  # noqa: F401

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
    "complete_sweep",
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
# unfolding are treated as zero and never appended as components. The Gram
# route of ``truncated_svd`` resolves singular values only down to about
# ``sqrt(eps) * sigma_1`` (~1.5e-8); its trailing values on exactly
# rank-deficient matrices measure 1e-8 to 3e-8 of ``sigma_1`` (shapes 3x1e6
# to 1280x384), so the cut sits a factor of ~4 above that noise.
_SIGMA_EPS = 1e-7
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
    ``positions[k]`` lists those places (F-order flat indices), found once per
    solve in O(nnz): an entry's place is its multi-index dotted with per-axis
    weights, the F-order strides of the unfolding's axis order
    (:meth:`UnfoldSpec.axes_order`, the order :func:`unfold` transposes to).
    """

    def __init__(self, t: SparseTensor, shift: int):
        self.dims: dict[int, tuple[int, int]] = {}
        self.positions: dict[int, np.ndarray] = {}
        for k in range(1, len(t.shape) + 1):
            spec = UnfoldSpec(k, shift)
            self.dims[k] = spec.matrix_dims(t.shape)
            perm = spec.axes_order(len(t.shape))
            weights = np.empty(len(perm), dtype=np.intp)
            weights[perm] = np.cumprod([1] + [t.shape[p] for p in perm[:-1]])
            self.positions[k] = t.indices @ weights

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
    are transposes, so the second reuses the first's sigma (and, tied,
    cannot win). Only the best candidate's unfolding is kept alive.
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
        if twins and twin in sigma:
            sigma[k] = sigma[twin]
            continue
        m = grads.matrix(k, residual)
        sigma[k] = dominant_sigma(m)
        if best_m is None or sigma[k] > sigma[best]:
            best, best_m = k, m
        del m
    return best, best_m


def gradient_step(
    trip: SvdTriplet,
    k_star: int,
    r_k: int,
    beta: float,
    update_rule: str = UPDATE_MULTI,
) -> GradientStep:
    """Best-correlated step of nuclear norm ``beta`` along mode ``k_star``,
    from ``trip``, the top singular triplets of the gradient's mode-``k_star``
    unfolding (at least ``r_k`` of them; one for the rank-1 rule).

    The multi-rank rule keeps the top ``r_k`` singular triplets of the
    gradient unfolding, rescaled so the weights sum to ``beta``; the rank-1
    rule keeps the leading pair with weight ``beta`` and discards the
    singular-value structure. Trailing singular values below
    ``_SIGMA_EPS * sigma_1``, which the SVD does not resolve, are dropped
    rather than appended as components, so the returned rank may be below
    ``r_k``. The triplets beyond ``r_k`` are not
    read, so one SVD serves every allowance up to its size.
    """
    r_want = 1 if update_rule == UPDATE_RANK_ONE else r_k
    if not 1 <= r_want <= trip.sigma.size:
        raise ValueError(f"r_k {r_k} out of range 1..{trip.sigma.size}")
    if trip.sigma[0] <= 0.0:
        raise ZeroGradientError("gradient unfolding is numerically zero")
    sigma = trip.sigma[:r_want]
    keep = sigma > sigma[0] * _SIGMA_EPS
    u, sig, v = trip.u[:, :r_want][:, keep], sigma[keep], trip.v[:, :r_want][:, keep]
    if update_rule == UPDATE_RANK_ONE:
        return GradientStep(k_star, u, np.array([beta]), v)
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


def apply_update(
    state: FwState, step: GradientStep, gamma: float, s: np.ndarray, fork: bool = False
) -> FwState:
    """Apply ``x <- x - gamma * s``, with ``s`` the step's dense tensor, and
    charge the step's rank to its mode; return the updated state.

    ``s`` is spent: it is scaled by ``-gamma`` in place and added to the
    iterate (``x + (-gamma) * s`` is bitwise ``x - gamma * s``), so no
    tensor-sized temporary is made. With ``fork`` the sum goes to a new state
    with its own iterate and ledger, and ``state`` is left as it was.

    The rank ledger always advances by the step's rank; a ``gamma == 0``
    step leaves the iterate unchanged.
    """
    s *= -gamma
    if fork:
        state = FwState(np.add(state.x, s, out=np.empty_like(state.x)),
                        dict(state.consumed), state.config)
    else:
        state.x += s
    if not np.isfinite(state.x).all():
        raise FloatingPointError(
            f"non-finite iterate after mode-{step.mode} update (gamma={gamma!r})"
        )
    state.consumed[step.mode] += step.rank
    return state


def update_rank_budget(state: FwState, k: int, budget: int | None = None) -> int:
    """Per-iteration rank allowance for mode ``k``.

    ``min(rows - R_k, cols - R_k, budget - total_consumed)`` floored at zero:
    zero when mode ``k`` is saturated or the budget is spent. ``budget``
    defaults to the state's ``config.rank_budget``.
    """
    if budget is None:
        budget = state.config.rank_budget
    rows, cols = UnfoldSpec(k, state.config.shift).matrix_dims(state.x.shape)
    consumed = state.consumed[k]
    return max(min(rows - consumed, cols - consumed, budget - state.consumed_total()), 0)


def complete(t: SparseTensor, cfg: FwConfig) -> tuple[FwState, list[TraceRow]]:
    """Run the solver on observed tensor ``t`` with ``cfg.rank_budget``: the
    one-budget case of :func:`complete_sweep`.

    Returns the final state and the per-iteration trace. The trace starts at
    the exact RSE 1.0 baseline (the iterate starts at zero) and records, for
    every applied step, the observed-entry RSE, wall-clock time since the
    solve started, the selected mode, and the step size both raw and
    multiplied by ``beta``.
    """
    [(_, state, trace)] = complete_sweep(t, cfg, (cfg.rank_budget,))
    return state, trace


def complete_sweep(
    t: SparseTensor, cfg: FwConfig, budgets: Iterable[int]
) -> Iterator[tuple[int, FwState, list[TraceRow]]]:
    """Run the solver on observed tensor ``t`` once for every rank budget in
    ``budgets``, with ``cfg``'s other settings (``cfg.rank_budget`` is not
    read).

    Each step selects a mode, takes its rank allowance, builds the step
    tensor once, line-searches it and applies it. The gradient unfoldings are
    scattered from the residual, and the selected one is handed to the step.
    A budget's run stops at the first of: the RSE floor, its budget spent, no
    active mode, a zero gradient, a ``gamma == 0`` step, or ``max_iter``
    steps.

    The budgets walk a tree: mode selection and one SVD (sized for the
    largest allowance, sliced for the others) run once per node, budgets
    whose allowances agree share the step, and the path forks, each branch
    with its own copy of the iterate and ledger, where they differ (never
    under the rank-1 rule). The walk is depth-first, so each branch is done
    and freed before its sibling starts.

    Yields ``(budget, state, trace)`` once per distinct budget as its run
    ends: bitwise what :func:`complete` gives for that budget alone, except
    that ``elapsed_s`` counts from the start of the sweep. Each state owns
    its iterate and carries its budget in its config. Bad input, including
    an empty or invalid budget list, raises ``ValueError`` at the call.
    """
    if t.nnz == 0:
        raise ValueError("observed tensor has no entries")
    t_norm = float(np.linalg.norm(t.values))
    if t_norm == 0.0:
        raise ValueError("observed values are all zero; nothing to fit")
    configs = {b: replace(cfg, rank_budget=b) for b in sorted(set(budgets))}
    if not configs:
        raise ValueError("no rank budget given")
    state = FwState.initial(t.shape, cfg)
    start = time.perf_counter()
    grads = GradientUnfoldings(t, cfg.shift)
    rank_one = cfg.update_rule == UPDATE_RANK_ONE

    def finish(state, trace, budgets, live):
        """Results for ``budgets``, whose runs end at ``state``. They get
        copies, except that when the path ends here (``live``) the last one
        takes the path's own state."""
        for i, b in enumerate(budgets):
            own = live and i == len(budgets) - 1
            x, rows = (state.x, trace) if own else (state.x.copy(), list(trace))
            yield b, FwState(x, dict(state.consumed), configs[b]), rows

    def advance(state, step, residual, it, fork):
        """``step`` line-searched and applied (to a new state when ``fork``):
        the new state, residual, RSE and trace row; ``None`` when the line
        search gives ``gamma == 0``."""
        s = step.dense(t.shape, cfg.shift)
        gamma = line_search(residual, t.gather(s))
        if gamma == 0.0:
            return None
        state = apply_update(state, step, gamma, s, fork)
        residual = t.gather(state.x) - t.values
        rse = float(np.linalg.norm(residual)) / t_norm
        row = TraceRow(it, rse, time.perf_counter() - start, step.mode, gamma, gamma * cfg.beta)
        return state, residual, rse, row

    def walk(state, budgets, residual, rse, trace, first):
        """Run the sorted ``budgets`` on from ``state``, yielding each result."""
        for it in range(first, cfg.max_iter + 1):
            active = state.active
            if rse < _RSE_FLOOR or not active:
                break
            spent = state.consumed_total()
            done = [b for b in budgets if b <= spent]
            budgets = budgets[len(done):]
            yield from finish(state, trace, done, live=not budgets)
            if not budgets:
                return
            k, m = select_mode(grads, residual, cfg, active)
            # each budget's allowance is >= 1: k is active and budget remains
            groups = [(r, list(group)) for r, group in groupby(
                budgets, lambda b: 1 if rank_one else update_rank_budget(state, k, b))]
            trip = truncated_svd(m, groups[-1][0])  # allowances rise with the budget
            del m  # free the unfolding before any step tensor is built
            try:
                steps = [(gradient_step(trip, k, r, cfg.beta, cfg.update_rule), group)
                         for r, group in groups]
            except ZeroGradientError:
                break
            *forks, (step, budgets) = steps
            for fork_step, group in forks:
                moved = advance(state, fork_step, residual, it, fork=True)
                if moved is None:
                    yield from finish(state, trace, group, live=False)
                    continue
                child, child_residual, child_rse, row = moved
                del moved
                yield from walk(child, group, child_residual, child_rse, trace + [row], it + 1)
                del child, child_residual
            moved = advance(state, step, residual, it, fork=False)
            if moved is None:
                break
            state, residual, rse, row = moved
            trace.append(row)
        yield from finish(state, trace, budgets, live=True)

    residual = t.gather(state.x) - t.values
    rse = float(np.linalg.norm(residual)) / t_norm
    return walk(state, list(configs), residual, rse, [TraceRow(0, 1.0, 0.0, 0, 0.0, 0.0)], 1)


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
