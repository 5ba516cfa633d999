"""Rank-budgeted tensor completion over circular unfoldings by greedy rank pursuit.

The solver minimizes ``F(X) = 0.5 * ||X(mask) - T(mask)||_F^2`` starting from
``X = 0`` by FW-style (Frank-Wolfe-style) greedy rank pursuit: every step is
taken whole with an exact, uncapped line search, with no norm ball and no
``(1 - gamma)`` shrink. Each iteration:

1. builds the circular unfoldings of the gradient tensor (the observed
   residual at the observed positions, zero elsewhere) straight from the
   residual, never forming the dense gradient,
2. picks the mode whose gradient unfolding has the largest dominant singular
   value (the latent-trace-norm oracle). The residual is scaled once by an
   exact power of two, and each candidate's Gram matrix is built from its
   already-scaled unfolding. Candidates go cheapest first, by the smaller
   unfolding dimension; one whose Frobenius bound ``sigma_1 <=
   ||G||_F**(1/2)``, widened by ``_PRUNE_MARGIN``, falls below the best
   sigma so far cannot win and skips its eigensolve,
3. takes that unfolding's top singular triplets, up to the per-iteration
   rank allowance, from the eigendecomposition of the Gram matrix step 2 formed
   (accurate down to about ``sqrt(eps) * sigma_1``; triplets below
   ``_SIGMA_EPS * sigma_1`` are dropped as unresolved), and normalizes them
   so the step's unfolding has nuclear norm ``_STEP_SCALE``: the step tensor
   ``S`` in factored form,
4. takes an exact line-search step ``X <- X - gamma * S``, and
5. charges the step's rank to that mode's ledger, which counts against the
   global budget.

Steps 4 and 5, with the finite check and the trace row, are one code path
for every step a sweep applies; a zero gradient ends the solve at step 3.

The state is the log of applied ``(step, gamma)`` pairs and the per-mode rank
ledger. The loop never forms the dense iterate: it evaluates each step at the
observed entries only, straight from its factors, and keeps the iterate's
values there, ``x_obs``, current with the same two roundings the dense update
``X += S * -gamma`` makes, so ``x_obs`` stays bitwise what a gather of the
iterate gives. The dense iterate is built from the log, by that same update
per step, on the first read of :attr:`FwState.x`. The active modes are those
whose ledger is below the smaller dimension of their unfolding.

Mode selection and the step's SVD do not depend on the rank budget, so
:func:`complete_sweep` solves a list of budgets in one pass, bitwise as if
each ran alone; :func:`complete` is its one-budget case.

Each step's observed correlation with the residual is ``b_bar = <grad, S> =
sum_i w_i sigma_i > 0`` while the gradient is nonzero, so the exact line
search finds ``gamma > 0`` on every real input, and the loop has no retry.
The step size scales as ``1 / _STEP_SCALE``, so the product ``gamma *
_STEP_SCALE`` and the whole trajectory do not depend on the scale (up to
floating-point rounding).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .svd import Gram, SvdTriplet, dominant_sigma, truncated_svd

# ``unfold`` is not called here; perfbench/tracing.py wraps it in this namespace
from .tensors import SparseTensor, UnfoldSpec, fold, unfold, validate_shape  # noqa: F401

__all__ = ["FwConfig", "FwState", "GradientStep", "TraceRow", "complete", "complete_sweep"]

UPDATE_MULTI = "multi"
UPDATE_RANK_ONE = "rank1"

# Relative threshold below which trailing singular values of a gradient
# unfolding are treated as zero: dropped from the step, so never charged to
# the rank ledger. The Gram route of ``truncated_svd`` resolves singular
# values only down to about ``sqrt(eps) * sigma_1`` (~1.5e-8); its trailing
# values on exactly rank-deficient matrices measure 1e-8 to 3e-8 of
# ``sigma_1`` (shapes 3x1e6 to 1280x384), so the cut sits a factor of ~4
# above that noise.
_SIGMA_EPS = 1e-7
# Relative slack on the Frobenius bound before it rules a candidate out of
# mode selection. Both the bound and the exact sigma carry rounding: the
# Frobenius norm of an n x n Gram matrix at most ~n**2 * eps relative, the
# eigensolve ~n * eps, and the bound's square root halves both. So 1e-6
# covers any Gram side below ~9e4, far past desk scale, while the bound
# separates the modes it prunes by percents (2.7% to 11% on the 128x128x3x10
# benchmark fixture, seed 1, where it prunes 8 of 12 steps' dear candidate).
_PRUNE_MARGIN = 1e-6
# Nuclear norm of every step's unfolding. The line search divides it back out
# of ``gamma``, so any positive value gives the same iterates up to rounding;
# 1e5 keeps them bitwise what the solver has always computed.
_STEP_SCALE = 1e5
# Observed-entry RSE below which an exactly recoverable input is done: further
# steps would only churn at the numerical noise floor.
_RSE_FLOOR = 1e-12


@dataclass
class FwConfig:
    """Solver configuration, shared by every rank budget of a solve.

    ``shift`` is the circular-unfolding shift ``d``. The rank budget, which
    caps the total rank charged to the ledger across all modes, is an
    argument of each solve.
    """

    shift: int = 1
    update_rule: str = UPDATE_MULTI

    def __post_init__(self):
        if self.shift < 1:
            raise ValueError("shift must be >= 1")
        if self.update_rule not in (UPDATE_MULTI, UPDATE_RANK_ONE):
            raise ValueError(f"unknown update_rule {self.update_rule!r}")


@dataclass
class TraceRow:
    iteration: int
    rse: float
    elapsed_s: float
    mode: int
    gamma: float


@dataclass
class GradientStep:
    """One step tensor in factored form: an atom of the greedy rank pursuit,
    not a point of a norm ball.

    ``weights`` are the singular values of the step's ``mode`` unfolding; they
    sum to ``_STEP_SCALE`` by construction (for the rank-1 rule the single
    weight is ``_STEP_SCALE`` itself), a scale the line search divides back
    out of ``gamma``.
    """

    mode: int
    u: np.ndarray
    weights: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    def matrix(self, out: np.ndarray | None = None) -> np.ndarray:
        """The step's mode unfolding, ``(u * weights) @ v.T``, written into
        ``out`` (a C-contiguous matrix of its shape) if given."""
        return np.matmul(self.u * self.weights, self.v.T, out=out)

    def dense(self, shape, shift: int) -> np.ndarray:
        """Materialize the step tensor ``S``."""
        return fold(self.matrix(), UnfoldSpec(self.mode, shift), shape)


@dataclass
class FwState:
    """Solver state: the log of applied steps and the per-mode rank ledger.

    ``steps`` lists the applied ``(GradientStep, gamma)`` pairs in order,
    as :func:`apply_update` logs them; ``shape`` and ``shift`` are what
    replaying them takes. The iterate :attr:`x` is derived from the log.
    ``consumed[k]`` is the rank charged against the global budget by steps
    along mode ``k``; ``caps[k]``, the smaller dimension of the mode-``k``
    unfolding, is the most it can reach. The replay of ``x`` works in the
    state's :class:`_Workspace`, which a copy of the state shares.
    """

    shape: tuple[int, ...]
    shift: int
    steps: list[tuple[GradientStep, float]]
    consumed: dict[int, int]
    caps: dict[int, int]
    _ws: _Workspace = field(repr=False)
    _x: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def initial(cls, shape, shift: int, ws: _Workspace | None = None) -> "FwState":
        """The zero state, working in ``ws``, else in a workspace of its own
        that gives it (and each copy of it) a fresh ``x``."""
        shape = validate_shape(shape)
        n = len(shape)
        if not 1 <= shift <= n - 1:
            raise ValueError(f"shift {shift} invalid for order {n}")
        caps = {k: min(UnfoldSpec(k, shift).matrix_dims(shape)) for k in range(1, n + 1)}
        ws = ws or _Workspace(shape, lend_x=False)
        return cls(shape, shift, [], dict.fromkeys(caps, 0), caps, ws)

    @property
    def x(self) -> np.ndarray:
        """The dense iterate ``-sum(gamma * S)`` over the log, built on the
        first read and kept until the next step is logged. Each step is
        replayed as the update ``x += S * -gamma`` from ``x = 0``, in log
        order, so ``x`` does not depend on when it is read. The first step's
        product is written straight into ``x``, then ``0.0`` is added to it:
        bitwise the sum from zero, whose ``-0.0`` entries read ``+0.0``. The
        replay forms each product in the workspace's scratch array and scales
        it there, except the last step's while the workspace's product still
        holds it. ``x`` is the workspace's own array if it lends one, so the
        next replay in that workspace overwrites it, else a fresh one. A
        non-finite entry raises ``FloatingPointError``."""
        if self._x is None:
            ws = self._ws
            x = np.empty(self.shape) if ws.x is None else ws.x
            last = len(self.steps) - 1
            for i, (step, gamma) in enumerate(self.steps):
                spec = UnfoldSpec(step.mode, self.shift)
                dims = spec.matrix_dims(self.shape)
                if i == last and ws.formed() is step:
                    s, out = fold(ws.product.reshape(dims), spec, self.shape), ws.tmp
                else:
                    s = out = fold(step.matrix(ws.tmp.reshape(dims)), spec, self.shape)
                if i == 0:
                    np.multiply(s, -gamma, out=x)
                    x += 0.0
                else:
                    x += np.multiply(s, -gamma, out=out)
            if last < 0:
                x.fill(0.0)
            if not np.isfinite(x).all():
                raise FloatingPointError(f"non-finite iterate from {len(self.steps)} logged steps")
            self._x = x
        return self._x

    @property
    def active(self) -> set[int]:
        """Modes whose unfolding still has rank to give (``consumed[k]`` below
        ``caps[k]``)."""
        return {k for k, c in self.consumed.items() if c < self.caps[k]}

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

    Every unfolding has ``prod(shape)`` entries, so the scatters recycle two
    flat buffers, the slots 0 and 1: :meth:`matrix` scatters into the slot it
    is given, after zeroing only the positions of the unfolding that slot
    held last, unless the slot held the same mode (the scatter then
    overwrites each of those positions), so a call overwrites the unfolding
    it last handed out from that slot. So at most two buffers are ever
    allocated. :meth:`point` turns the unfoldings to another tensor of the
    same shape and keeps the buffers, so a :class:`_Workspace` kept for an
    online run scatters every window into the same two.
    """

    def __init__(self, t: SparseTensor, shift: int):
        self.shift = shift
        self._slots: list[tuple[np.ndarray, int | None] | None] = [None, None]
        self.point(t)

    def point(self, t: SparseTensor) -> None:
        """Index the observed entries of ``t``, of the shape the buffers
        were made for, and zero each buffer where it held an unfolding of the
        tensor pointed at before."""
        for i, held in enumerate(self._slots):
            if held is not None:
                flat, last = held
                if last is not None:
                    flat[self.positions[last]] = 0.0
                self._slots[i] = flat, None
        self.dims: dict[int, tuple[int, int]] = {}
        self.positions: dict[int, np.ndarray] = {}
        self._size = int(np.prod(t.shape))
        self._places: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in range(1, len(t.shape) + 1):
            spec = UnfoldSpec(k, self.shift)
            self.dims[k] = spec.matrix_dims(t.shape)
            perm = spec.axes_order(len(t.shape))
            weights = np.empty(len(perm), dtype=np.intp)
            weights[perm] = np.cumprod([1] + [t.shape[p] for p in perm[:-1]])
            self.positions[k] = t.indices @ weights

    def matrix(self, k: int, residual: np.ndarray, slot: int) -> np.ndarray:
        """Mode-``k`` unfolding of the gradient whose observed values are
        ``residual`` (:func:`select_mode` passes the residual already scaled
        for its :class:`Gram`), held in buffer ``slot``: bitwise and in
        (F-contiguous) layout what :func:`unfold` gives for that dense
        gradient."""
        if self._slots[slot] is None:
            flat = np.zeros(self._size)
        else:
            flat, last = self._slots[slot]
            if last not in (k, None):  # the scatter overwrites every position of mode k
                flat[self.positions[last]] = 0.0
        flat[self.positions[k]] = residual
        self._slots[slot] = flat, k
        return flat.reshape(self.dims[k], order="F")

    def step_values(self, step: GradientStep,
                    out: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The step tensor's values at the observed entries, equal as floats
        (bitwise up to the sign of zero) to a gather of
        :meth:`GradientStep.dense`, with no fold or gather; and the product
        :meth:`GradientStep.matrix` when it was formed (in the flat ``out``),
        else ``None``.

        A rank-1 step's values are formed at the observed entries alone: at
        row ``i`` and column ``j`` of its unfolding, the one rounding ``(u *
        weights)[i] * v[j]`` that the product makes. A higher-rank step's are
        read from the product. Each entry's row and column in the mode-``k``
        unfolding are found on the first step along ``k``."""
        k = step.mode
        if k not in self._places:
            cols, rows = np.divmod(self.positions[k], self.dims[k][0])
            self._places[k] = rows, cols
        rows, cols = self._places[k]
        if step.rank == 1:
            return np.take(step.u[:, 0] * step.weights[0], rows) * np.take(step.v[:, 0], cols), None
        m = step.matrix(out.reshape(self.dims[k]))
        return m[rows, cols], m


def select_mode(
    grads: GradientUnfoldings, residual: np.ndarray, cfg: FwConfig, active: set[int]
) -> tuple[int, Gram]:
    """Pick the unfolding mode for the next step; return it with the
    :class:`Gram` of its gradient unfolding, which the step factors.

    The pick is the argmax of the dominant singular value of the gradient's
    circular unfolding over the active modes, ties toward the smallest mode
    index.

    Every unfolding holds the residual's entries and zeros, so all share the
    residual's largest entry: the residual is scaled once and each Gram is
    made from its already-scaled unfolding. The candidates are evaluated
    cheapest first, by the smaller unfolding dimension (the side of the Gram
    matrix). Each evaluated candidate's Gram is formed, but its eigensolve
    is skipped when the Frobenius bound ``sigma_1 <= ||G||_F**(1/2)``
    (:mod:`tenscache.svd`), widened by ``_PRUNE_MARGIN``, falls below the
    best sigma found so far: such a candidate cannot win, nor tie. So the
    pick is the exhaustive argmax, whatever the order.

    At ``N == 2 * shift`` the mode-``k`` and mode-``(k + shift)`` unfoldings
    are transposes, so the second inherits the first's outcome, pruned or
    exact (and, tied, cannot win). The best candidate's unfolding keeps its
    slot of ``grads`` and each other one is scattered into the free slot, so
    the returned :class:`Gram` reads its unfolding until the next call.
    """
    if not active:
        raise ValueError("active mode set is empty")
    exp = Gram.exponent(residual)
    scaled = np.ldexp(residual, -exp)
    twins = len(grads.dims) == 2 * cfg.shift
    best, best_sigma, best_gram, free = 0, -np.inf, None, 0
    for k in sorted(active, key=lambda j: (min(grads.dims[j]), j)):
        if twins and k - cfg.shift in active:
            continue  # its twin, of equal cost and smaller index, came first
        gram = Gram(grads.matrix(k, scaled, free), exp)
        bound = np.ldexp(math.sqrt(np.linalg.norm(gram.g)) * (1.0 + _PRUNE_MARGIN), exp)
        if bound >= best_sigma:
            sigma = dominant_sigma(gram)
            if sigma > best_sigma or (sigma == best_sigma and k < best):
                best, best_sigma, best_gram, free = k, sigma, gram, 1 - free
    return best, best_gram


def gradient_step(
    trip: SvdTriplet,
    k_star: int,
    r_k: int,
    update_rule: str = UPDATE_MULTI,
) -> GradientStep:
    """Best-correlated step of nuclear norm ``_STEP_SCALE`` along mode ``k_star``,
    from ``trip``, the top singular triplets of the gradient's mode-``k_star``
    unfolding (at least ``r_k`` of them; one for the rank-1 rule).

    The multi-rank rule keeps the top ``r_k`` singular triplets of the
    gradient unfolding, rescaled so the weights sum to ``_STEP_SCALE``; the
    rank-1 rule keeps the leading pair with weight ``_STEP_SCALE`` and
    discards the singular-value structure. Trailing singular values below
    ``_SIGMA_EPS * sigma_1``, which the SVD does not resolve, are dropped, so
    the returned rank may be below ``r_k``. The triplets beyond ``r_k`` are
    not read, so one SVD serves every allowance up to its size. ``sigma`` is
    nonincreasing, so the kept triplets are a prefix: the step's ``u`` and
    ``v`` are views of the triplets' columns, not copies.
    """
    r_want = 1 if update_rule == UPDATE_RANK_ONE else r_k
    if not 1 <= r_want <= trip.sigma.size:
        raise ValueError(f"r_k {r_k} out of range 1..{trip.sigma.size}")
    if trip.sigma[0] <= 0.0:
        raise ValueError("gradient unfolding is numerically zero")
    sigma = trip.sigma[:r_want]
    n = int(np.count_nonzero(sigma > sigma[0] * _SIGMA_EPS))
    u, sig, v = trip.u[:, :n], sigma[:n], trip.v[:, :n]
    if update_rule == UPDATE_RANK_ONE:
        return GradientStep(k_star, u, np.array([_STEP_SCALE]), v)
    return GradientStep(k_star, u, _STEP_SCALE / float(sig.sum()) * sig, v)


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


def apply_update(state: FwState, step: GradientStep, gamma: float) -> None:
    """Apply ``x <- x - gamma * S`` to ``state``, with ``S`` the tensor of
    ``step``: log the pair and charge the step's rank to its mode.

    The rank ledger always advances by the step's rank. A ``gamma == 0``
    step leaves the iterate unchanged (``x`` is never ``-0.0``), so it is not
    logged.
    """
    if gamma != 0.0:
        state.steps.append((step, gamma))
        state._x = None
    state.consumed[step.mode] += step.rank


def update_rank_budget(state: FwState, k: int, budget: int) -> int:
    """Per-iteration rank allowance for mode ``k`` under rank budget ``budget``.

    ``min(rows - R_k, cols - R_k, budget - total_consumed)`` floored at zero,
    with ``min(rows, cols)`` read from ``state.caps[k]``: zero when mode ``k``
    is saturated or the budget is spent.
    """
    return max(min(state.caps[k] - state.consumed[k], budget - state.consumed_total()), 0)


def complete(t: SparseTensor, cfg: FwConfig, budget: int) -> tuple[FwState, list[TraceRow]]:
    """Run the solver on observed tensor ``t`` with rank budget ``budget``:
    the one-budget case of :func:`complete_sweep`.

    The solver is FW-style greedy rank pursuit: each step adds the gradient
    unfolding's top singular directions with an exact, uncapped line search,
    so the step's fixed scale only rescales ``gamma``.

    Returns the final state and the per-iteration trace. The trace starts at
    the exact RSE 1.0 baseline (the iterate starts at zero) and records, for
    every applied step, the observed-entry RSE, wall-clock time since the
    solve started, the selected mode and the step size ``gamma``.
    """
    [(_, state, trace)] = complete_sweep(t, cfg, (budget,))
    return state, trace


def complete_sweep(
    t: SparseTensor, cfg: FwConfig, budgets: Iterable[int], *, _workspace: _Workspace | None = None
) -> Iterator[tuple[int, FwState, list[TraceRow]]]:
    """Run the solver on observed tensor ``t`` with ``cfg`` once for every
    rank budget in ``budgets``.

    Each step selects a mode, takes its rank allowance and factors the
    selection's Gram matrix; the gradient unfoldings are scattered from the
    residual into the two buffers :class:`GradientUnfoldings` recycles.
    Every step, shared or a budget's own last one, is then applied in one
    place: evaluated at the observed entries, line-searched and, unless
    ``gamma == 0``, logged, checked finite and traced. A budget's run stops
    at the first of: the RSE floor (read from its last trace row), its
    budget spent, no active mode, a zero gradient (``sigma_1 == 0``) or a
    ``gamma == 0`` step. Every applied step charges at least rank 1 (the
    loop runs only while the largest budget has rank left, and a step keeps
    its leading triplet), so a run takes at most ``max(budgets)`` steps.

    The budgets share one path: mode selection and one SVD, sized for the
    largest budget's allowance, run once per step, and every budget with at
    least the step's rank left takes that step. A budget with less left
    (never under the rank-1 rule) takes its own last step, sliced from the
    same triplets and applied to a copy of the step log and ledger, which
    spends its budget. The sweep forms no dense iterate: a yielded state
    builds its own on the first read of ``state.x``.

    Yields ``(budget, state, trace)`` once per distinct budget, in rising
    order, as its run ends: bitwise what :func:`complete` gives for that
    budget alone, except that ``elapsed_s`` counts from the start of the
    sweep. Each state owns its step log and ledger. Bad input, including
    an empty or invalid budget list, raises ``ValueError`` at the call; a
    solve that blows up raises ``FloatingPointError`` at the step.

    The sweep works in a :class:`_Workspace`: ``_workspace``, which the
    online loop keeps for its run, else one made for the sweep. A sweep's
    own workspace gives each state a fresh ``x``, which the state owns. The
    online loop's lends its ``x``: a yielded state's ``x`` must then be read
    before the sweep is resumed, if at all, the next state's overwrites it,
    and the caller drops the states before the next window.
    """
    if t.nnz == 0:
        raise ValueError("observed tensor has no entries")
    t_norm = float(np.linalg.norm(t.values))
    if t_norm == 0.0:
        raise ValueError("observed values are all zero; nothing to fit")
    budgets = sorted(set(budgets))
    if not budgets:
        raise ValueError("no rank budget given")
    if budgets[0] < 1:
        raise ValueError(f"rank budgets must be >= 1, got {budgets}")
    return _sweep(t, t_norm, cfg, budgets, FwState.initial(t.shape, cfg.shift, _workspace))


class _Workspace:
    """The window-sized arrays a solve works in, all of one shape and shift:
    made for one sweep, or once for an online run and lent to the solve of
    each of its windows.

    - ``grads``: the :class:`GradientUnfoldings` with its two scatter
      buffers, pointed at each solve's tensor in turn;
    - ``product``: a multi-rank step's unfolding product, flat, and
      ``formed``, a weak reference to the step it was formed for (dead
      before the first), so a replay reuses it without keeping that step
      alive after the states that logged it;
    - ``x``: the replayed iterate if ``lend_x``, else ``None``: each replay
      then makes its own;
    - ``tmp``: the replay's products and scaled products, and
      :func:`truncated_svd`'s per-column products. A replay runs only while
      the sweep waits at a yield or has ended, so the two uses never meet.

    ``product`` and ``tmp`` are made on first use. Made up front, the two
    took heap memory freed before the solve, which its first transients
    would have reused: a rank-1 sweep of the benchmark's ``complete``
    fixture, after the input had been read and dropped once, took ~1,400
    more minor page faults.
    """

    def __init__(self, shape: tuple[int, ...], lend_x: bool = True):
        self.shape = shape
        self.grads: GradientUnfoldings | None = None
        self.formed = lambda: None
        self.x = np.empty(shape) if lend_x else None

    @functools.cached_property
    def product(self) -> np.ndarray:
        return np.empty(math.prod(self.shape))

    @functools.cached_property
    def tmp(self) -> np.ndarray:
        return np.empty(self.shape)

    def unfoldings(self, t: SparseTensor, shift: int) -> GradientUnfoldings:
        """The gradient unfoldings of ``t``, in the buffers of the last solve's."""
        if self.grads is None:
            self.grads = GradientUnfoldings(t, shift)
        else:
            self.grads.point(t)
        return self.grads


def _sweep(t, t_norm, cfg, budgets, state):
    """The loop of :func:`complete_sweep` from the zero ``state`` over the
    sorted list ``budgets``, from which each budget is taken as its run ends,
    in the arrays of ``state``'s workspace."""

    def snapshot():
        return replace(state, steps=list(state.steps), consumed=dict(state.consumed))

    def take(st, tr, step):
        """Evaluate ``step`` at the observed entries and line-search it. At
        ``gamma == 0`` return ``None``; else log it in ``st``, append its row
        to ``tr`` and return the observed iterate and residual after it. The
        iterate takes the two roundings of :attr:`FwState.x`'s update, so it
        stays bitwise a gather of ``st.x``; a non-finite value raises
        ``FloatingPointError``."""
        s_obs, m = grads.step_values(step, ws.product)
        if m is not None:
            ws.formed = weakref.ref(step)
        gamma = line_search(residual, s_obs)
        if gamma == 0.0:
            return None
        apply_update(st, step, gamma)
        obs = x_obs + s_obs * -gamma
        if not np.isfinite(obs).all():
            raise FloatingPointError(
                f"non-finite iterate after mode-{step.mode} update (gamma={gamma!r})")
        res = obs - t.values
        tr.append(TraceRow(it, float(np.linalg.norm(res)) / t_norm, time.perf_counter() - start,
                           step.mode, gamma))
        return obs, res

    start = time.perf_counter()
    ws = state._ws
    grads = ws.unfoldings(t, cfg.shift)
    x_obs = np.zeros(t.nnz)  # the iterate at the observed entries, kept current
    residual = x_obs - t.values
    trace = [TraceRow(0, 1.0, 0.0, 0, 0.0)]
    for it in itertools.count(1):
        active, spent = state.active, state.consumed_total()
        if trace[-1].rse < _RSE_FLOOR or not active or budgets[-1] <= spent:
            break
        while budgets[0] <= spent:
            yield budgets.pop(0), snapshot(), list(trace)
        k, gram = select_mode(grads, residual, cfg, active)
        r = 1 if cfg.update_rule == UPDATE_RANK_ONE else update_rank_budget(state, k, budgets[-1])
        trip = truncated_svd(gram, r, _work=ws.tmp.reshape(-1))
        del gram  # its unfolding stays in its slot of grads until the next selection
        if trip.sigma[0] <= 0.0:
            break  # a zero gradient: converged
        step = gradient_step(trip, k, r, cfg.update_rule)
        # budget b keeps min(b - spent, step.rank) triplets: with less left (never the
        # largest budget, whose allowance sized the SVD) it takes its own last step
        while budgets[0] - spent < step.rank:
            b = budgets.pop(0)
            own, own_trace = snapshot(), list(trace)
            take(own, own_trace, gradient_step(trip, k, b - spent, cfg.update_rule))
            yield b, own, own_trace
        after = take(state, trace, step)
        if after is None:
            break
        x_obs, residual = after
    for b in budgets[:-1]:
        yield b, snapshot(), list(trace)
    yield budgets[-1], state, trace
