"""Cache placement, hit-rate accounting, and the online per-slot loop.

Each scored slot follows the observe / place / deliver cycle: the sliding
window of the last ``tau`` observed demand slots is completed, taken raw, or
both, the next slot's shares are forecast per base station by every
configured predictor, each forecast's top ``cache_size`` files are placed,
and each placement is scored against the demands that then materialize.
Completion does not depend on the predictor, so each window is completed
once, by one sweep over every rank budget. An oracle placement (top files of
the realized demands themselves) is scored alongside, once per (slot, bs),
as the per-slot upper bound.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

# ``complete`` is not called here; perfbench/tracing.py wraps it in this namespace
from .completion import FwConfig, _Workspace, complete, complete_sweep  # noqa: F401
from .prediction import (DemandHistory, PredictorConfig, _clipped_shares, fit_predict,
                         normalize_demands)
from .tensors import SparseTensor

__all__ = [
    "OnlineConfig",
    "OnlineResult",
    "hit_rate",
    "mpc_place",
    "oracle_place",
    "run_online",
]


@dataclass
class OnlineConfig:
    """Online-loop configuration (window, predictors, placement, treatments).

    ``completion`` is the set of treatments to score, in output order:
    ``True`` scores the completed windows, ``False`` the raw ones.
    ``rank_budgets`` are the completion rank budgets: each window is solved
    once for all of them (see :func:`tenscache.completion.complete_sweep`),
    and every predictor is scored on each budget's completion. A raw
    treatment does not read them. ``shift`` is the circular-unfolding shift
    of the 4th-order (F, F, N_BS, tau) windows. Settings that no stream can
    satisfy raise ``ValueError`` here.
    """

    tau: int = 10
    order: int = 6
    cache_size: int = 32
    predictors: tuple[str, ...] = ("lp",)
    completion: tuple[bool, ...] = (True,)
    rank_budgets: tuple[int, ...] = (8,)
    shift: int = 1

    def __post_init__(self):
        if self.tau < self.order + 1:
            raise ValueError(f"tau={self.tau} too short for prediction order {self.order}; "
                             "need tau >= order + 1")
        if not self.predictors:
            raise ValueError("no predictor given")
        for p in self.predictors:
            PredictorConfig(self.order, p)  # an unknown predictor fails here, not in the loop
        if not self.completion:
            raise ValueError("no treatment given")
        if not 1 <= self.shift <= 3:
            raise ValueError(f"shift {self.shift} invalid for the 4th-order windows; "
                             "need 1 <= shift <= 3")
        if min(self.rank_budgets, default=0) < 1:
            raise ValueError(f"rank budgets must be >= 1, got {self.rank_budgets}")


@dataclass
class OnlineResult:
    """Hit rates of one online run, each an (S, N_BS) array over the scored
    slots and base stations.

    ``slots`` holds the S scored slot numbers (1-based), ``zero_demand``
    flags the (slot, bs) pairs without realized demand (scored 0 and left
    out of every average) and ``oracle`` the hindsight bound. ``cells`` maps
    each ``(predictor, completed, budget)`` to its hit rates; a raw cell
    reads no budget and has budget 0.
    """

    cfg: OnlineConfig
    slots: np.ndarray
    zero_demand: np.ndarray
    oracle: np.ndarray
    cells: dict[tuple[str, bool, int], np.ndarray]

    def average(self, key: tuple[str, bool, int] | None = None) -> float:
        """Mean hit rate of cell ``key`` (the oracle by default) over the
        (slot, bs) pairs with demand, in (slot, bs) order; 0 without any."""
        rates = self.oracle if key is None else self.cells[key]
        valid = rates[~self.zero_demand]
        return float(np.mean(valid)) if valid.size else 0.0

    def runs(self, repeat_raw: bool = False):
        """``(method, rank, key)`` per run: predictor-major, then in the
        configured treatment and budget orders. A raw run is listed at the
        first budget, or at every budget with ``repeat_raw``."""
        cfg = self.cfg
        for predictor in cfg.predictors:
            for completed in cfg.completion:
                method = f"{predictor}-{'completed' if completed else 'raw'}"
                ranks = cfg.rank_budgets if completed or repeat_raw else cfg.rank_budgets[:1]
                for rank in ranks:
                    yield method, rank, (predictor, completed, rank if completed else 0)


def mpc_place(shares: np.ndarray, capacity: int) -> np.ndarray:
    """0/1 placement vector caching the ``capacity`` files with the largest
    (predicted) shares.

    Ties break toward the smaller file index (stable sort on descending
    share), so placements are deterministic.
    """
    if capacity > shares.size:
        raise ValueError(f"capacity {capacity} exceeds library size {shares.size}")
    order = np.argsort(-shares, kind="stable")
    c = np.zeros(shares.size)
    c[order[:capacity]] = 1.0
    return c


def oracle_place(mass: np.ndarray, total: float, capacity: int) -> np.ndarray:
    """Hindsight-optimal placement: top files of the realized per-file demand
    ``mass`` (a slice's row sums, ``total`` their sum); uniform shares, hence
    the first ``capacity`` files, when there is no demand."""
    return mpc_place(mass if total > 0 else np.full(mass.size, 1.0 / mass.size), capacity)


def hit_rate(mass: np.ndarray, total: float, c: np.ndarray) -> float:
    """Cached share of the total weighted requests in one (bs, slot) slice.

    The slice is the (F, F) matrix of primary-by-recommended request counts;
    ``mass`` is its row sums (all mass in row ``f`` counts toward file ``f``,
    cached or not, exactly as the double-sum ratio aggregates) and ``total``
    its sum. A zero-demand slice scores 0.
    """
    if total == 0.0:
        return 0.0
    return float(mass @ c / total)


def _window_entries(entries, shape) -> tuple[np.ndarray, np.ndarray]:
    """The observed entries of the (F, F, N_BS, tau) window of ``shape``
    from its slots': ``entries`` holds each slot's observed C-order flat
    positions (rising) and their values, oldest slot first. Returns their
    indices and values in ``np.argwhere``'s order over the window: the
    window's C-order flat index is the position in the slot times ``tau``
    plus the slot's place ``t``, so the slots' lists are merged, the time
    index fastest."""
    tau = len(entries)
    flat = np.concatenate([seen * tau + t for t, (seen, _) in enumerate(entries)])
    order = np.argsort(flat, kind="stable")
    indices = np.stack(np.unravel_index(flat[order], shape), axis=1)
    return indices, np.concatenate([values for _, values in entries])[order]


def _completed_histories(shape, entries, fw_cfg: FwConfig, budgets, workspace: _Workspace):
    """``(keys, completed window's shares)`` per distinct completion, from
    one sweep: ``keys`` lists the ``(True, budget)`` cells it serves. Budgets
    whose step logs hold the same ``(step, gamma)`` pairs share one replay
    and one normalization. ``entries`` are the window's slots' observed
    entries (:func:`_window_entries`), the solver's only input; the sweep
    works in ``workspace``, so each state's ``x`` is read as the state
    arrives, clipped in place and dropped."""
    indices, values = _window_entries(entries, shape)
    if values.size == 0:
        yield [(True, b) for b in set(budgets)], normalize_demands(np.zeros(shape))
        return
    t = SparseTensor(shape, indices, values)
    keys, log = [], None
    for budget, state, _ in complete_sweep(t, fw_cfg, budgets, _workspace=workspace):
        if log is not None and not _same_log(state.steps, log):
            yield keys, history
            keys = []
        if not keys:
            x = state.x
            history = _clipped_shares(np.clip(x, 0.0, None, out=x))
        keys.append((True, budget))
        log = state.steps
    yield keys, history


def _same_log(a, b) -> bool:
    """Whether two step logs hold the same ``(step, gamma)`` pairs, hence
    replay to bitwise the same iterate."""
    return len(a) == len(b) and all(s is r and g == h for (s, g), (r, h) in zip(a, b))


class _Recent:
    """What the next scored slot needs of the ``tau`` slots before it.

    Each pushed slot's observed entries are found once, by one
    ``np.flatnonzero`` of its mask, in C order: per (file, bs), the
    recommendations rising. With a raw treatment, the slot's observed demand
    shares, (F, N_BS), are formed from them as it is pushed: bitwise those
    :func:`normalize_demands` gives any observed window holding the slot. A
    file's mass adds its clipped observed entries in the window's order;
    clipped entries are never ``-0.0``, so skipping the unobserved ``0.0``
    terms changes no partial sum. With a completed treatment, a ring keeps
    the last ``tau`` slots' observed positions and values, from which each
    window's observed tensor is merged, and one :class:`_Workspace` holds
    the window-sized arrays of every window's solve for the whole run. The
    ring takes 16 B per observed entry, a dense window and mask 9 B per
    entry: it is the smaller while under about 56% of a slot is observed.
    """

    def __init__(self, slot_shape, cfg: OnlineConfig):
        self.cfg, self.fw_cfg = cfg, FwConfig(shift=cfg.shift)
        self.shape = (*slot_shape, cfg.tau)
        self.shares = deque(maxlen=cfg.tau) if False in cfg.completion else None
        self.entries = self.workspace = None
        if True in cfg.completion:
            self.entries = deque(maxlen=cfg.tau)
            self.workspace = _Workspace(self.shape)

    def push(self, realized: np.ndarray, mask: np.ndarray) -> None:
        seen = np.flatnonzero(mask)
        observed = realized.reshape(-1)[seen]
        if self.shares is not None:
            f, _, n_bs = realized.shape
            # np.bincount adds each bin's weights in input order, from 0.0
            mass = np.bincount(seen // (f * n_bs) * n_bs + seen % n_bs,
                               weights=np.clip(observed, 0.0, None),
                               minlength=f * n_bs).reshape(f, n_bs)
            # the files in order, as the window's sum adds them (a plain sum over
            # an (F, 1) mass would add them pairwise)
            totals = np.cumsum(mass, axis=0)[-1:]
            with np.errstate(invalid="ignore", divide="ignore"):
                self.shares.append(np.where(totals > 0.0, mass / totals, 1.0 / f))
        if self.entries is not None:
            self.entries.append((seen, np.asarray(observed, dtype=np.float64)))

    def histories(self):
        """``(keys, history)`` per distinct history of the window, the raw
        one first; ``keys`` lists the ``(completed, budget)`` cells it
        serves."""
        if self.shares is not None:
            yield [(False, 0)], DemandHistory(np.stack(self.shares))
        if self.entries is not None:
            yield from _completed_histories(self.shape, self.entries, self.fw_cfg,
                                            self.cfg.rank_budgets, self.workspace)


def run_online(slots: Iterable[tuple[np.ndarray, np.ndarray]], cfg: OnlineConfig) -> OnlineResult:
    """Run the per-slot observe / complete / predict / place / score loop.

    ``slots`` yields one ``(realized, mask)`` pair per slot, in order: the
    realized (F, F, N_BS) demands, against which the slot is scored and the
    oracle placed, and a bool array of their shape, True where an entry is
    observed. The predictors and the solver read a slot only where it is
    observed. The loop holds only what the next scored slot needs of the
    slots before it: the last ``tau`` slots' raw shares, each normalized
    once as it arrives (with a raw treatment), and, with a completed one,
    the last ``tau`` slots' observed entries (positions and values), plus
    one workspace of window-sized arrays that every window's solve reuses.
    So its memory does not grow with the stream's length beyond the hit
    rates it returns, no dense copy of a window is formed, and after the
    first window the only window-sized array allocated is the SVD factor a
    step keeps: each window is solved from its observed entries, merged
    from its slots'.

    Slots ``tau+1 .. T`` (1-based) get scored, every treatment in
    ``cfg.completion`` in the same pass: each window is completed once for
    every budget in ``cfg.rank_budgets`` (one sweep), each distinct
    completion is normalized once, and every distinct history feeds every
    predictor in ``cfg.predictors`` once; the oracle scores each (slot, bs)
    once. A slot that is not a 3rd-order array of the first slot's shape, a
    mask that is not a bool array of its slot's shape, a negative realized
    demand in a scored slot, or a cache size the library cannot hold raises
    ``ValueError`` at that slot, and a stream of at most ``tau`` slots at its
    end; a failure inside the loop is re-raised as ``RuntimeError`` naming
    the scored slot, 1-based like every other slot error.
    """
    pred_cfgs = {p: PredictorConfig(cfg.order, p) for p in cfg.predictors}
    # the hit rates, in (slot, bs) order, and each (slot, bs)'s total demand
    cells = {(p, completed, budget): array("d") for p in cfg.predictors
             for completed in cfg.completion
             for budget in (cfg.rank_budgets if completed else (0,))}
    oracle, totals = array("d"), array("d")
    shape = recent = None
    n = 0
    for n, (realized, mask) in enumerate(slots, start=1):
        realized, mask = np.ascontiguousarray(realized), np.asarray(mask)
        if recent is None:
            shape = realized.shape
            if len(shape) != 3:
                raise ValueError(f"slot 1 must be an (F, F, N_BS) array, got shape {shape}")
            if not 1 <= cfg.cache_size <= shape[0]:
                raise ValueError(f"cache size {cfg.cache_size} must be in 1..{shape[0]} "
                                 "(library size)")
            recent = _Recent(shape, cfg)
        elif realized.shape != shape:
            raise ValueError(f"slot {n} has shape {realized.shape}, expected {shape}")
        if mask.dtype != bool or mask.shape != shape:
            raise ValueError(f"mask of slot {n} must be a bool array of the slot's shape "
                             f"{shape}, got {mask.dtype} of shape {mask.shape}")
        if n > cfg.tau:
            if (realized < 0).any():
                raise ValueError(f"realized demands of slot {n} must be nonnegative")
            try:
                masses = [(realized[:, :, b].sum(axis=1), float(realized[:, :, b].sum()))
                          for b in range(shape[2])]
                for keys, history in recent.histories():
                    for b, (mass, total) in enumerate(masses):
                        for p, pred_cfg in pred_cfgs.items():
                            c = mpc_place(fit_predict(history, pred_cfg, b).shares, cfg.cache_size)
                            rate = hit_rate(mass, total, c)
                            for completed, budget in keys:
                                cells[p, completed, budget].append(rate)
                for mass, total in masses:
                    totals.append(total)
                    oracle.append(hit_rate(mass, total, oracle_place(mass, total, cfg.cache_size)))
            except Exception as exc:
                raise RuntimeError(f"online loop failed at slot {n}") from exc
        recent.push(realized, mask)
    if n <= cfg.tau:
        raise ValueError(f"need more than tau={cfg.tau} slots, got {n}")

    def rows(values):
        return np.array(values).reshape(-1, shape[2])

    return OnlineResult(cfg, np.arange(cfg.tau + 1, n + 1), rows(totals) == 0.0, rows(oracle),
                        {key: rows(rates) for key, rates in cells.items()})
