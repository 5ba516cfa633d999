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

from dataclasses import dataclass

import numpy as np

# ``complete`` is not called here; perfbench/tracing.py wraps it in this namespace
from .completion import FwConfig, complete, complete_sweep  # noqa: F401
from .prediction import DemandHistory, PredictorConfig, fit_predict, normalize_demands
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


def _completed_histories(window: np.ndarray, seen: np.ndarray, fw_cfg: FwConfig, budgets):
    """``(True, budget, completed window's shares)`` per distinct budget, from
    one sweep (the first two items name the treatment and budget of a cell).
    ``seen`` is the window's observation mask: the solver reads ``window``
    only there."""
    idx = np.argwhere(seen)
    if idx.shape[0] == 0:
        for budget in set(budgets):
            yield True, budget, normalize_demands(np.zeros(window.shape))
        return
    t = SparseTensor(window.shape, idx, window[tuple(idx.T)])
    for budget, state, _ in complete_sweep(t, fw_cfg, budgets):
        yield True, budget, normalize_demands(state.x)


def _raw_shares(stream: np.ndarray, mask: np.ndarray | None, tau: int) -> np.ndarray:
    """Every slot's observed demand shares, (T, F, N_BS), normalized ``tau``
    slots at a time: a block has a window's shape, so each slot's shares are
    bitwise those of any window holding it."""
    shares = np.empty((len(stream), stream.shape[1], stream.shape[3]))
    for lo in range(0, len(stream), tau):
        lo = min(lo, len(stream) - tau)  # the last block overlaps the one before
        block = stream[lo : lo + tau]
        if mask is not None:
            block = np.where(mask[lo : lo + tau], block, 0.0)
        shares[lo : lo + tau] = normalize_demands(np.moveaxis(block, 0, -1)).shares
    return shares


def run_online(
    stream: np.ndarray,
    cfg: OnlineConfig,
    mask: np.ndarray | None = None,
) -> OnlineResult:
    """Run the per-slot observe / complete / predict / place / score loop.

    ``stream`` holds the realized (T, F, F, N_BS) demands (a sequence of
    slots is converted once); every slot is scored, and the oracle placed,
    against it. ``mask``, a bool array of the stream's shape, is True where
    an entry is observed, and the predictors and the solver read the stream
    only there. Without a mask the observed stream is ``stream`` itself and
    its zeros are the missing entries (on real traces the observed demands
    are all there is). No dense observed copy of the stream is formed, nor
    one per window: the raw shares read one observed block per ``tau``
    slots, and each window is solved from its observed entries.

    Slots ``tau+1 .. T`` (1-based) get scored, every treatment in
    ``cfg.completion`` in the same pass: each window is completed once for
    every budget in ``cfg.rank_budgets`` (one sweep), each budget's
    completion is normalized once, and with a raw treatment each slot is
    normalized once per run; every such history feeds every predictor in
    ``cfg.predictors``, and the oracle scores each (slot, bs) once. A
    configuration the stream cannot satisfy, a mask that is not a bool array
    of the stream's shape, or a negative realized demand raises
    ``ValueError`` before the loop; a failure inside the loop is re-raised as
    ``RuntimeError`` naming the slot.
    """
    stream = np.asarray(stream)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != stream.shape:
            raise ValueError(f"mask must be a bool array of the stream's shape {stream.shape}, "
                             f"got {mask.dtype} of shape {mask.shape}")
    if len(stream) <= cfg.tau:
        raise ValueError(f"need more than tau={cfg.tau} slots, got {len(stream)}")
    _, num_files, _, n_bs = stream.shape
    if not 1 <= cfg.cache_size <= num_files:
        raise ValueError(f"cache size {cfg.cache_size} must be in 1..{num_files} (library size)")
    for slot, realized in enumerate(stream[cfg.tau:], start=cfg.tau + 1):
        if (realized < 0).any():
            raise ValueError(f"realized demands of slot {slot} must be nonnegative")
    pred_cfgs = {p: PredictorConfig(cfg.order, p) for p in cfg.predictors}
    fw_cfg = FwConfig(shift=cfg.shift)
    raw = _raw_shares(stream, mask, cfg.tau) if False in cfg.completion else None
    scored = (len(stream) - cfg.tau, n_bs)
    zero_demand = np.zeros(scored, dtype=bool)
    oracle = np.empty(scored)
    cells = {(p, completed, budget): np.empty(scored) for p in cfg.predictors
             for completed in cfg.completion
             for budget in (cfg.rank_budgets if completed else (0,))}

    for s, t_idx in enumerate(range(cfg.tau - 1, len(stream) - 1)):
        lo = t_idx - cfg.tau + 1
        try:
            realized = stream[t_idx + 1]
            masses = [(realized[:, :, b].sum(axis=1), float(realized[:, :, b].sum()))
                      for b in range(n_bs)]
            histories = [] if raw is None else [(False, 0, DemandHistory(raw[lo : t_idx + 1]))]
            if True in cfg.completion:
                window = np.moveaxis(stream[lo : t_idx + 1], 0, -1)
                seen = window != 0.0 if mask is None else np.moveaxis(mask[lo : t_idx + 1], 0, -1)
                histories += _completed_histories(window, seen, fw_cfg, cfg.rank_budgets)
            for completed, budget, history in histories:
                for b, (mass, total) in enumerate(masses):
                    for p, pred_cfg in pred_cfgs.items():
                        c = mpc_place(fit_predict(history, pred_cfg, b).shares, cfg.cache_size)
                        cells[p, completed, budget][s, b] = hit_rate(mass, total, c)
            for b, (mass, total) in enumerate(masses):
                zero_demand[s, b] = total == 0.0
                oracle[s, b] = hit_rate(mass, total, oracle_place(mass, total, cfg.cache_size))
        except Exception as exc:
            raise RuntimeError(f"online loop failed at slot {t_idx + 1}") from exc

    slots = np.arange(cfg.tau + 1, len(stream) + 1)
    return OnlineResult(cfg, slots, zero_demand, oracle, cells)

