"""Cache placement, hit-rate accounting, and the online per-slot loop.

Each scored slot follows the observe / place / deliver cycle: the sliding
window of the last ``tau`` observed demand slots is (optionally) completed,
the next slot's shares are forecast per base station by every configured
predictor, each forecast's top ``cache_size`` files are placed, and each
placement is scored against the demands that then materialize. Completion
does not depend on the predictor, so each window is completed once, by one
sweep over every rank budget. An oracle placement (top files of the realized
demands themselves) is scored alongside as the per-slot upper bound.
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
    "OnlineRunReport",
    "SlotOutcome",
    "hit_rate",
    "mpc_place",
    "oracle_place",
    "run_online",
    "write_report_csv",
    "write_summary_csv",
]


@dataclass
class SlotOutcome:
    """Hit-rate bookkeeping for one scored (slot, bs) pair."""

    slot: int
    bs: int
    hit_rate: float
    zero_demand: bool = False


@dataclass
class OnlineConfig:
    """Online-loop configuration (window, predictors, placement, completion).

    ``rank_budgets`` are the completion rank budgets: each window is solved
    once for all of them (see :func:`tenscache.completion.complete_sweep`),
    and every predictor is scored on each budget's completion. They are not
    read with ``completion`` off.
    """

    tau: int = 10
    order: int = 6
    cache_size: int = 32
    predictors: tuple[str, ...] = ("lp",)
    completion: bool = True
    rank_budgets: tuple[int, ...] = (8,)
    shift: int = 1


@dataclass
class OnlineRunReport:
    """Per-slot outcomes plus per-method averages over the valid slots."""

    method: str
    rank: int
    outcomes: list[SlotOutcome]
    oracle_outcomes: list[SlotOutcome]
    averages: dict[str, float]

    def average(self) -> float:
        return self.averages[self.method]


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


def _completed_histories(window: np.ndarray, fw_cfg: FwConfig, budgets):
    """``(budget, completed window's shares)`` per distinct budget, from one sweep."""
    idx = np.argwhere(window != 0.0)
    if idx.shape[0] == 0:
        for budget in set(budgets):
            yield budget, normalize_demands(window)
        return
    t = SparseTensor(window.shape, idx, window[tuple(idx.T)])
    for budget, state, _ in complete_sweep(t, fw_cfg, budgets):
        yield budget, normalize_demands(state.x)


def _raw_shares(stream: np.ndarray, tau: int) -> np.ndarray:
    """Every slot's demand shares, (T, F, N_BS), normalized ``tau`` slots at
    a time: a block has a window's shape, so each slot's shares are bitwise
    those of any window holding it."""
    shares = np.empty((len(stream), stream.shape[1], stream.shape[3]))
    for lo in range(0, len(stream), tau):
        lo = min(lo, len(stream) - tau)  # the last block overlaps the one before
        shares[lo : lo + tau] = normalize_demands(np.moveaxis(stream[lo : lo + tau], 0, -1)).shares
    return shares


def run_online(
    stream: np.ndarray,
    cfg: OnlineConfig,
    score_stream: np.ndarray | None = None,
) -> list[OnlineRunReport]:
    """Run the per-slot observe / complete / predict / place / score loop.

    ``stream`` is the observed (T, F, F, N_BS) demand stream (a sequence of
    slots is converted once); each window is a view of it. ``score_stream``
    holds the realized demands used for scoring and the oracle; it defaults
    to ``stream`` (on real traces the observed demands are all there is).
    Slots ``tau+1 .. T`` (1-based) get scored; zero-demand (slot, bs) pairs
    are flagged and excluded from the averages. Each window is completed
    once for every budget in ``cfg.rank_budgets`` (one sweep), scored by the
    oracle once, and each budget's completion is normalized once and feeds
    every predictor in ``cfg.predictors``; with completion off, each slot is
    normalized once per run. One report per (predictor, budget) comes back,
    predictor-major, in the configured orders; with completion off, one per
    predictor, with rank 0. A configuration the stream cannot satisfy, or a
    negative realized demand, raises ``ValueError`` before the loop; a
    failure inside the loop is re-raised as ``RuntimeError`` naming the slot.
    """
    stream = np.asarray(stream)
    score_stream = stream if score_stream is None else np.asarray(score_stream)
    if len(stream) != len(score_stream):
        raise ValueError("stream and score_stream lengths differ")
    if len(stream) <= cfg.tau:
        raise ValueError(f"need more than tau={cfg.tau} slots, got {len(stream)}")
    _, num_files, _, n_bs = stream.shape
    if not 1 <= cfg.cache_size <= num_files:
        raise ValueError(f"cache size {cfg.cache_size} must be in 1..{num_files} (library size)")
    if cfg.tau < cfg.order + 1:
        raise ValueError(f"tau={cfg.tau} too short for prediction order {cfg.order}; "
                         "need tau >= order + 1")
    if not cfg.predictors:
        raise ValueError("no predictor given")
    for slot, realized in enumerate(score_stream[cfg.tau:], start=cfg.tau + 1):
        if (realized < 0).any():
            raise ValueError(f"realized demands of slot {slot} must be nonnegative")
    pred_cfgs = [PredictorConfig(cfg.order, p) for p in cfg.predictors]
    # the sweep reads every budget; the smallest one is checked here
    fw_cfg = FwConfig(rank_budget=min(cfg.rank_budgets, default=0), shift=cfg.shift)
    budgets = cfg.rank_budgets if cfg.completion else (0,)
    outcomes: dict[tuple[int, int], list[SlotOutcome]] = {
        (p, budget): [] for p in range(len(pred_cfgs)) for budget in budgets}
    oracle_outcomes: list[SlotOutcome] = []
    shares = None if cfg.completion else _raw_shares(stream, cfg.tau)

    for t_idx in range(cfg.tau - 1, len(stream) - 1):
        lo, slot = t_idx - cfg.tau + 1, t_idx + 2
        try:
            realized = score_stream[t_idx + 1]
            masses = [(realized[:, :, b].sum(axis=1), float(realized[:, :, b].sum()))
                      for b in range(n_bs)]
            histories = (
                _completed_histories(np.moveaxis(stream[lo : t_idx + 1], 0, -1), fw_cfg, budgets)
                if cfg.completion else [(0, DemandHistory(shares[lo : t_idx + 1]))])
            for budget, history in histories:
                for b, (mass, total) in enumerate(masses):
                    for p, pred_cfg in enumerate(pred_cfgs):
                        c = mpc_place(fit_predict(history, pred_cfg, b).shares, cfg.cache_size)
                        outcomes[p, budget].append(_score(mass, total, c, slot, b))
            for b, (mass, total) in enumerate(masses):
                oracle = oracle_place(mass, total, cfg.cache_size)
                oracle_outcomes.append(_score(mass, total, oracle, slot, b))
        except Exception as exc:
            raise RuntimeError(f"online loop failed at slot {t_idx + 1}") from exc

    oracle_average = _average(oracle_outcomes)
    reports = []
    for p, predictor in enumerate(cfg.predictors):
        method = f"{predictor}-{'completed' if cfg.completion else 'raw'}"
        for budget in budgets:
            scored = outcomes[p, budget]
            reports.append(OnlineRunReport(
                method=method,
                rank=budget,
                outcomes=scored,
                oracle_outcomes=oracle_outcomes,
                averages={method: _average(scored), "oracle": oracle_average},
            ))
    return reports


def _score(mass: np.ndarray, total: float, c: np.ndarray, slot: int, bs: int) -> SlotOutcome:
    return SlotOutcome(slot, bs, hit_rate(mass, total, c), zero_demand=(total == 0.0))


def _average(outcomes: list[SlotOutcome]) -> float:
    valid = [o.hit_rate for o in outcomes if not o.zero_demand]
    return float(np.mean(valid)) if valid else 0.0


def write_report_csv(path, reports: list[OnlineRunReport], manifest: str | None = None) -> None:
    """Per-slot rows: ``slot,bs,method,hit_rate`` (oracle rows written once)."""
    with open(path, "w") as fh:
        if manifest:
            fh.write(f"# manifest: {manifest}\n")
        fh.write("slot,bs,method,hit_rate\n")
        for i, rep in enumerate(reports):
            for o in rep.outcomes:
                fh.write(f"{o.slot},{o.bs + 1},{rep.method},{o.hit_rate!r}\n")
            if i == 0:
                for o in rep.oracle_outcomes:
                    fh.write(f"{o.slot},{o.bs + 1},oracle,{o.hit_rate!r}\n")


def write_summary_csv(path, reports: list[OnlineRunReport], manifest: str | None = None) -> None:
    """Summary rows: ``method,rank,avg_hit_rate`` plus one oracle row."""
    with open(path, "w") as fh:
        if manifest:
            fh.write(f"# manifest: {manifest}\n")
        fh.write("method,rank,avg_hit_rate\n")
        for rep in reports:
            fh.write(f"{rep.method},{rep.rank},{rep.average()!r}\n")
        if reports:
            fh.write(f"oracle,0,{reports[0].averages['oracle']!r}\n")
