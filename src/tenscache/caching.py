"""Cache placement, hit-rate accounting, and the online per-slot loop.

Each scored slot follows the observe / place / deliver cycle: the sliding
window of the last ``tau`` observed demand slots is (optionally) completed,
the next slot's shares are forecast per base station, the forecast's top
``cache_size`` files are placed, and the placement is scored against the
demands that then materialize. An oracle placement (top files of the realized
demands themselves) is scored alongside as the per-slot upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .completion import FwConfig, complete
from .prediction import Forecast, PredictorConfig, fit_predict, normalize_demands
from .tensors import SparseTensor

__all__ = [
    "CachePlan",
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
class CachePlan:
    """One base station's placement vector; exactly ``capacity`` ones for MPC."""

    c: np.ndarray
    capacity: int
    bs: int = 0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        if ((self.c < 0) | (self.c > 1)).any():
            raise ValueError("placement entries must lie in [0, 1]")
        if abs(self.c.sum() - self.capacity) > 1e-9:
            raise ValueError(f"placement sums to {self.c.sum()}, capacity {self.capacity}")


@dataclass
class SlotOutcome:
    """Hit-rate bookkeeping for one scored (slot, bs) pair."""

    slot: int
    bs: int
    hit_rate: float
    zero_demand: bool = False


@dataclass
class OnlineConfig:
    """Online-loop configuration (window, predictor, placement, completion)."""

    tau: int = 10
    order: int = 6
    cache_size: int = 32
    predictor: str = "lp"
    completion: bool = True
    rank_budget: int = 8
    beta: float = 1e5
    shift: int = 1
    mode_selection: str = "sigma"
    update_rule: str = "multi"

    def method_label(self) -> str:
        return f"{self.predictor}-{'completed' if self.completion else 'raw'}"

    def fw_config(self) -> FwConfig:
        return FwConfig(
            rank_budget=self.rank_budget,
            beta=self.beta,
            shift=self.shift,
            mode_selection=self.mode_selection,
            update_rule=self.update_rule,
        )


@dataclass
class OnlineRunReport:
    """Per-slot outcomes plus per-method averages over the valid slots."""

    method: str
    rank: int
    outcomes: list[SlotOutcome]
    oracle_outcomes: list[SlotOutcome]
    config: OnlineConfig
    averages: dict[str, float] = field(default_factory=dict)

    def average(self) -> float:
        return self.averages[self.method]


def mpc_place(forecast: Forecast, capacity: int) -> CachePlan:
    """Cache the ``capacity`` files with the largest predicted shares.

    Ties break toward the smaller file index (stable sort on descending
    share), so placements are deterministic.
    """
    shares = forecast.shares
    if capacity > shares.size:
        raise ValueError(f"capacity {capacity} exceeds library size {shares.size}")
    order = np.argsort(-shares, kind="stable")
    c = np.zeros(shares.size)
    c[order[:capacity]] = 1.0
    return CachePlan(c, capacity, forecast.bs)


def oracle_place(demand_slice: np.ndarray, capacity: int, bs: int = 0) -> CachePlan:
    """Hindsight-optimal placement: top files of the realized demand mass."""
    mass = np.asarray(demand_slice, dtype=np.float64).sum(axis=1)
    return mpc_place(Forecast(bs, mass, np.zeros(0)), capacity) if mass.sum() > 0 else mpc_place(
        Forecast(bs, np.full(mass.size, 1.0 / mass.size), np.zeros(0)), capacity
    )


def hit_rate(demand_slice: np.ndarray, plan: CachePlan) -> float:
    """Cached share of the total weighted requests in one (bs, slot) slice.

    The slice is the (F, F) matrix of primary-by-recommended request counts;
    all mass in row ``f`` counts toward file ``f``, cached or not, exactly as
    the double-sum ratio aggregates. A zero-demand slice scores 0.
    """
    d = np.asarray(demand_slice, dtype=np.float64)
    if (d < 0).any():
        raise ValueError("demand slice must be nonnegative")
    total = d.sum()
    if total == 0.0:
        return 0.0
    return float(d.sum(axis=1) @ plan.c / total)


def _window_tensor(slots: list[np.ndarray], end: int, tau: int) -> np.ndarray:
    return np.stack(slots[end - tau + 1 : end + 1], axis=-1)


def _completed_window(window: np.ndarray, cfg: OnlineConfig) -> np.ndarray:
    idx = np.argwhere(window != 0.0)
    if idx.shape[0] == 0:
        return window
    t = SparseTensor(window.shape, idx, window[tuple(idx.T)])
    state, _ = complete(t, cfg.fw_config())
    return state.x


def run_online(
    stream: list[np.ndarray],
    cfg: OnlineConfig,
    score_stream: list[np.ndarray] | None = None,
) -> OnlineRunReport:
    """Run the per-slot observe / complete / predict / place / score loop.

    ``stream`` holds the observed (F, F, N_BS) demand slots. ``score_stream``
    holds the realized demands used for scoring and the oracle; it defaults
    to ``stream`` (on real traces the observed demands are all there is).
    Slots ``tau+1 .. T`` (1-based) get scored; zero-demand (slot, bs) pairs
    are flagged and excluded from the averages. A configuration the stream
    cannot satisfy raises ``ValueError`` before the loop; a failure inside
    the loop is re-raised as ``RuntimeError`` naming the slot.
    """
    if score_stream is None:
        score_stream = stream
    if len(stream) != len(score_stream):
        raise ValueError("stream and score_stream lengths differ")
    if len(stream) <= cfg.tau:
        raise ValueError(f"need more than tau={cfg.tau} slots, got {len(stream)}")
    num_files, _, n_bs = stream[0].shape
    if not 1 <= cfg.cache_size <= num_files:
        raise ValueError(f"cache size {cfg.cache_size} must be in 1..{num_files} (library size)")
    if cfg.tau < cfg.order + 1:
        raise ValueError(f"tau={cfg.tau} too short for prediction order {cfg.order}; "
                         "need tau >= order + 1")
    pred_cfg = PredictorConfig(cfg.order, cfg.predictor)
    outcomes: list[SlotOutcome] = []
    oracle_outcomes: list[SlotOutcome] = []

    for t_idx in range(cfg.tau - 1, len(stream) - 1):
        window = _window_tensor(stream, t_idx, cfg.tau)
        try:
            filled = _completed_window(window, cfg) if cfg.completion else window
            history = normalize_demands(filled)
            realized = score_stream[t_idx + 1]
            for b in range(n_bs):
                plan = mpc_place(fit_predict(history, pred_cfg, b), cfg.cache_size)
                outcomes.append(_score(realized[:, :, b], plan, t_idx + 2, b))
                oracle = oracle_place(realized[:, :, b], cfg.cache_size, b)
                oracle_outcomes.append(_score(realized[:, :, b], oracle, t_idx + 2, b))
        except Exception as exc:
            raise RuntimeError(f"online loop failed at slot {t_idx + 1}") from exc

    report = OnlineRunReport(
        method=cfg.method_label(),
        rank=cfg.rank_budget if cfg.completion else 0,
        outcomes=outcomes,
        oracle_outcomes=oracle_outcomes,
        config=cfg,
    )
    report.averages = {
        cfg.method_label(): _average(outcomes),
        "oracle": _average(oracle_outcomes),
    }
    return report


def _score(demand_slice: np.ndarray, plan: CachePlan, slot: int, bs: int) -> SlotOutcome:
    total = float(np.asarray(demand_slice).sum())
    return SlotOutcome(slot, bs, hit_rate(demand_slice, plan), zero_demand=(total == 0.0))


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
