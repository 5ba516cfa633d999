"""Demand-tensor construction from ratings files and synthetic fixtures.

The ratings path turns a ``user_id,movie_id,rating,timestamp`` table into a
sequence of (F, F, N_BS) demand slots: the top-F movies by global rating count
are kept and reindexed, users are spread over base stations by a stable hash,
and timestamps are binned into fixed-length windows starting at the earliest
record. How the recommendation axis is populated is a modelling choice the
source data does not pin down, so both proxies are explicit: ``self`` puts
every event on the diagonal (pure popularity) and ``cosession`` credits
consecutive same-user ratings within a session gap as (requested, followed)
pairs.

The synthetic path generates tensors that are exactly low rank in every
circular unfolding (sums of folded random low-rank matrices) plus demand
streams with separable popularity structure, for solver and caching tests
with known ground truth.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .tensors import SparseTensor, UnfoldSpec, fold

__all__ = [
    "DemandTensorResult",
    "IngestConfig",
    "RatingsRecord",
    "build_demand_tensor",
    "load_ratings",
    "synth_low_rank",
    "synth_lowrank_stream",
]

PAIRING_SELF = "self"
PAIRING_COSESSION = "cosession"

WEIGHT_COUNT = "count"
WEIGHT_STARS = "stars"


@dataclass(frozen=True)
class RatingsRecord:
    user_id: int
    movie_id: int
    rating: float
    timestamp: int


@dataclass
class IngestConfig:
    """Knobs for :func:`build_demand_tensor`; defaults match the usual setup."""

    top_f: int = 128
    n_bs: int = 3
    slot_days: int = 30
    pairing: str = PAIRING_SELF
    session_gap_hours: float = 6.0
    weight: str = WEIGHT_COUNT

    def __post_init__(self):
        if self.top_f < 1 or self.n_bs < 1 or self.slot_days < 1:
            raise ValueError("top_f, n_bs and slot_days must be >= 1")
        if self.pairing not in (PAIRING_SELF, PAIRING_COSESSION):
            raise ValueError(f"unknown pairing {self.pairing!r}")
        if self.weight not in (WEIGHT_COUNT, WEIGHT_STARS):
            raise ValueError(f"unknown weight {self.weight!r}")


@dataclass
class DemandTensorResult:
    slots: list[np.ndarray]  # each (F, F, N_BS)
    movie_ids: list[int]  # kept movies, index f -> original id
    start_timestamp: int


def load_ratings(path) -> list[RatingsRecord]:
    """Read comma- or tab-separated ratings with an optional header row."""
    records: list[RatingsRecord] = []
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delimiter = "\t" if sample.count("\t") > sample.count(",") else ","
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            if not row or not row[0].strip():
                continue
            if lineno == 1 and not row[0].strip().isdigit():
                continue  # header
            if len(row) < 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                rec = RatingsRecord(
                    int(row[0]), int(row[1]), float(row[2]), int(float(row[3]))
                )
            except (ValueError, OverflowError):  # OverflowError: an infinite timestamp
                record = delimiter.join(row)
                raise ValueError(f"{path}:{lineno}: bad field in {record!r}") from None
            if rec.timestamp <= 0:
                raise ValueError(f"{path}:{lineno}: timestamp must be > 0")
            if not 0 <= rec.rating < math.inf:
                raise ValueError(f"{path}:{lineno}: rating must be finite and >= 0")
            records.append(rec)
    return records


def _bs_of(user_id: int, n_bs: int) -> int:
    # crc32 rather than hash(): stable across processes and python versions
    return zlib.crc32(str(user_id).encode()) % n_bs


def build_demand_tensor(records: list[RatingsRecord], cfg: IngestConfig) -> DemandTensorResult:
    """Aggregate ratings into per-slot (F, F, N_BS) demand tensors.

    Slot bins are half-open ``[start + i*slot_days, start + (i+1)*slot_days)``
    days from the earliest record. With ``cosession`` pairing the pair is
    credited to the slot of the later rating.
    """
    if not records:
        raise ValueError("no ratings records")
    counts: dict[int, int] = {}
    for rec in records:
        counts[rec.movie_id] = counts.get(rec.movie_id, 0) + 1
    if len(counts) < cfg.top_f:
        raise ValueError(f"need {cfg.top_f} distinct movies, found {len(counts)}")
    ranked = sorted(counts, key=lambda m: (-counts[m], m))[: cfg.top_f]
    movie_index = {m: i for i, m in enumerate(ranked)}

    t0 = min(rec.timestamp for rec in records)
    slot_seconds = cfg.slot_days * 86400
    n_slots = (max(rec.timestamp for rec in records) - t0) // slot_seconds + 1
    slots = [np.zeros((cfg.top_f, cfg.top_f, cfg.n_bs)) for _ in range(n_slots)]

    def weight_of(rec: RatingsRecord) -> float:
        return 1.0 if cfg.weight == WEIGHT_COUNT else rec.rating

    if cfg.pairing == PAIRING_SELF:
        for rec in records:
            f = movie_index.get(rec.movie_id)
            if f is None:
                continue
            slot = (rec.timestamp - t0) // slot_seconds
            slots[slot][f, f, _bs_of(rec.user_id, cfg.n_bs)] += weight_of(rec)
    else:
        gap = cfg.session_gap_hours * 3600
        by_user: dict[int, list[RatingsRecord]] = {}
        for rec in records:
            by_user.setdefault(rec.user_id, []).append(rec)
        for user, recs in by_user.items():
            recs.sort(key=lambda r: (r.timestamp, r.movie_id))
            b = _bs_of(user, cfg.n_bs)
            for prev, cur in zip(recs, recs[1:]):
                if cur.timestamp - prev.timestamp > gap:
                    continue
                f = movie_index.get(prev.movie_id)
                i = movie_index.get(cur.movie_id)
                if f is None or i is None:
                    continue
                slot = (cur.timestamp - t0) // slot_seconds
                slots[slot][f, i, b] += weight_of(cur)

    return DemandTensorResult(slots, ranked, t0)


# --- synthetic fixtures ------------------------------------------------------


def synth_low_rank(
    shape,
    ranks,
    noise_sigma: float = 0.0,
    observe_fraction: float = 1.0,
    seed: int = 0,
    shift: int = 1,
) -> tuple[SparseTensor, np.ndarray]:
    """Random tensor that is exactly low rank in every circular unfolding.

    The truth is a sum over modes of folded random rank-``ranks[k]`` matrices
    (standard normal factors). A uniform random subset of entries is
    observed, with optional additive Gaussian noise on the observed values.
    """
    shape = tuple(int(s) for s in shape)
    n = len(shape)
    if len(ranks) != n:
        raise ValueError(f"need {n} per-mode ranks, got {len(ranks)}")
    if not 0.0 < observe_fraction <= 1.0:
        raise ValueError("observe_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    truth = np.zeros(shape)
    for k in range(1, n + 1):
        spec = UnfoldSpec(k, shift)
        rows, cols = spec.matrix_dims(shape)
        r = int(ranks[k - 1])
        if r < 0 or r > min(rows, cols):
            raise ValueError(f"mode-{k} rank {r} infeasible for dims {(rows, cols)}")
        if r == 0:
            continue
        a = rng.standard_normal((rows, r))
        b = rng.standard_normal((cols, r))
        truth += fold(a @ b.T, spec, shape)

    total = truth.size
    nnz = max(int(round(observe_fraction * total)), 1)
    flat = rng.choice(total, size=nnz, replace=False)
    flat.sort()
    indices = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
    values = truth[tuple(indices.T)]
    if noise_sigma > 0.0:
        values = values + noise_sigma * rng.standard_normal(nnz)
    return SparseTensor(shape, indices, values), truth


def synth_lowrank_stream(
    num_files: int,
    n_bs: int,
    n_slots: int,
    observe_fraction: float = 0.05,
    seed: int = 0,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Masked separable demand stream: (observed slots, true slots).

    The truth is a two-component separable process (two popularity/
    recommendation profiles with per-BS weights and fluctuating slot scales),
    so every window tensor is low rank in its circular unfoldings. Each slot
    keeps a fresh uniform random fraction of entries; the rest read zero.
    """
    rng = np.random.default_rng(seed)

    def profile(exponent: float) -> np.ndarray:
        p = 1.0 / np.arange(1, num_files + 1) ** exponent
        rng.shuffle(p)
        return p

    pop1, rec1 = profile(1.1), profile(0.7)
    pop2, rec2 = profile(0.9), profile(0.5)
    w1 = 0.8 + 0.4 * rng.random(n_bs)
    w2 = 0.5 + 0.5 * rng.random(n_bs)
    observed, truth = [], []
    for _ in range(n_slots):
        z1 = abs(1.0 + 0.1 * rng.standard_normal())
        z2 = abs(0.6 + 0.1 * rng.standard_normal())
        slot = 100.0 * (
            z1 * np.einsum("f,i,b->fib", pop1, rec1, w1)
            + z2 * np.einsum("f,i,b->fib", pop2, rec2, w2)
        )
        mask = rng.random(slot.shape) < observe_fraction
        truth.append(slot)
        observed.append(slot * mask)
    return observed, truth
