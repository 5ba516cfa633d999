"""Demand-tensor construction from ratings files and synthetic fixtures.

The ratings path turns a ``user_id,movie_id,rating,timestamp`` table into a
(T, F, F, N_BS) stream of demand slots: the top-F movies by global rating count
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
import io
import math
import warnings
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .tensors import SparseTensor, UnfoldSpec, fold

__all__ = [
    "DemandTensorResult",
    "IngestConfig",
    "build_demand_tensor",
    "load_ratings",
    "synth_low_rank",
    "synth_lowrank_stream",
]

PAIRING_SELF = "self"
PAIRING_COSESSION = "cosession"

WEIGHT_COUNT = "count"
WEIGHT_STARS = "stars"

_RATINGS_DTYPE = np.dtype(
    [("user", np.int64), ("movie", np.int64), ("rating", np.float64), ("timestamp", np.int64)])
_INT64 = range(-(2**63), 2**63)
# the array parse reads the timestamp as a float, then truncates it
_LOADTXT_DTYPE = np.dtype(
    [("user", np.int64), ("movie", np.int64), ("rating", np.float64), ("timestamp", np.float64)])
# bytes the array parse leaves to the line parser: all but printable ASCII, tab and
# newline, and csv's quote
_DOUBTFUL_BYTE = np.ones(256, dtype=bool)
_DOUBTFUL_BYTE[32:127] = False
_DOUBTFUL_BYTE[[ord("\t"), ord("\n")]] = False
_DOUBTFUL_BYTE[ord('"')] = True


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
        if not self.session_gap_hours >= 0:  # NaN too
            raise ValueError(f"session_gap_hours must be >= 0, got {self.session_gap_hours}")
        if self.pairing not in (PAIRING_SELF, PAIRING_COSESSION):
            raise ValueError(f"unknown pairing {self.pairing!r}")
        if self.weight not in (WEIGHT_COUNT, WEIGHT_STARS):
            raise ValueError(f"unknown weight {self.weight!r}")


@dataclass
class DemandTensorResult:
    slots: np.ndarray  # (T, F, F, N_BS) demand stream
    movie_ids: list[int]  # kept movies, index f -> original id
    start_timestamp: int


def load_ratings(path) -> np.ndarray:
    """Read comma- or tab-separated ratings into one record array, in file
    order, with fields ``user``, ``movie``, ``rating`` and ``timestamp``
    (int64, int64, float64, int64). The first non-blank row is a header, and
    skipped, if its first field is not a number. A bad row raises
    ``ValueError`` naming ``path:line``; an id or timestamp beyond int64 is a
    ``bad field``.

    The delimiter is tab if the first 4096 characters hold more tabs than
    commas. The rows are parsed as one array (``np.loadtxt``). A file that
    parse does not take, or whose records fail a check, is read again row by
    row, and that reader alone names a bad row."""
    with open(path, newline="") as fh:
        sample = fh.read(4096)
    delimiter = "\t" if sample.count("\t") > sample.count(",") else ","
    try:
        return _parse_ratings_array(path, delimiter)
    except ValueError:  # the line parser is the only judge of a file in doubt
        return _parse_ratings_lines(path, delimiter)


def _parse_ratings_array(path, delimiter: str) -> np.ndarray:
    """All rows in one ``np.loadtxt`` call. Raises on anything the line parser
    could read differently: a byte outside printable ASCII, tab and newline
    (so a ``\\r``, a control character or a non-ASCII character), a ``"``
    (csv quoting), a row longer than csv's field limit, a row that starts
    with whitespace or the delimiter (blank rows and blank first fields among
    them), no data rows, a ``loadtxt`` error or warning (numpy < 2 reads
    ``2.5`` as an int with a ``DeprecationWarning``), or a record that fails
    a check."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError("no rows")
    buf = np.frombuffer(data, dtype=np.uint8)
    if _DOUBTFUL_BYTE[buf].any():
        raise ValueError("a byte the array parse does not take")
    starts = np.flatnonzero(np.r_[ord("\n"), buf[:-1]] == ord("\n"))  # of each row
    if (np.diff(starts, append=buf.size) > csv.field_size_limit()).any():
        raise ValueError("a row longer than csv's field limit")
    if (buf[starts] <= ord(" ")).any() or (buf[starts] == ord(delimiter)).any():
        raise ValueError("a row that starts blank")
    text = data.decode("ascii")
    try:
        float(text.split("\n", 1)[0].split(delimiter, 1)[0])
        header = 0
    except ValueError:
        header = 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" among them
            table = np.loadtxt(io.StringIO(text), dtype=_LOADTXT_DTYPE, delimiter=delimiter,
                               comments=None, skiprows=header, usecols=(0, 1, 2, 3), ndmin=1)
    except (OverflowError, Warning) as exc:
        raise ValueError(f"loadtxt: {exc}") from None
    stamps = table["timestamp"]
    if not ((stamps >= -(2.0**63)) & (stamps < 2.0**63)).all():  # NaN too
        raise ValueError("a timestamp beyond int64")
    records = table.astype(_RATINGS_DTYPE)  # truncates the timestamp, as int(float(s)) does
    rating = records["rating"]
    if not ((records["timestamp"] > 0) & (rating >= 0) & (rating < np.inf)).all():
        raise ValueError("a record that fails a check")
    return records


def _parse_ratings_lines(path, delimiter: str) -> np.ndarray:
    """One csv row at a time, naming ``path:line`` for the first problem."""
    rows = []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            if not row or not row[0].strip():
                continue
            if header_allowed:
                header_allowed = False
                try:
                    float(row[0])
                except ValueError:
                    continue  # header
            if len(row) < 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                user, movie, rating = int(row[0]), int(row[1]), float(row[2])
                ts = int(float(row[3]))
                if user not in _INT64 or movie not in _INT64 or ts not in _INT64:
                    raise OverflowError
            except (ValueError, OverflowError):  # OverflowError: an infinite or too large number
                record = delimiter.join(row)
                raise ValueError(f"{path}:{lineno}: bad field in {record!r}") from None
            if ts <= 0:
                raise ValueError(f"{path}:{lineno}: timestamp must be > 0")
            if not 0 <= rating < math.inf:
                raise ValueError(f"{path}:{lineno}: rating must be finite and >= 0")
            rows.append((user, movie, rating, ts))
    return np.array(rows, dtype=_RATINGS_DTYPE)


def build_demand_tensor(records: np.ndarray, cfg: IngestConfig) -> DemandTensorResult:
    """Aggregate a :func:`load_ratings` record array into a (T, F, F, N_BS)
    demand stream over the top ``cfg.top_f`` movies by count (ties to the
    smaller id).

    Slot bins are half-open ``[start + i*slot_days, start + (i+1)*slot_days)``
    days from the earliest record. With ``cosession`` pairing each user's
    ratings are ordered by (timestamp, movie id), and a consecutive pair
    within the session gap is credited to the slot of the later rating. A
    cell adds its weights in record order (``self``), or by user in order of
    first appearance, then in that order (``cosession``).
    """
    if len(records) == 0:
        raise ValueError("no ratings records")
    movies, movie_of, counts = np.unique(records["movie"], return_inverse=True, return_counts=True)
    if movies.size < cfg.top_f:
        raise ValueError(f"need {cfg.top_f} distinct movies, found {movies.size}")
    ranked = np.lexsort((movies, -counts))[: cfg.top_f]
    file_of = np.full(movies.size, -1)
    file_of[ranked] = np.arange(cfg.top_f)
    file_of = file_of[movie_of]  # per record; -1 outside the top F
    users, first, user_of = np.unique(records["user"], return_index=True, return_inverse=True)
    # crc32 rather than hash(): stable across processes and python versions
    bs_of = np.array([zlib.crc32(str(u).encode()) % cfg.n_bs for u in users.tolist()])[user_of]
    ts = records["timestamp"]
    t0 = int(ts.min())
    slot_of = (ts - t0) // (cfg.slot_days * 86400)
    weight = np.ones(len(records)) if cfg.weight == WEIGHT_COUNT else records["rating"]

    if cfg.pairing == PAIRING_SELF:  # each kept record paired with itself
        prev = cur = np.flatnonzero(file_of >= 0)
    else:
        order = np.lexsort((records["movie"], ts, first[user_of]))  # stable
        prev, cur = order[:-1], order[1:]
        keep = ((user_of[prev] == user_of[cur])
                & ~(ts[cur] - ts[prev] > cfg.session_gap_hours * 3600)
                & (file_of[prev] >= 0) & (file_of[cur] >= 0))
        prev, cur = prev[keep], cur[keep]
    stream = np.zeros((int(slot_of.max()) + 1, cfg.top_f, cfg.top_f, cfg.n_bs))
    np.add.at(stream, (slot_of[cur], file_of[prev], file_of[cur], bs_of[cur]), weight[cur])
    return DemandTensorResult(stream, movies[ranked].tolist(), t0)


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
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise_sigma}")
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Masked separable demand stream, one slot at a time: an iterator of
    ``n_slots`` pairs ``(realized, mask)``, the slot's (F, F, N_BS) demands
    and a bool array of the same shape that is True where an entry is
    observed.

    The truth is a two-component separable process (two popularity/
    recommendation profiles with per-BS weights and fluctuating slot scales),
    so every window tensor is low rank in its circular unfoldings. It is
    positive, so ``np.where(mask, realized, 0.0)`` is the observed slot with
    its zeros the missing entries. Each slot observes a fresh uniform random
    fraction of entries.

    The arguments are checked and the profiles drawn at the call; each slot's
    draws are taken as it is produced, in the same order as over the whole
    stream. Each pair is a new pair of arrays; beyond them the iterator holds
    the two profile tensors and one scratch buffer, three slots' worth, so
    draining it holds O(1) slots whatever ``n_slots`` is.
    """
    if not 0.0 < observe_fraction <= 1.0:
        raise ValueError("observe_fraction must be in (0, 1]")
    if num_files < 1 or n_bs < 1 or n_slots < 0:
        raise ValueError(f"need num_files, n_bs >= 1 and n_slots >= 0, "
                         f"got {num_files}, {n_bs}, {n_slots}")
    rng = np.random.default_rng(seed)

    def profile(exponent: float) -> np.ndarray:
        p = 1.0 / np.arange(1, num_files + 1) ** exponent
        rng.shuffle(p)
        return p

    pop1, rec1 = profile(1.1), profile(0.7)
    pop2, rec2 = profile(0.9), profile(0.5)
    w1 = 0.8 + 0.4 * rng.random(n_bs)
    w2 = 0.5 + 0.5 * rng.random(n_bs)
    component1 = np.einsum("f,i,b->fib", pop1, rec1, w1)
    component2 = np.einsum("f,i,b->fib", pop2, rec2, w2)

    def slots():
        scratch = np.empty(component1.shape)  # z2's term, then the slot's uniform draws
        for _ in range(n_slots):
            z1 = abs(1.0 + 0.1 * rng.standard_normal())
            z2 = abs(0.6 + 0.1 * rng.standard_normal())
            # 100 * (z1 * component1 + z2 * component2), one rounding per operation
            realized = np.multiply(z1, component1)
            realized += np.multiply(z2, component2, out=scratch)
            realized *= 100.0
            yield realized, np.less(rng.random(out=scratch), observe_fraction)

    return slots()
