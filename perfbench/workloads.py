"""The four benchmark workloads: seeded inputs, CLI argv, output checks, digests.

Each workload is one ``tenscache`` CLI command. Its inputs are generated here
from the benchmark seed before any timing starts, so the program only ever
sees files and flags. The output checks recompute what they can without the
program (the ingest reference counts come straight from the generated
ratings) and otherwise test invariants that every correct output satisfies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# --- workload parameters ------------------------------------------------------
#
# Sizes are chosen so that one CLI command takes a few seconds at one BLAS
# thread, which leaves several timed samples inside one benchmark run.

SIM_SYNTH_SLOTS = 12  # tau=10 at the CLI defaults, so two scored windows
# simulate-synth keeps the CLI's default stream seed: the stream decides which
# unfolding the solver's step uses, and the cheap (3-row) and dear (128-row)
# choices differ by ~40% in run time, so a seed-dependent stream would turn
# the run-to-run spread into a measure of that choice.
SIM_SYNTH_STREAM_SEED = 0
SIM_RAW_SLOTS = 200

COO_SHAPE = (128, 128, 3, 10)
COO_CP_RANK = 4  # equal-weight unit-norm components: low rank in every
# circular unfolding (shift 2 included), with a spectrum that hardly moves
# between seeds, so the final RSE does not either
COO_OBSERVE = 0.2
COO_NOISE = 0.3  # noise std as a share of the observed values' std
COMPLETE_RANKS = (4, 8, 12)

RATINGS_COUNT = 30_000
RATINGS_USERS = 2_000
RATINGS_MOVIES = 1_500
RATINGS_DAYS = 180
RATINGS_T0 = 1_500_000_000
MAX_SESSION = 8  # ratings per session, uniform in 1..MAX_SESSION

# CLI defaults the ingest reference count depends on (see ``tenscache.cli``).
INGEST_TOP_F = 128
INGEST_BS = 3
INGEST_SLOT_DAYS = 30
INGEST_GAP_S = 6 * 3600

HIT_RATE_TOL = 1e-12
RSE_TOL = 1e-12  # relative slack for a rounding-level rise between trace rows


@dataclass
class Inputs:
    """Generated inputs: CLI argv (``{out}`` marks the output directory),
    the program's own loader for the set-up timing, and reference data for
    the output checks."""

    argv: list[str]
    loader: dict
    reference: dict = field(default_factory=dict)


# --- generators -----------------------------------------------------------------


def write_coo_fixture(seed: int, path: Path) -> None:
    """Noisy partially observed CP-rank tensor in the COO text format.

    A CP (sum of outer products) tensor of rank ``COO_CP_RANK`` has that rank
    or less in every circular unfolding, so it is low rank under shift 2. The
    noise keeps the observed-entry RSE well above the rounding level.
    """
    rng = np.random.default_rng([seed, 1])
    factors = [rng.standard_normal((n, COO_CP_RANK)) for n in COO_SHAPE]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    truth = np.einsum("ar,br,cr,dr->abcd", *factors)
    nnz = int(round(COO_OBSERVE * truth.size))
    flat = np.sort(rng.choice(truth.size, size=nnz, replace=False))
    idx = np.stack(np.unravel_index(flat, COO_SHAPE), axis=1)
    values = truth[tuple(idx.T)]
    values = values + COO_NOISE * values.std() * rng.standard_normal(nnz)
    lines = [f"{a + 1},{b + 1},{c + 1},{d + 1},{v!r}\n"
             for (a, b, c, d), v in zip(idx.tolist(), values.tolist())]
    with open(path, "w") as fh:
        fh.write("# shape: " + "x".join(str(n) for n in COO_SHAPE) + "\n")
        fh.writelines(lines)


def write_ratings(seed: int, path: Path) -> dict:
    """MovieLens-format ratings (``userId,movieId,rating,timestamp``).

    Users rate in sessions of 1..``MAX_SESSION`` movies a few minutes apart;
    movies are drawn from a Zipf(1) popularity law over sparse ids; the file
    is sorted by timestamp. Returns the reference per-slot co-session demand
    mass computed from the generated rows alone.
    """
    rng = np.random.default_rng([seed, 2])
    n_sessions = RATINGS_COUNT * 2 // (MAX_SESSION + 1)
    lengths = rng.integers(1, MAX_SESSION + 1, size=n_sessions)
    n = int(lengths.sum())
    session = np.repeat(np.arange(n_sessions), lengths)
    users = rng.integers(1, RATINGS_USERS + 1, size=n_sessions)[session]
    starts = rng.integers(0, RATINGS_DAYS * 86400 - MAX_SESSION * 3600, size=n_sessions)
    gaps = rng.integers(60, 3600, size=n)
    first = np.cumsum(lengths) - lengths  # index of each session's first rating
    offsets = np.cumsum(gaps) - np.repeat(np.cumsum(gaps)[first] - gaps[first], lengths)
    ts = RATINGS_T0 + starts[session] + offsets
    pop = 1.0 / np.arange(1, RATINGS_MOVIES + 1)
    ids = rng.permutation(RATINGS_MOVIES) * 7 + 3
    movies = ids[rng.choice(RATINGS_MOVIES, size=n, p=pop / pop.sum())]
    stars = rng.integers(1, 11, size=n) / 2.0
    order = np.lexsort((movies, users, ts))
    ts, users, movies, stars = ts[order], users[order], movies[order], stars[order]
    with open(path, "w") as fh:
        fh.write("userId,movieId,rating,timestamp\n")
        fh.writelines(f"{u},{m},{r},{t}\n" for u, m, r, t in
                      zip(users.tolist(), movies.tolist(), stars.tolist(), ts.tolist()))
    return {"slot_mass": _cosession_mass(users, movies, ts)}


def _cosession_mass(users, movies, ts) -> list[float]:
    """Per-slot count of consecutive same-user rating pairs at most the
    session gap apart whose two movies are both in the top-F by count."""
    ids, counts = np.unique(movies, return_counts=True)
    top = ids[np.lexsort((ids, -counts))[:INGEST_TOP_F]]
    slot_s = INGEST_SLOT_DAYS * 86400
    n_slots = int((ts.max() - ts.min()) // slot_s + 1)
    order = np.lexsort((movies, ts, users))  # per user, by (timestamp, movie)
    u, m, t = users[order], movies[order], ts[order]
    keep = ((u[1:] == u[:-1]) & (t[1:] - t[:-1] <= INGEST_GAP_S)
            & np.isin(m[1:], top) & np.isin(m[:-1], top))
    slots = (t[1:][keep] - ts.min()) // slot_s
    return np.bincount(slots, minlength=n_slots).astype(float).tolist()


# --- workload definitions -----------------------------------------------------------


def simulate_synth(seed: int, work: Path) -> Inputs:
    return Inputs(
        argv=["--out", "{out}", "simulate", "--slots", str(SIM_SYNTH_SLOTS)],
        loader={"kind": "synth_lowrank_stream",
                "args": [128, 3, SIM_SYNTH_SLOTS, 0.05, SIM_SYNTH_STREAM_SEED]},
    )


def simulate_raw(seed: int, work: Path) -> Inputs:
    return Inputs(
        argv=["--out", "{out}", "simulate", "--completion", "off",
              "--slots", str(SIM_RAW_SLOTS), "--seed", str(seed)],
        loader={"kind": "synth_lowrank_stream", "args": [128, 3, SIM_RAW_SLOTS, 0.05, seed]},
    )


def complete_rank1(seed: int, work: Path) -> Inputs:
    path = work / "fixture.coo"
    write_coo_fixture(seed, path)
    return Inputs(
        argv=["--out", "{out}", "complete", str(path), "--rank",
              ",".join(map(str, COMPLETE_RANKS)), "--shift", "2", "--update", "rank1"],
        loader={"kind": "read_coo", "path": str(path)},
    )


def ingest_ratings(seed: int, work: Path) -> Inputs:
    path = work / "ratings.csv"
    ref = write_ratings(seed, path)
    return Inputs(
        argv=["--out", "{out}", "ingest", str(path), "--pairing", "cosession"],
        loader={"kind": "ratings", "path": str(path), "top_f": INGEST_TOP_F,
                "n_bs": INGEST_BS, "pairing": "cosession"},
        reference=ref,
    )


GENERATORS = {
    "simulate-synth": simulate_synth,
    "complete-rank1": complete_rank1,
    "simulate-raw": simulate_raw,
    "ingest-ratings": ingest_ratings,
}


# --- output checks and quality ------------------------------------------------


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_simulate(out: Path, completed: bool) -> tuple[list[str], dict]:
    """Hit rates lie in [0, 1] and no method beats the oracle on any
    (slot, bs). Returns the problems found and the mean hit rates."""
    problems = []
    _, summary = _csv_rows(out / "summary.csv")
    rates = {}
    for method, _, rate in summary:
        rates.setdefault(method, []).append(float(rate))
    _, slots = _csv_rows(out / "slots.csv")
    oracle = {(s, b): float(h) for s, b, m, h in slots if m == "oracle"}
    for slot, bs, method, h in slots:
        h = float(h)
        if not 0.0 <= h <= 1.0:
            problems.append(f"slots.csv: {method} hit rate {h} at ({slot},{bs}) outside [0,1]")
        if (slot, bs) not in oracle or h > oracle[slot, bs] + HIT_RATE_TOL:
            problems.append(f"slots.csv: {method} beats the oracle at ({slot},{bs})")
    for method, values in rates.items():
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"summary.csv: {method} average outside [0,1]")
    kinds = {"completed": [], "raw": []}
    for method, values in rates.items():
        for kind in kinds:
            if method.endswith("-" + kind):
                kinds[kind].extend(values)
    if not kinds["raw"] or completed != bool(kinds["completed"]):
        problems.append("summary.csv: missing method rows")
    means = {f"hit_rate_{k}": float(np.mean(v)) for k, v in kinds.items() if v}
    return problems, means


def check_complete(out: Path) -> tuple[list[str], dict]:
    """Each trace starts at RSE 1.0, never rises, and spends at most its budget."""
    problems, finals = [], []
    for rank in COMPLETE_RANKS:
        path = out / f"trace-R{rank}.csv"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        header, rows = _csv_rows(path)
        rse = [float(r[header.index("rse")]) for r in rows]
        if not rse or rse[0] != 1.0:
            problems.append(f"{path.name}: trace does not start at RSE 1.0")
            continue
        if any(b > a * (1.0 + RSE_TOL) for a, b in zip(rse, rse[1:])):
            problems.append(f"{path.name}: RSE increases")
        if len(rse) - 1 > rank:
            problems.append(f"{path.name}: {len(rse) - 1} rank-1 steps exceed budget {rank}")
        finals.append(rse[-1])
    return problems, {"final_rse": float(np.mean(finals)) if finals else 1.0}


def check_ingest(out: Path, reference: dict) -> tuple[list[str], dict]:
    """Slot count and per-slot demand mass match the reference counts."""
    problems = []
    expected = reference["slot_mass"]
    files = sorted(out.glob("slot_*.coo"))
    if len(files) != len(expected):
        problems.append(f"{len(files)} slot files, expected {len(expected)}")
    header = "# shape: " + "x".join(map(str, (INGEST_TOP_F, INGEST_TOP_F, INGEST_BS)))
    mass = []
    for path in files:
        with open(path) as fh:
            if fh.readline().strip() != header:
                problems.append(f"{path.name}: bad shape header")
            mass.append(sum(float(line.rsplit(",", 1)[1]) for line in fh))
    for i, (got, want) in enumerate(zip(mass, expected), start=1):
        if got != want:
            problems.append(f"slot {i}: demand mass {got}, expected {want}")
    return problems, {"mass_recall": sum(mass) / sum(expected)}


def check(workload: str, out: Path, inputs: Inputs) -> tuple[list[str], float, dict]:
    """Problems found in one command's outputs, the workload's ``quality``
    and the named quality figures behind it."""
    if workload == "complete-rank1":
        problems, figures = check_complete(out)
        return problems, 1.0 - figures["final_rse"], figures
    if workload == "ingest-ratings":
        problems, figures = check_ingest(out, inputs.reference)
        return problems, figures["mass_recall"], figures
    completed = workload == "simulate-synth"
    problems, figures = check_simulate(out, completed)
    key = "hit_rate_completed" if completed else "hit_rate_raw"
    return problems, figures.get(key, 0.0), figures


# --- output digests ------------------------------------------------------------------


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file except the manifests, with the
    ``# manifest:`` line and any ``elapsed_s`` column removed from CSVs, so
    that two runs with identical numbers give identical digests."""
    result = {}
    for path in sorted(out.iterdir()):
        if path.name.startswith("manifest-"):
            continue
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = _strip_csv(data.decode())
        result[path.name] = hashlib.sha256(data).hexdigest()
    return result


def _strip_csv(text: str) -> bytes:
    lines = [ln for ln in text.splitlines() if not ln.startswith("# manifest:")]
    header = lines[0].split(",") if lines else []
    if "elapsed_s" in header:
        i = header.index("elapsed_s")
        lines = [",".join(c[:i] + c[i + 1:]) for c in (ln.split(",") for ln in lines)]
    return ("\n".join(lines) + "\n").encode()
