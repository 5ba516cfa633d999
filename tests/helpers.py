"""Helpers shared by the test modules: test-only generators, views and
reference implementations."""

import importlib.util
import zlib
from pathlib import Path

import numpy as np
import pytest

import tenscache.completion as completion_mod
from tenscache.tensors import UnfoldSpec, fold

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the record layout ``tenscache.ingest.load_ratings`` documents
RATINGS_DTYPE = np.dtype(
    [("user", np.int64), ("movie", np.int64), ("rating", np.float64), ("timestamp", np.int64)])


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path (the
    benchmark is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def step_scale_invariance(t, cfg, budget, scales, rel_tol=1e-8):
    """True iff solves of ``t`` that differ only in the step scale
    (``completion._STEP_SCALE``, set to each of ``scales`` in turn) agree:
    identical mode sequences, per-step ``gamma * scale`` products equal to
    ``rel_tol`` relative, and final iterates equal elementwise to ``rel_tol``
    relative to the largest magnitude."""
    scales = [float(c) for c in scales]
    if len(scales) < 2:
        raise ValueError("need at least two step scales")
    runs = []
    for scale in scales:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(completion_mod, "_STEP_SCALE", scale)
            state, trace = completion_mod.complete(t, cfg, budget)
            runs.append((state.x, [(row.mode, row.gamma * scale) for row in trace]))
    ref_x, ref_trace = runs[0]
    ref_size = max(float(np.abs(ref_x).max()), 1e-300)
    for x, trace in runs[1:]:
        if [mode for mode, _ in trace] != [mode for mode, _ in ref_trace]:
            return False
        for (_, product), (_, ref) in zip(trace, ref_trace):
            if abs(product - ref) > rel_tol * max(abs(product), abs(ref), 1e-300):
                return False
        if float(np.abs(x - ref_x).max()) > rel_tol * ref_size:
            return False
    return True


def gather(t, x):
    """Values of dense ``x`` at the observed positions of ``t``, a
    :class:`tenscache.tensors.SparseTensor`, in ``t``'s entry order."""
    assert x.shape == t.shape, f"shape mismatch {x.shape} vs {t.shape}"
    return x[tuple(t.indices.T)]


def dense_step(step, shape, shift):
    """The step tensor ``S`` of a :class:`tenscache.completion.GradientStep`
    for a solve of ``shape`` and ``shift``: its mode unfolding folded back."""
    return fold(step.matrix(), UnfoldSpec(step.mode, shift), shape)


def reconstruct(trip):
    """``u @ diag(sigma) @ v.T`` of a :class:`tenscache.svd.SvdTriplet`."""
    return (trip.u * trip.sigma) @ trip.v.T


def reference_coo_text(shape, columns, values) -> str:
    """The COO text of a tensor of ``shape`` whose entries have the 0-based
    indices ``columns`` (one array per dimension) and ``values``, formed one
    line at a time: the ``# shape:`` header, then ``i1,...,iN,value`` per
    entry with 1-based indices and the ``repr`` of the value as a Python
    float. Both COO writers must write exactly these bytes."""
    lines = ["# shape: " + "x".join(str(s) for s in shape)]
    entries = zip(*(np.asarray(col).tolist() for col in columns),
                  np.asarray(values, dtype=np.float64).tolist())
    lines += [",".join([str(i + 1) for i in idx] + [repr(v)]) for *idx, v in entries]
    return "\n".join(lines) + "\n"


def ratings(rows):
    """A ratings record array from ``(user, movie, rating, timestamp)`` rows."""
    return np.array(rows, dtype=RATINGS_DTYPE)


def reference_demand_slots(records, cfg):
    """The per-record loop ``build_demand_tensor`` replaced: the top-F movies
    by a count dict, then one scalar ``+=`` per (paired) record into a list
    of (F, F, N_BS) slots. Returns ``(slots, movie_ids, start_timestamp)``."""
    records = records.tolist()  # (user, movie, rating, timestamp) tuples
    counts: dict[int, int] = {}
    for _, movie, _, _ in records:
        counts[movie] = counts.get(movie, 0) + 1
    ranked = sorted(counts, key=lambda m: (-counts[m], m))[: cfg.top_f]
    movie_index = {m: i for i, m in enumerate(ranked)}
    t0 = min(r[3] for r in records)
    slot_seconds = cfg.slot_days * 86400
    n_slots = (max(r[3] for r in records) - t0) // slot_seconds + 1
    slots = [np.zeros((cfg.top_f, cfg.top_f, cfg.n_bs)) for _ in range(n_slots)]

    def bs_of(user):
        return zlib.crc32(str(user).encode()) % cfg.n_bs

    def weight_of(rec):
        return 1.0 if cfg.weight == "count" else rec[2]

    if cfg.pairing == "self":
        for rec in records:
            f = movie_index.get(rec[1])
            if f is not None:
                slots[(rec[3] - t0) // slot_seconds][f, f, bs_of(rec[0])] += weight_of(rec)
    else:
        gap = cfg.session_gap_hours * 3600
        by_user: dict[int, list] = {}
        for rec in records:
            by_user.setdefault(rec[0], []).append(rec)
        for user, recs in by_user.items():
            recs.sort(key=lambda r: (r[3], r[1]))
            for prev, cur in zip(recs, recs[1:]):
                if cur[3] - prev[3] > gap:
                    continue
                f = movie_index.get(prev[1])
                i = movie_index.get(cur[1])
                if f is None or i is None:
                    continue
                slots[(cur[3] - t0) // slot_seconds][f, i, bs_of(user)] += weight_of(cur)
    return slots, ranked, t0


def synth_request_stream(
    num_files: int,
    n_bs: int,
    n_slots: int,
    requests_per_slot: int = 3000,
    zipf_a: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Stationary random request counts with Zipf popularity (diagonal
    demands), as a (n_slots, F, F, N_BS) stream.

    Each (slot, bs) draws ``requests_per_slot`` requests multinomially from a
    shuffled Zipf law shared across slots and base stations.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, num_files + 1) ** zipf_a
    rng.shuffle(pop)
    pop /= pop.sum()
    files = np.arange(num_files)
    stream = np.zeros((n_slots, num_files, num_files, n_bs))
    for t in range(n_slots):
        for b in range(n_bs):
            stream[t, files, files, b] = rng.multinomial(requests_per_slot, pop)
    return stream


def stacked(pairs):
    """A stream of ``(realized, mask)`` slot pairs as two arrays, each stacked
    along a new first (slot) axis; ``zip(*stacked(pairs))`` gives the pairs
    back."""
    realized, masks = zip(*pairs)
    return np.stack(realized), np.stack(masks)


def reference_lowrank_stream(num_files, n_bs, n_slots, observe_fraction=0.05, seed=0):
    """An eager generator ``synth_lowrank_stream`` replaced, which held the
    whole stream, and the observed stream as a second dense array:
    ``(observed, truth)``, with the unobserved entries of ``observed`` zero."""
    rng = np.random.default_rng(seed)

    def profile(exponent):
        p = 1.0 / np.arange(1, num_files + 1) ** exponent
        rng.shuffle(p)
        return p

    pop1, rec1 = profile(1.1), profile(0.7)
    pop2, rec2 = profile(0.9), profile(0.5)
    w1 = 0.8 + 0.4 * rng.random(n_bs)
    w2 = 0.5 + 0.5 * rng.random(n_bs)
    component1 = np.einsum("f,i,b->fib", pop1, rec1, w1)
    component2 = np.einsum("f,i,b->fib", pop2, rec2, w2)
    truth = np.empty((n_slots, num_files, num_files, n_bs))
    observed = np.empty_like(truth)
    for t in range(n_slots):
        z1 = abs(1.0 + 0.1 * rng.standard_normal())
        z2 = abs(0.6 + 0.1 * rng.standard_normal())
        np.multiply(100.0, z1 * component1 + z2 * component2, out=truth[t])
        np.multiply(truth[t], rng.random(truth[t].shape) < observe_fraction, out=observed[t])
    return observed, truth
