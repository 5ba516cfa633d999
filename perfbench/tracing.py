"""Spans around the tenscache layers, recorded from outside the program.

Modules bind imported names at import time (``from .svd import
dominant_sigma``), so a wrapper only sees calls when it replaces the name in
the namespace of the module that makes the call: ``tenscache.completion.
dominant_sigma``, not ``tenscache.svd.dominant_sigma``. Each span records its
name, start, end, parent span and run id (one run is one CLI command), plus
work counts computed from argument and result shapes. Spans stay in memory
until the run ends; :func:`layer_metrics` turns them into the per-layer
metrics, deriving self time as a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import time
from collections import defaultdict


def _flops(args, result) -> dict:
    m = args[0]
    return {"flops": m.shape[0] * m.shape[1] * min(m.shape)}


def _completion_key(args, result) -> dict:
    """Identify the completion's input: the tensor and the solver settings.
    The config's seed is left out; the solver does not read it, and the CLI
    gives each (predictor, rank) cell its own."""
    t, cfg = args
    settings = {k: v for k, v in vars(cfg).items() if k != "seed"}
    h = hashlib.blake2b(repr(sorted(settings.items())).encode(), digest_size=16)
    h.update(t.indices.tobytes())
    h.update(t.values.tobytes())
    return {"key": h.hexdigest(), "steps": len(result[1]) - 1}


# (module, attribute, span name, work counts from (args, result))
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("cli", "run_online", "caching.run_online", None),
    ("cli", "complete", "completion.complete", lambda a, r: {"steps": len(r[1]) - 1}),
    ("cli", "write_report_csv", "cli.write_csv", None),
    ("cli", "write_summary_csv", "cli.write_csv", None),
    ("cli", "write_trace_csv", "cli.write_csv", None),
    ("cli", "read_coo", "tensors.read_coo", lambda a, r: {"entries": r.nnz}),
    ("cli", "write_coo_dense", "tensors.write_coo", lambda a, r: {"lines": a[1].size}),
    ("cli", "write_coo_sparse", "tensors.write_coo", lambda a, r: {"lines": a[1].nnz}),
    ("cli", "load_ratings", "ingest.load_ratings", lambda a, r: {"records": len(r)}),
    ("cli", "build_demand_tensor", "ingest.build_demand_tensor", None),
    ("cli", "synth_lowrank_stream", "ingest.synth_lowrank_stream", None),
    ("caching", "complete", "completion.complete", _completion_key),
    ("caching", "SparseTensor", "tensors.sparse_tensor", None),
    ("caching", "normalize_demands", "prediction.normalize_demands", None),
    ("caching", "fit_predict", "prediction.fit_predict",
     lambda a, r: {"fallbacks": int(r.used_fallback)}),
    ("caching", "mpc_place", "caching.mpc_place", None),
    ("caching", "oracle_place", "caching.oracle_place", None),
    ("caching", "hit_rate", "caching.hit_rate", None),
    ("completion", "select_mode", "completion.select_mode", None),
    ("completion", "gradient_step", "completion.gradient_step", None),
    ("completion", "line_search", "completion.line_search", None),
    ("completion", "apply_update", "completion.apply_update", None),
    ("completion", "dominant_sigma", "svd.dominant_sigma", _flops),
    ("completion", "truncated_svd", "svd.truncated_svd", _flops),
    ("completion", "unfold", "tensors.unfold", lambda a, r: {"bytes": r.nbytes}),
    ("completion", "fold", "tensors.fold", None),
    ("tensors", "SparseTensor", "tensors.sparse_tensor", None),
]

LAYERS = ("svd", "tensors", "completion", "caching", "prediction", "ingest", "cli")


class Tracer:
    """Installs the wrappers and holds the spans of one process."""

    def __init__(self, run_id: int = 0):
        self.spans: list[dict] = []
        self.run_id = run_id
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, counts in WRAPPED:
            mod = importlib.import_module(f"tenscache.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, counts))

    def _wrap(self, fn, name: str, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1, "run": self.run_id}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts:
                span.update(counts(args, result))
            return result

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one CLI command from its spans."""
    # oracle_place places through mpc_place; that call is the oracle's work,
    # not the predictor's, so it is left to the enclosing oracle_place span.
    # Span indices stay those of the full list, which parent ids point into.
    kept = [(i, sp) for i, sp in enumerate(spans) if not (
        sp["name"] == "caching.mpc_place" and sp["parent"] >= 0
        and spans[sp["parent"]]["name"] == "caching.oracle_place")]
    child_s: dict[int, float] = defaultdict(float)
    for _, sp in kept:
        if sp["parent"] >= 0:
            child_s[sp["parent"]] += sp["end"] - sp["start"]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    keys = set()
    for i, sp in kept:
        name, dur = sp["name"], sp["end"] - sp["start"]
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child_s[i]
        for k in ("flops", "bytes", "entries", "lines", "records", "fallbacks", "steps"):
            if k in sp:
                work[f"{name}.{k}"] += sp[k]
        if "key" in sp:
            keys.add(sp["key"])
    run_s = total["cli.main"]
    steps = work["completion.complete.steps"]
    cached_completions = sum(1 for sp in spans if "key" in sp)
    m = {}
    for fn in ("svd.dominant_sigma", "svd.truncated_svd"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = own[fn]
        m[f"{fn}.flops"] = work[f"{fn}.flops"]
    m["svd.calls_per_step"] = _ratio(calls["svd.dominant_sigma"] + calls["svd.truncated_svd"], steps)
    for fn in ("tensors.unfold", "tensors.fold", "tensors.sparse_tensor"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.self_s"] = own[fn]
    m["tensors.unfold.bytes"] = work["tensors.unfold.bytes"]
    m["tensors.read_coo.s"] = total["tensors.read_coo"]
    m["tensors.read_coo.entries"] = work["tensors.read_coo.entries"]
    m["tensors.write_coo.s"] = total["tensors.write_coo"]
    m["tensors.write_coo.lines"] = work["tensors.write_coo.lines"]
    m["completion.complete.calls"] = calls["completion.complete"]
    m["completion.complete.self_s"] = own["completion.complete"]
    m["completion.steps"] = steps
    m["completion.select_mode.self_s"] = own["completion.select_mode"]
    m["completion.gradient_step.self_s"] = own["completion.gradient_step"]
    for fn in ("completion.line_search", "completion.apply_update"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.s"] = total[fn]
    m["completion.step_yield"] = _ratio(calls["completion.apply_update"],
                                        calls["completion.gradient_step"])
    m["caching.run_online.self_s"] = own["caching.run_online"]
    for fn in ("caching.mpc_place", "caching.oracle_place", "caching.hit_rate",
               "prediction.normalize_demands", "prediction.fit_predict"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.s"] = total[fn]
    m["caching.completion_yield"] = _ratio(len(keys), cached_completions)
    m["prediction.fallbacks"] = work["prediction.fit_predict.fallbacks"]
    m["ingest.load_ratings.s"] = total["ingest.load_ratings"]
    m["ingest.load_ratings.records"] = work["ingest.load_ratings.records"]
    m["ingest.build_demand_tensor.s"] = total["ingest.build_demand_tensor"]
    m["ingest.synth_lowrank_stream.s"] = total["ingest.synth_lowrank_stream"]
    m["cli.main.self_s"] = own["cli.main"]
    m["cli.write_csv.s"] = total["cli.write_csv"]
    for layer in LAYERS:
        layer_self = sum(s for name, s in own.items() if name.startswith(layer + "."))
        m[f"layer.{layer}.share"] = _ratio(layer_self, run_s)
    return m


def layer_metrics(runs: list[list[dict]]) -> dict[str, float]:
    """Median over the traced CLI commands (one span list each) of each
    per-layer metric."""
    per_run = [_run_metrics(spans) for spans in runs]
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
