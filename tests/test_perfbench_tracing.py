"""The traced benchmark (perfbench/tracing.py) still finds every function it
wraps, and traced CLI commands run to exit 0."""

import importlib

import pytest

from helpers import load_perfbench
import tenscache.cli as cli
import tenscache.completion as completion
from tenscache.tensors import read_coo


def test_wrapped_names_resolve():
    for module, attr, _, _ in load_perfbench("tracing").WRAPPED:
        target = importlib.import_module(f"tenscache.{module}")
        assert callable(getattr(target, attr, None)), f"tenscache.{module}.{attr}"


def test_traced_commands_exit_0(tmp_path, monkeypatch):
    tracing = load_perfbench("tracing")
    assert cli.main(["--out", str(tmp_path), "synth", "8,8,3,4", "--observe", "0.4"]) == 0
    for module, attr, _, _ in tracing.WRAPPED:  # put every wrapped name back afterwards
        target = importlib.import_module(f"tenscache.{module}")
        monkeypatch.setattr(target, attr, getattr(target, attr))
    # the bench counts the factorizations' flops on the unfolding's shape, not the Gram's
    flops = {"dominant_sigma": 0, "truncated_svd": 0}
    for name in flops:
        monkeypatch.setattr(completion, name, recording(getattr(completion, name), flops, name))
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main(["--out", str(tmp_path / "c"), "complete", str(tmp_path / "observed.coo"),
                     "--rank", "2,4"]) == 0
    assert cli.main(["--out", str(tmp_path / "s"), "simulate", "--slots", "12", "--files", "16",
                     "--cache", "4", "--ranks", "2,4"]) == 0
    names = [span["name"] for span in tracer.spans]
    assert {"cli.main", "svd.truncated_svd", "completion.apply_update"} <= set(names)
    # every CSV (two traces, slots and summary) goes through a wrapped writer, which the bench times
    assert names.count("cli.write_csv") == 4
    metrics = tracing.layer_metrics([tracer.spans])
    assert metrics["svd.truncated_svd.calls"] > 0
    assert metrics["svd.dominant_sigma.flops"] == flops["dominant_sigma"] > 0
    assert metrics["svd.truncated_svd.flops"] == flops["truncated_svd"] > 0


def recording(fn, flops, name):
    """``fn`` adding ``rows * cols * min(rows, cols)`` of each call's
    unfolding (the scaled copy its Gram holds) to ``flops[name]``."""
    def call(gram, *args, **kwargs):
        rows, cols = gram.a.shape
        flops[name] += rows * cols * min(rows, cols)
        return fn(gram, *args, **kwargs)
    return call


def traced_metrics(tracing, argv) -> dict:
    """Per-layer metrics of one traced CLI command; the wrappers are taken
    off again afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        for module, attr, _, _ in tracing.WRAPPED:
            target = importlib.import_module(f"tenscache.{module}")
            mp.setattr(target, attr, getattr(target, attr))
        tracer = tracing.Tracer()
        tracer.install()
        assert cli.main(argv) == 0
    return tracing.layer_metrics([tracer.spans])


def entry_lines(paths) -> int:
    return sum(1 for path in paths for line in path.read_text().splitlines()
               if line.strip() and not line.startswith("#"))


def test_traced_coo_counts_match_the_files(tmp_path):
    # the bench's COO counters count what the readers and writers handle
    tracing = load_perfbench("tracing")
    synth = tmp_path / "synth"
    m = traced_metrics(tracing, ["--out", str(synth), "synth", "6,5,3,4", "--observe", "0.3",
                                 "--truth-out", "truth.coo"])
    assert m["tensors.write_coo.lines"] == entry_lines(synth.glob("*.coo")) == 6 * 5 * 3 * 4 + 108

    ratings = tmp_path / "ratings.csv"
    ratings.write_text("".join(f"{u % 7 + 1},{u % 9 + 1},4.0,{1000 + 3600 * u}\n"
                               for u in range(60)))
    ingest = tmp_path / "ingest"
    m = traced_metrics(tracing, ["--out", str(ingest), "ingest", str(ratings), "--top-f", "5",
                                 "--bs", "2", "--slot-days", "1", "--pairing", "cosession"])
    slots = sorted(ingest.glob("slot_*.coo"))
    assert len(slots) == 3
    assert m["tensors.write_coo.lines"] == entry_lines(slots) == 3 * 5 * 5 * 2

    m = traced_metrics(tracing, ["--out", str(tmp_path / "c"), "complete",
                                 str(synth / "observed.coo"), "--rank", "2"])
    assert m["tensors.read_coo.entries"] == read_coo(synth / "observed.coo").nnz == 108
