"""The traced benchmark (perfbench/tracing.py) still finds every function it
wraps, and traced CLI commands run to exit 0."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tenscache.cli as cli
from tenscache.tensors import read_coo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    for module, attr, _, _ in load_tracing().WRAPPED:
        target = importlib.import_module(f"tenscache.{module}")
        assert callable(getattr(target, attr, None)), f"tenscache.{module}.{attr}"


def test_traced_commands_exit_0(tmp_path, monkeypatch):
    tracing = load_tracing()
    assert cli.main(["--out", str(tmp_path), "synth", "8,8,3,4", "--observe", "0.4"]) == 0
    for module, attr, _, _ in tracing.WRAPPED:  # put every wrapped name back afterwards
        target = importlib.import_module(f"tenscache.{module}")
        monkeypatch.setattr(target, attr, getattr(target, attr))
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main(["--out", str(tmp_path / "c"), "complete", str(tmp_path / "observed.coo"),
                     "--rank", "2,4"]) == 0
    assert cli.main(["--out", str(tmp_path / "s"), "simulate", "--slots", "12", "--files", "16",
                     "--cache", "4", "--ranks", "2,4"]) == 0
    names = {span["name"] for span in tracer.spans}
    assert {"cli.main", "svd.truncated_svd", "completion.apply_update"} <= names
    assert tracing.layer_metrics([tracer.spans])["svd.truncated_svd.calls"] > 0


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
    tracing = load_tracing()
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
