"""The traced benchmark (perfbench/tracing.py) still finds every function it
wraps, and traced CLI commands run to exit 0."""

import importlib
import importlib.util
from pathlib import Path

import tenscache.cli as cli

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
