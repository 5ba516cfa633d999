"""One CLI command in a fresh interpreter, as a user runs it, timed in two parts.

Usage: ``python3 worker.py JOB.json RESULT.json``. The job names the
checkout root, the program's own input loader, the CLI argv and whether to
trace. The worker times

- set-up: ``import tenscache.cli`` plus one input load through the loader
  (numpy is not imported before, so its import counts here), then
- the command: ``tenscache.cli.main(argv)``, with spans around the layers'
  public functions when ``trace`` is set,

and writes both times, the exit code, the peak resident memory and any spans
to RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import tenscache.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"tenscache imported from {cli.__file__}, not from {src}")
    return cli


def _load(loader: dict) -> None:
    """Load the input as the CLI command will; the result is dropped so its
    memory is free again before the command runs."""
    kind = loader["kind"]
    if kind == "read_coo":
        from tenscache.tensors import read_coo

        read_coo(loader["path"])
    elif kind == "ratings":
        from tenscache.ingest import IngestConfig, build_demand_tensor, load_ratings

        cfg = IngestConfig(top_f=loader["top_f"], n_bs=loader["n_bs"], pairing=loader["pairing"])
        build_demand_tensor(load_ratings(loader["path"]), cfg)
    elif kind == "synth_lowrank_stream":
        from tenscache.ingest import synth_lowrank_stream

        synth_lowrank_stream(*loader["args"])
    else:
        raise SystemExit(f"unknown loader {kind!r}")


def run(job: dict) -> dict:
    start = time.perf_counter()
    cli = _import_program(Path(job["root"]))
    error = None
    try:
        _load(job["loader"])
    except (OSError, ValueError) as exc:  # the program rejects its input
        error = f"input load failed: {exc!r}"
    setup_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        run_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "code": code,
        "peak_rss_mb": peak_kib / 1024.0,
        "spans": tracer.spans if tracer else [],
    }
    if error:
        result["error"] = error
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
