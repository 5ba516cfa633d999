"""Batch experiment driver: completion traces, caching simulations, ingestion.

Every command writes a JSON manifest (full config echo, code version,
wall-clock totals) next to its outputs, and every CSV starts with a
``# manifest: <file>`` comment naming the manifest that produced it. Flag
values win over config-file values, which win over the built-in defaults.
The config file is a flat ``key = value`` file (TOML-style subset: strings,
numbers, booleans, ``[a, b]`` lists; ``#`` comments); its keys are those of
``SETTINGS``.

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import zlib
from pathlib import Path

from . import __version__
from .caching import OnlineConfig, OnlineResult, run_online
# ``complete`` is not called here; perfbench/tracing.py wraps it in this namespace
from .completion import FwConfig, TraceRow, complete, complete_sweep  # noqa: F401
from .ingest import (
    IngestConfig,
    build_demand_tensor,
    load_ratings,
    synth_low_rank,
    synth_lowrank_stream,
)
from .tensors import read_coo, write_coo_dense, write_coo_sparse

OUT_DIR_ENV = "TENSCACHE_OUT_DIR"


class UsageError(ValueError):
    """Bad input or flags; maps to exit code 2."""


def _integer(name: str, least: int | None = None):
    """Parser of an integer setting: an int, an integral float or an integer
    string; a bool, a non-integral value (never truncated) or a value below
    ``least`` is a usage error."""
    def parse(value) -> int:
        number = None
        if not (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
            with contextlib.suppress(ValueError):
                number = int(value)
        if number is None:
            raise UsageError(f"{name} must be an integer, got {value!r}")
        if least is not None and number < least:
            raise UsageError(f"{name} must be >= {least}, got {number}")
        return number
    return parse


def _real(name: str):
    """Parser of a real setting: a number or a numeric string; a bool or
    anything else is a usage error, not read as 1.0 or 0.0."""
    def parse(value) -> float:
        if not isinstance(value, bool):
            with contextlib.suppress(ValueError):
                return float(value)
        raise UsageError(f"{name} must be a number, got {value!r}")
    return parse


def _num_list(spec, name: str, **bounds) -> list[int]:
    """A comma list of integers, each read by ``_integer(name, **bounds)``; an
    empty one is a usage error."""
    parse = _integer(name, **bounds)
    items = [parse(s) for s in str(spec).split(",") if s.strip()]
    if not items:
        raise UsageError(f"{name} needs at least one value, got {str(spec)!r}")
    return items


def _sweep(name: str, **bounds):
    """Parser of a sweep list: each value is solved and written once, at its first place."""
    return lambda spec: list(dict.fromkeys(_num_list(spec, name, **bounds)))


def _mode_ranks(value):
    """The ``mode_ranks`` setting: ``None`` (2 per mode, filled in by ``synth``) or a list."""
    return None if value is None else _num_list(value, "mode_ranks")


def _as_given(value):
    """Parser of a setting that its consumer checks, naming a bad value as given."""
    return value


def _predictors(value) -> tuple[str, ...]:
    """The ``predictor`` setting (``lp``, ``mean`` or ``both``) as the predictors to run."""
    value = str(value)
    return ("lp", "mean") if value == "both" else (value,)


def _completions(value) -> tuple[bool, ...]:
    """The ``completion`` setting (a bool, ``on``, ``off`` or ``both``) as the
    treatments to score (see ``OnlineConfig.completion``)."""
    if isinstance(value, bool):
        return (value,)
    choices = {"on": (True,), "off": (False,), "both": (True, False)}
    if value not in choices:
        raise UsageError(f"completion must be a bool, on, off or both; got {value!r}")
    return choices[value]


# key: (default, parser of the value from flag, config file or default, keywords of --key)
SETTINGS = {
    "rank": ("8", _sweep("rank", least=1), {"help": "rank budget, comma list for a sweep"}),
    "shift": (1, _integer("shift"), {}),
    "update": ("multi", _as_given, {"choices": ["multi", "rank1"]}),
    "seed": (0, _integer("seed", 0), {}),
    "tau": (10, _integer("tau"), {}),
    "order": (6, _integer("order", 1), {}),
    "cache": (32, _integer("cache"), {}),
    "bs": (3, _integer("bs", 1), {}),
    "files": (128, _integer("files"), {}),
    "ranks": ("8,16,24", _sweep("ranks", least=1), {"help": "comma list of completion rank budgets"}),
    "predictor": ("both", _predictors, {"choices": ["lp", "mean", "both"]}),
    "completion": ("both", _completions, {"choices": ["on", "off", "both"]}),
    "slots": (40, _integer("slots", 1), {"help": "synthetic stream length"}),
    "observe": (0.05, _real("observe"), {"help": "observed fraction of the synthetic data"}),
    "top_f": (128, _integer("top_f"), {}),
    "slot_days": (30, _integer("slot_days"), {}),
    "pairing": ("self", str, {"choices": ["self", "cosession"]}),
    "gap_hours": (6.0, _real("gap_hours"), {}),
    "weight": ("count", str, {"choices": ["count", "stars"]}),
    "noise": (0.0, _real("noise"), {}),
    "mode_ranks": (None, _mode_ranks, {"help": "per-mode ranks (default 2 each)"}),
}

# the settings each command reads, in the order they are parsed
COMMAND_SETTINGS = {
    "complete": ("rank", "shift", "update"),
    "simulate": ("tau", "order", "cache", "bs", "files", "shift", "seed", "ranks",
                 "predictor", "completion", "slots", "observe"),
    "ingest": ("top_f", "bs", "slot_days", "pairing", "gap_hours", "weight"),
    "synth": ("seed", "observe", "noise", "shift", "mode_ranks"),
}


def _read_config_file(path: Path) -> dict:
    """Parse the flat TOML-style subset: ``key = value`` per line."""
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[name] = _parse_config_value(val)
    return out


def _parse_config_value(val: str):
    if val.startswith("[") and val.endswith("]"):
        return ",".join(str(_parse_config_value(v.strip())) for v in val[1:-1].split(","))
    if val.startswith('"') and val.endswith('"') or val.startswith("'") and val.endswith("'"):
        return val[1:-1]
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        return val


def _settings(args, config: dict) -> dict:
    """The command's settings, each from its flag, else the config file, else
    its default, parsed."""
    out = {}
    for key in COMMAND_SETTINGS[args.command]:
        default, parse, _ = SETTINGS[key]
        flag = getattr(args, key)
        out[key] = parse(flag if flag is not None else config.get(key, default))
    return out


def _out_path(args) -> Path:
    """The output directory: ``--out``, else ``$TENSCACHE_OUT_DIR``, else the current one."""
    return Path(getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) or ".")


def _out_dir(args) -> Path:
    """The output directory, made if it does not exist."""
    path = _out_path(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_ratings(path: Path):
    """The records of a ratings file; a missing or empty file is a usage error."""
    if not path.exists():
        raise UsageError(f"ratings file not found: {path}")
    records = load_ratings(path)
    if len(records) == 0:
        raise UsageError(f"ratings file is empty: {path}")
    return records


def _write_manifest(out_dir: Path, command: str, config: dict, wall_s: float,
                    outputs: list[str]) -> str:
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "wall_s": wall_s,
        "outputs": outputs,
    }
    tag = f"{zlib.crc32(json.dumps(manifest['config'], sort_keys=True).encode()):08x}"
    name = f"manifest-{command}-{tag}.json"
    (out_dir / name).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return name


def _write_csv(path: Path, manifest: str, header: str, rows) -> None:
    """Write ``path``: a ``# manifest:`` line naming the run's manifest, the
    ``header``, then each row's values joined by commas (a python float as its repr)."""
    with open(path, "w") as fh:
        fh.write(f"# manifest: {manifest}\n{header}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_trace_csv(path: Path, trace: list[TraceRow], manifest: str) -> None:
    """The RSE trace of one solve, one row per step."""
    _write_csv(path, manifest, "iter,rse,elapsed_s,mode,gamma",
               ((r.iteration, r.rse, r.elapsed_s, r.mode, r.gamma) for r in trace))


def write_report_csv(path: Path, result: OnlineResult, manifest: str) -> None:
    """Per-slot hit rates, ``slot,bs,method,hit_rate``: one block per run of
    :meth:`OnlineResult.runs`, then the oracle's after the first."""
    n_bs = result.oracle.shape[1]
    pairs = [(slot, b) for slot in result.slots.tolist() for b in range(1, n_bs + 1)]
    blocks = [(method, result.cells[key]) for method, _, key in result.runs()]
    blocks.insert(1, ("oracle", result.oracle))
    _write_csv(path, manifest, "slot,bs,method,hit_rate",
               ((*pair, method, rate) for method, rates in blocks
                for pair, rate in zip(pairs, rates.ravel().tolist())))


def write_summary_csv(path: Path, result: OnlineResult, manifest: str) -> None:
    """Average hit rates, ``method,rank,avg_hit_rate``: the full grid of
    :meth:`OnlineResult.runs` (a raw run repeats at every rank), then one
    oracle row."""
    rows = [(method, rank, result.average(key))
            for method, rank, key in result.runs(repeat_raw=True)]
    _write_csv(path, manifest, "method,rank,avg_hit_rate", rows + [("oracle", 0, result.average())])


def cmd_complete(args, config: dict) -> int:
    src = Path(args.tensor)
    if not src.exists():
        raise UsageError(f"input tensor file not found: {src}")
    s = _settings(args, config)
    t = read_coo(src)
    fw = FwConfig(shift=s["shift"], update_rule=s["update"])
    sweep = complete_sweep(t, fw, s["rank"])  # checks its settings against t at the call
    out_dir = _out_dir(args)
    started = time.perf_counter()
    traces = {rank: trace for rank, _, trace in sweep}
    rows_by_run = {f"trace-R{rank}.csv": traces[rank] for rank in s["rank"]}
    manifest_name = _write_manifest(out_dir, "complete", {**s, "tensor": str(src)},
                                    time.perf_counter() - started, list(rows_by_run))
    for name, trace in rows_by_run.items():
        write_trace_csv(out_dir / name, trace, manifest_name)
        print(f"wrote {out_dir / name}")
    return 0


def cmd_simulate(args, config: dict) -> int:
    s = _settings(args, config)
    if not 1 <= s["cache"] <= s["files"]:
        raise UsageError(f"cache size {s['cache']} must be in 1..{s['files']} (library size)")
    cfg = OnlineConfig(tau=s["tau"], order=s["order"], cache_size=s["cache"],
                       predictors=s["predictor"], completion=s["completion"],
                       rank_budgets=tuple(s["ranks"]), shift=s["shift"])
    if args.ratings:
        source = Path(args.ratings)
        result = build_demand_tensor(_read_ratings(source),
                                     IngestConfig(top_f=s["files"], n_bs=s["bs"]))
        # the loop takes the ingested slots one (demands, mask) pair at a time; on
        # ratings data the observed demands are all there is, so a zero is a
        # missing entry. The synthetic stream's observe and seed shape nothing
        # here, so the echo leaves them out
        n_slots = len(result.slots)
        slots = ((x, x != 0.0) for x in result.slots)
        echo = {k: v for k, v in s.items() if k not in ("observe", "seed")}
    else:
        source = "synthetic"
        n_slots = s["slots"]
        slots = synth_lowrank_stream(s["files"], s["bs"], n_slots, s["observe"], s["seed"])
        echo = s
    if n_slots <= s["tau"]:
        raise UsageError(f"stream has {n_slots} slots; need more than tau={s['tau']}")

    out_dir = _out_dir(args)
    started = time.perf_counter()
    result = run_online(slots, cfg)
    outputs = ["slots.csv", "summary.csv"]
    manifest_name = _write_manifest(
        out_dir, "simulate", {**echo, "source": str(source), "slots": n_slots},
        time.perf_counter() - started, outputs,
    )
    write_report_csv(out_dir / "slots.csv", result, manifest_name)
    write_summary_csv(out_dir / "summary.csv", result, manifest_name)
    for method, rank, key in result.runs():
        print(f"{method} (R={rank}): avg hit rate {result.average(key):.4f}")
    print(f"oracle: avg hit rate {result.average():.4f}")
    print(f"wrote {out_dir / 'slots.csv'} and {out_dir / 'summary.csv'}")
    return 0


def cmd_ingest(args, config: dict) -> int:
    path = Path(args.ratings)
    records = _read_ratings(path)
    s = _settings(args, config)
    result = build_demand_tensor(records, IngestConfig(
        top_f=s["top_f"], n_bs=s["bs"], slot_days=s["slot_days"], pairing=s["pairing"],
        session_gap_hours=s["gap_hours"], weight=s["weight"],
    ))
    out_dir = _out_dir(args)
    started = time.perf_counter()
    outputs = []
    for i, slot in enumerate(result.slots, start=1):
        name = f"slot_{i:04d}.coo"
        write_coo_dense(out_dir / name, slot)
        outputs.append(name)
    cfg_echo = {**s, "ratings": str(path), "movie_ids": result.movie_ids,
                "start_timestamp": result.start_timestamp}
    _write_manifest(out_dir, "ingest", cfg_echo, time.perf_counter() - started, outputs)
    print(f"wrote {len(outputs)} slot tensors to {out_dir}")
    return 0


def cmd_synth(args, config: dict) -> int:
    shape = _num_list(args.shape, "shape")
    s = _settings(args, config)
    name = args.name or "observed.coo"
    if args.truth_out and Path(args.truth_out) == Path(name):
        raise UsageError(f"--truth-out {args.truth_out} would overwrite the observed tensor {name}")
    out = _out_path(args)  # made below, with no subdirectory
    for flag, file in (("--name", name), ("--truth-out", args.truth_out)):
        folder = (out / file).parent if file else out
        if folder != out and not folder.is_dir():
            raise UsageError(f"{flag} {file}: directory {folder} not found")
    s["mode_ranks"] = s["mode_ranks"] or [2] * len(shape)
    observed, truth = synth_low_rank(shape, s["mode_ranks"], s["noise"], s["observe"],
                                     s["seed"], s["shift"])
    out_dir = _out_dir(args)
    started = time.perf_counter()
    write_coo_sparse(out_dir / name, observed)
    outputs = [name]
    if args.truth_out:
        write_coo_dense(out_dir / args.truth_out, truth)
        outputs.append(args.truth_out)
    _write_manifest(out_dir, "synth", {**s, "shape": shape},
                    time.perf_counter() - started, outputs)
    print(f"wrote {out_dir / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenscache",
        description="Tensor-completion experiments: solver traces, caching simulation, ingestion.",
    )
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--out", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", parents=[common], help="run the solver on a COO tensor file")
    p.add_argument("tensor", help="input tensor in COO text format")

    p = sub.add_parser("simulate", parents=[common], help="online prediction + caching over a demand stream")
    p.add_argument("--ratings", help="ratings file (default: synthetic stream)")

    p = sub.add_parser("ingest", parents=[common], help="build per-slot demand tensors from ratings")
    p.add_argument("ratings")

    p = sub.add_parser("synth", parents=[common], help="generate a low-rank COO fixture")
    p.add_argument("shape", help="comma list of dims, e.g. 40,40,3,10")
    p.add_argument("--name", help="output file name (default observed.coo)")
    p.add_argument("--truth-out", dest="truth_out", help="also write the dense truth")

    for command, keys in COMMAND_SETTINGS.items():
        for key in keys:
            sub.choices[command].add_argument("--" + key.replace("_", "-"), **SETTINGS[key][2])
    return parser


HANDLERS = {
    "complete": cmd_complete,
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config_file(Path(args.config)) if args.config else {}
        return HANDLERS[args.command](args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        cause = f": {exc.__cause__!r}" if exc.__cause__ is not None else ""
        print(f"internal error: {exc}{cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
