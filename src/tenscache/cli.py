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
import json
import os
import sys
import time
import zlib
from pathlib import Path

from . import __version__
from .caching import OnlineConfig, run_online, write_report_csv, write_summary_csv
# ``complete`` is not called here; perfbench/tracing.py wraps it in this namespace
from .completion import FwConfig, complete, complete_sweep, write_trace_csv  # noqa: F401
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


def _num_list(spec, name: str, kind=int) -> list:
    """A comma list of numbers; an empty one is a usage error."""
    items = [kind(s) for s in str(spec).split(",") if s.strip()]
    if not items:
        raise UsageError(f"{name} needs at least one value, got {str(spec)!r}")
    return items


def _sweep(name: str, kind=int):
    """Parser of a sweep list: each value is solved and written once, at its first place."""
    return lambda spec: list(dict.fromkeys(_num_list(spec, name, kind)))


def _integer(name: str):
    """Parser of an integer setting: an int, an integral float or an integer
    string; a bool or a non-integral value is a usage error, not truncated."""
    def parse(value) -> int:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise UsageError(f"{name} must be an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{name} must be an integer, got {value!r}") from None
    return parse


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
    "rank": ("8", _sweep("rank"), {"help": "rank budget, comma list for a sweep"}),
    "beta": ("1e5", _sweep("beta", float),
             {"help": "step nuclear-norm scale, comma list for a sweep"}),
    "shift": (1, _integer("shift"), {"type": int}),
    "mode_select": ("sigma", _as_given, {"choices": ["sigma", "min-dim"]}),
    "update": ("multi", _as_given, {"choices": ["multi", "rank1"]}),
    "max_iter": (200, _integer("max_iter"), {"type": int}),
    "seed": (0, _integer("seed"), {"type": int}),
    "tau": (10, _integer("tau"), {"type": int}),
    "order": (6, _integer("order"), {"type": int}),
    "cache": (32, _integer("cache"), {"type": int}),
    "bs": (3, _integer("bs"), {"type": int}),
    "files": (128, _integer("files"), {"type": int}),
    "ranks": ("8,16,24", _sweep("ranks"), {"help": "comma list of completion rank budgets"}),
    "predictor": ("both", _predictors, {"choices": ["lp", "mean", "both"]}),
    "completion": ("both", _completions, {"choices": ["on", "off", "both"]}),
    "slots": (40, _integer("slots"), {"type": int, "help": "synthetic stream length"}),
    "observe": (0.05, float, {"type": float, "help": "observed fraction of the synthetic data"}),
    "top_f": (128, _integer("top_f"), {"type": int}),
    "slot_days": (30, _integer("slot_days"), {"type": int}),
    "pairing": ("self", str, {"choices": ["self", "cosession"]}),
    "gap_hours": (6.0, float, {"type": float}),
    "weight": ("count", str, {"choices": ["count", "stars"]}),
    "noise": (0.0, float, {"type": float}),
}

# the settings each command reads, in the order they are parsed
COMMAND_SETTINGS = {
    "complete": ("rank", "beta", "shift", "mode_select", "update", "max_iter"),
    "simulate": ("tau", "order", "cache", "bs", "files", "shift", "seed", "ranks",
                 "predictor", "completion", "slots", "observe"),
    "ingest": ("top_f", "bs", "slot_days", "pairing", "gap_hours", "weight"),
    "synth": ("seed", "observe", "noise", "shift"),
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


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
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


def cmd_complete(args, config: dict) -> int:
    src = Path(args.tensor)
    if not src.exists():
        raise UsageError(f"input tensor file not found: {src}")
    s = _settings(args, config)
    t = read_coo(src)
    out_dir = _out_dir(args)
    started = time.perf_counter()
    traces = {}
    for beta in s["beta"]:  # one sweep over the rank list per beta
        fw = FwConfig(rank_budget=max(s["rank"]), beta=beta, shift=s["shift"],
                      max_iter=s["max_iter"], mode_selection=s["mode_select"],
                      update_rule=s["update"])
        for rank, state, trace in complete_sweep(t, fw, s["rank"]):
            traces[rank, beta] = trace
            del state  # only the trace is written; free the iterate before the sweep resumes
    rows_by_run = {}
    for rank in s["rank"]:
        for beta in s["beta"]:
            name = f"trace-R{rank}" + (f"-beta{beta:g}" if len(s["beta"]) > 1 else "") + ".csv"
            rows_by_run[name] = traces[rank, beta]
    manifest_name = _write_manifest(out_dir, "complete", {**s, "tensor": str(src)},
                                    time.perf_counter() - started, list(rows_by_run))
    for name, trace in rows_by_run.items():
        write_trace_csv(out_dir / name, trace, manifest=manifest_name)
        print(f"wrote {out_dir / name}")
    return 0


def cmd_simulate(args, config: dict) -> int:
    s = _settings(args, config)
    if s["bs"] < 1:
        raise UsageError(f"bs must be >= 1, got {s['bs']}")
    if args.ratings:
        source = Path(args.ratings)
        result = build_demand_tensor(_read_ratings(source),
                                     IngestConfig(top_f=s["files"], n_bs=s["bs"]))
        stream, score_stream = result.slots, None
    else:
        source = "synthetic"
        stream, score_stream = synth_lowrank_stream(s["files"], s["bs"], s["slots"],
                                                    s["observe"], s["seed"])
    if len(stream) <= s["tau"]:
        raise UsageError(f"stream has {len(stream)} slots; need more than tau={s['tau']}")

    out_dir = _out_dir(args)
    started = time.perf_counter()
    cfg = OnlineConfig(tau=s["tau"], order=s["order"], cache_size=s["cache"],
                       predictors=s["predictor"], completion=s["completion"],
                       rank_budgets=tuple(s["ranks"]), shift=s["shift"])
    result = run_online(stream, cfg, score_stream)
    outputs = ["slots.csv", "summary.csv"]
    manifest_name = _write_manifest(
        out_dir, "simulate", {**s, "source": str(source), "slots": len(stream)},
        time.perf_counter() - started, outputs,
    )
    write_report_csv(out_dir / "slots.csv", result, manifest=manifest_name)
    write_summary_csv(out_dir / "summary.csv", result, manifest=manifest_name)
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
    spec = args.ranks if args.ranks is not None else config.get("ranks")
    ranks = _num_list(spec, "ranks") if spec is not None else [2] * len(shape)
    s = _settings(args, config)
    observed, truth = synth_low_rank(shape, ranks, s["noise"], s["observe"],
                                     s["seed"], s["shift"])
    out_dir = _out_dir(args)
    started = time.perf_counter()
    name = args.name or "observed.coo"
    write_coo_sparse(out_dir / name, observed)
    outputs = [name]
    if args.truth_out:
        write_coo_dense(out_dir / args.truth_out, truth)
        outputs.append(args.truth_out)
    _write_manifest(out_dir, "synth", {**s, "shape": shape, "ranks": ranks},
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
    p.add_argument("--ranks", help="per-mode ranks (default 2 each)")
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
