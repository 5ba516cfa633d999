"""Batch experiment driver: completion traces, caching simulations, ingestion.

Every command writes a JSON manifest (full config echo, code version,
wall-clock totals) next to its outputs, and every CSV starts with a
``# manifest: <file>`` comment naming the manifest that produced it. Flag
values win over config-file values, which win over the built-in defaults.
The config file is a flat ``key = value`` file (TOML-style subset: strings,
numbers, booleans, ``[a, b]`` lists; ``#`` comments); its keys are those of
``DEFAULTS``.

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib
from dataclasses import replace
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

DEFAULTS = {
    "rank": "8",
    "beta": "1e5",
    "shift": 1,
    "mode_select": "sigma",
    "update": "multi",
    "max_iter": 200,
    "seed": 0,
    "tau": 10,
    "order": 6,
    "cache": 32,
    "bs": 3,
    "files": 128,
    "ranks": "8,16,24",
    "predictor": "both",
    "completion": "both",
    "slots": 40,
    "observe": 0.05,
    "top_f": 128,
    "slot_days": 30,
    "pairing": "self",
    "gap_hours": 6.0,
    "weight": "count",
    "noise": 0.0,
}


class UsageError(Exception):
    """Bad input or flags; maps to exit code 2."""


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
        if name not in DEFAULTS:
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


def _setting(args, config: dict, key: str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return DEFAULTS[key]


def _completions(value) -> list[bool]:
    """The ``completion`` setting (a bool, ``on``, ``off`` or ``both``) as the
    completion flags to run."""
    if isinstance(value, bool):
        return [value]
    choices = {"on": [True], "off": [False], "both": [True, False]}
    if value not in choices:
        raise UsageError(f"completion must be a bool, on, off or both; got {value!r}")
    return choices[value]


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _num_list(spec, name: str, kind=int) -> list:
    """A comma list of numbers; an empty one is a usage error."""
    items = [kind(s) for s in str(spec).split(",") if s.strip()]
    if not items:
        raise UsageError(f"{name} needs at least one value, got {str(spec)!r}")
    return items


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
    ranks = _num_list(_setting(args, config, "rank"), "rank")
    betas = _num_list(_setting(args, config, "beta"), "beta", float)
    cfg_echo = {
        "tensor": str(src),
        "rank": ranks,
        "beta": betas,
        "shift": int(_setting(args, config, "shift")),
        "mode_select": _setting(args, config, "mode_select"),
        "update": _setting(args, config, "update"),
        "max_iter": int(_setting(args, config, "max_iter")),
    }
    t = read_coo(src)
    out_dir = _out_dir(args)
    started = time.perf_counter()
    outputs = []
    traces = {}
    for beta in betas:  # one sweep over the rank list per beta
        fw = FwConfig(
            rank_budget=max(ranks),
            beta=beta,
            shift=cfg_echo["shift"],
            max_iter=cfg_echo["max_iter"],
            mode_selection=cfg_echo["mode_select"],
            update_rule=cfg_echo["update"],
        )
        for rank, state, trace in complete_sweep(t, fw, ranks):
            traces[rank, beta] = trace
            del state  # only the trace is written; free the iterate before the sweep resumes
    rows_by_run = {}
    for rank in ranks:
        for beta in betas:
            name = f"trace-R{rank}" + (f"-beta{beta:g}" if len(betas) > 1 else "") + ".csv"
            outputs.append(name)
            rows_by_run[name] = traces[rank, beta]
    manifest_name = _write_manifest(
        out_dir, "complete", cfg_echo, time.perf_counter() - started, outputs
    )
    for name, trace in rows_by_run.items():
        write_trace_csv(out_dir / name, trace, manifest=manifest_name)
        print(f"wrote {out_dir / name}")
    return 0


def cmd_simulate(args, config: dict) -> int:
    tau = int(_setting(args, config, "tau"))
    order = int(_setting(args, config, "order"))
    cache = int(_setting(args, config, "cache"))
    n_bs = int(_setting(args, config, "bs"))
    files = int(_setting(args, config, "files"))
    shift = int(_setting(args, config, "shift"))
    seed = int(_setting(args, config, "seed"))
    ranks = _num_list(_setting(args, config, "ranks"), "ranks")
    predictor = str(_setting(args, config, "predictor"))
    completions = _completions(_setting(args, config, "completion"))
    n_slots = int(_setting(args, config, "slots"))
    observe = float(_setting(args, config, "observe"))

    predictors = ("lp", "mean") if predictor == "both" else (predictor,)
    if n_bs < 1:
        raise UsageError(f"bs must be >= 1, got {n_bs}")

    if args.ratings:
        path = Path(args.ratings)
        if not path.exists():
            raise UsageError(f"ratings file not found: {path}")
        records = load_ratings(path)
        if not records:
            raise UsageError(f"ratings file is empty: {path}")
        result = build_demand_tensor(records, IngestConfig(top_f=files, n_bs=n_bs))
        stream, score_stream = result.slots, None
        source = str(path)
    else:
        stream, truth = synth_lowrank_stream(files, n_bs, n_slots, observe, seed)
        score_stream = truth
        source = "synthetic"
    if len(stream) <= tau:
        raise UsageError(f"stream has {len(stream)} slots; need more than tau={tau}")

    cfg_echo = {
        "source": source, "tau": tau, "order": order, "cache": cache, "bs": n_bs,
        "files": files, "shift": shift, "ranks": ranks, "predictor": predictors,
        "completion": completions, "slots": len(stream), "observe": observe, "seed": seed,
    }
    out_dir = _out_dir(args)
    started = time.perf_counter()
    base = OnlineConfig(tau=tau, order=order, cache_size=cache, predictors=predictors,
                        rank_budgets=tuple(ranks), shift=shift)
    # completed: one report per (predictor, rank), from one sweep per window;
    # raw: one report per predictor, since raw runs do not use the budget
    runs = {comp: run_online(stream, replace(base, completion=comp), score_stream)
            for comp in completions}
    reports = []  # one per distinct (predictor, completion, rank) run
    grid = []  # full {predictor} x {raw, completed} x {rank} summary grid
    for i in range(len(predictors)):
        for comp in completions:
            if comp:
                cell = runs[comp][i * len(ranks):(i + 1) * len(ranks)]
                reports += cell
                grid += cell
            else:
                raw = replace(runs[comp][i], rank=ranks[0])
                reports.append(raw)
                grid += [replace(raw, rank=rank) for rank in ranks]
    outputs = ["slots.csv", "summary.csv"]
    manifest_name = _write_manifest(
        out_dir, "simulate", cfg_echo, time.perf_counter() - started, outputs
    )
    write_report_csv(out_dir / "slots.csv", reports, manifest=manifest_name)
    write_summary_csv(out_dir / "summary.csv", grid, manifest=manifest_name)
    for rep in reports:
        print(f"{rep.method} (R={rep.rank}): avg hit rate {rep.average():.4f}")
    print(f"oracle: avg hit rate {reports[0].averages['oracle']:.4f}")
    print(f"wrote {out_dir / 'slots.csv'} and {out_dir / 'summary.csv'}")
    return 0


def cmd_ingest(args, config: dict) -> int:
    path = Path(args.ratings)
    if not path.exists():
        raise UsageError(f"ratings file not found: {path}")
    records = load_ratings(path)
    if not records:
        raise UsageError(f"ratings file is empty: {path}")
    cfg = IngestConfig(
        top_f=int(_setting(args, config, "top_f")),
        n_bs=int(_setting(args, config, "bs")),
        slot_days=int(_setting(args, config, "slot_days")),
        pairing=str(_setting(args, config, "pairing")),
        session_gap_hours=float(_setting(args, config, "gap_hours")),
        weight=str(_setting(args, config, "weight")),
    )
    try:
        result = build_demand_tensor(records, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = _out_dir(args)
    started = time.perf_counter()
    outputs = []
    for i, slot in enumerate(result.slots, start=1):
        name = f"slot_{i:04d}.coo"
        write_coo_dense(out_dir / name, slot)
        outputs.append(name)
    cfg_echo = {
        "ratings": str(path), "top_f": cfg.top_f, "bs": cfg.n_bs,
        "slot_days": cfg.slot_days, "pairing": cfg.pairing,
        "gap_hours": cfg.session_gap_hours, "weight": cfg.weight,
        "movie_ids": result.movie_ids, "start_timestamp": result.start_timestamp,
    }
    _write_manifest(out_dir, "ingest", cfg_echo, time.perf_counter() - started, outputs)
    print(f"wrote {len(outputs)} slot tensors to {out_dir}")
    return 0


def cmd_synth(args, config: dict) -> int:
    shape = tuple(_num_list(args.shape, "shape"))
    ranks = _num_list(args.ranks, "ranks") if args.ranks else [2] * len(shape)
    seed = int(_setting(args, config, "seed"))
    observe = float(_setting(args, config, "observe"))
    noise = float(_setting(args, config, "noise"))
    shift = int(_setting(args, config, "shift"))
    try:
        observed, truth = synth_low_rank(shape, ranks, noise, observe, seed, shift)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = _out_dir(args)
    started = time.perf_counter()
    name = args.name or "observed.coo"
    write_coo_sparse(out_dir / name, observed)
    outputs = [name]
    if args.truth_out:
        write_coo_dense(out_dir / args.truth_out, truth)
        outputs.append(args.truth_out)
    cfg_echo = {
        "shape": list(shape), "ranks": ranks, "observe": observe,
        "noise": noise, "seed": seed, "shift": shift,
    }
    _write_manifest(out_dir, "synth", cfg_echo, time.perf_counter() - started, outputs)
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
    p.add_argument("--rank", help="rank budget, comma list for a sweep")
    p.add_argument("--beta", help="step nuclear-norm scale, comma list for a sweep")
    p.add_argument("--shift", type=int)
    p.add_argument("--mode-select", dest="mode_select", choices=["sigma", "min-dim"])
    p.add_argument("--update", choices=["multi", "rank1"])
    p.add_argument("--max-iter", dest="max_iter", type=int)

    p = sub.add_parser("simulate", parents=[common], help="online prediction + caching over a demand stream")
    p.add_argument("--ratings", help="ratings file (default: synthetic stream)")
    p.add_argument("--tau", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--cache", type=int)
    p.add_argument("--bs", type=int)
    p.add_argument("--files", type=int)
    p.add_argument("--shift", type=int)
    p.add_argument("--ranks", help="comma list of completion rank budgets")
    p.add_argument("--predictor", choices=["lp", "mean", "both"])
    p.add_argument("--completion", choices=["on", "off", "both"])
    p.add_argument("--slots", type=int, help="synthetic stream length")
    p.add_argument("--observe", type=float, help="synthetic observed fraction")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("ingest", parents=[common], help="build per-slot demand tensors from ratings")
    p.add_argument("ratings")
    p.add_argument("--top-f", dest="top_f", type=int)
    p.add_argument("--bs", type=int)
    p.add_argument("--slot-days", dest="slot_days", type=int)
    p.add_argument("--pairing", choices=["self", "cosession"])
    p.add_argument("--gap-hours", dest="gap_hours", type=float)
    p.add_argument("--weight", choices=["count", "stars"])

    p = sub.add_parser("synth", parents=[common], help="generate a low-rank COO fixture")
    p.add_argument("shape", help="comma list of dims, e.g. 40,40,3,10")
    p.add_argument("--ranks", help="per-mode ranks (default 2 each)")
    p.add_argument("--observe", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--shift", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--name", help="output file name (default observed.coo)")
    p.add_argument("--truth-out", dest="truth_out", help="also write the dense truth")

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        cause = f": {exc.__cause__!r}" if exc.__cause__ is not None else ""
        print(f"internal error: {exc}{cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
