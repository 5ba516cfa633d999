"""Repeat the benchmark over seeds, check its spread and record a baseline.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and seed,
with its ``run_seconds``, then one traced run per workload on the first
seed. For each end-to-end metric it prints the median, the
quartiles and the spread (distance between the quartiles, as a share of the
median), next to the metric's bound; a spread at or above a third of the
bound is flagged. With ``--out`` it writes every run's result, output
digests and environment to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        record = Path(tmp) / "record.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads(record.read_text())
    return {"summary": summary, **full}


def spreads(runs: list[dict], bounds: dict[str, float]) -> dict:
    """Median, quartiles and quartile spread of each end-to-end metric, and
    the pooled per-command ``run_s`` samples' median and tail."""
    out = {}
    for workload in sorted({r["records"][0]["workload"] for r in runs}):
        values: dict[str, list[float]] = {}
        pooled = []
        for r in runs:
            if r["records"][0]["workload"] == workload and not r["records"][0]["trace"]:
                pooled += r["records"][0]["run_s_samples"]
                for k, v in r["summary"]["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
        k = len(pooled) - 10
        out[f"{workload}/run_s_pooled"] = {
            "n": len(pooled), "median": statistics.median(pooled),
            "tail": {"percentile": 100 * k / len(pooled), "value": sorted(pooled)[k - 1]}
            if k > 0 else None,
        }
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            out[f"{workload}/{metric}"] = {
                "n": len(vals), "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "steady": spread < bounds[metric] / 3,
            }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write every run and the spreads to this JSON file")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    runs = []
    for name in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            runs.append(_run(name, seed, spec["run_seconds"], 0))
            m = runs[-1]["summary"]
            print(f"{name} seed {seed}: failed {m['failed']}/{m['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in m["metrics"].items()),
                  flush=True)
        runs.append(_run(name, seeds[0], spec["run_seconds"], 1))
    table = spreads(runs, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    for key, s in table.items():
        if "spread" not in s:
            print(f"{key}: n {s['n']} median {s['median']:.6g} tail {s['tail']}")
            continue
        flag = "" if s["steady"] else "  <-- spread >= bound/3"
        print(f"{key}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"spreads": table, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
