"""Benchmark of the tenscache CLI, with the program treated as a black box.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate-synth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run generates the workload's inputs from ``--seed``, then runs the
workload's CLI command over and over for ``--seconds``, one command at a
time (a closed loop with one client), each in a fresh interpreter as a user
would (``perfbench/worker.py``). Each command is timed in two parts: set-up
(``import tenscache.cli`` plus one input load through the program's own
loader) and the command itself (``tenscache.cli.main(argv)``).

``run_s`` and ``setup_s`` are the medians over the run's commands; the
fastest command and the tail of ``run_s`` are printed beside it.

Every command's outputs are checked; the run's ``failed`` count is the
commands that exited nonzero, failed a check, or wrote outputs that differ
from the first command's. A command whose interpreter dies counts as failed
and has no timings; the metrics come from the commands that have them.

With ``--trace 1`` every second command records spans around each layer,
the run reports the per-layer metrics instead (medians over the traced
commands), and the median traced minus the median untraced command is the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; worker processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 150  # one command; the slowest takes a few seconds


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken worker)."""


def environment() -> dict:
    """Versions and machine facts recorded with every result."""
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
    }


def _worker(job: dict, work: Path) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps({"root": str(ROOT), **job}))
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        # The command's interpreter died (an uncaught error, a signal): the
        # command failed and left no timings.
        return {"code": proc.returncode}
    if not result_path.exists():
        raise BenchError("worker exited cleanly without writing a result")
    return json.loads(result_path.read_text())


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has 10 samples beyond it at n={n}"
    k = n - 10
    return f"p{100 * k / n:.0f} = {sorted(samples)[k - 1]:.4f} s"


def _check(name: str, inputs, out: Path, result: dict, state: dict) -> bool:
    """Whether one command failed. The first successful command is checked
    in full and its digests become the reference; every later command must
    reproduce them byte for byte."""
    if result["code"] != 0:
        state["problems"].append(f"exit code {result['code']}")
        return True
    if "error" in result:
        state["problems"].append(result["error"])
        return True
    got = workloads.digests(out)
    if state["digests"] is None:
        state["digests"] = got
        try:
            problems, state["quality"], state["figures"] = workloads.check(name, out, inputs)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        state["problems"] += problems
        state["ok"] = not problems
    elif got != state["digests"]:
        state["problems"].append("outputs differ from the first command's")
        return True
    return not state["ok"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, then run fresh worker processes one after the
    other for ``seconds`` (at least two when tracing, one of them traced)."""
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    state = {"digests": None, "quality": 0.0, "figures": {}, "problems": [], "ok": False}
    runs = []
    try:
        inputs = workloads.GENERATORS[name](seed, work)
        out = work / "out"
        argv = [str(out) if a == "{out}" else a for a in inputs.argv]
        start = time.perf_counter()
        while True:
            i = len(runs)
            job = {"loader": inputs.loader, "argv": argv, "trace": trace and i % 2 == 1,
                   "run_id": i}
            runs.append(_worker(job, work))
            runs[-1]["traced"] = job["trace"]
            runs[-1]["failed"] = _check(name, inputs, out, runs[-1], state)
            shutil.rmtree(out, ignore_errors=True)
            elapsed = time.perf_counter() - start
            if elapsed * (i + 2) / (i + 1) > seconds and (not trace or i >= 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in runs if "run_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced):
        raise BenchError(f"no command left timings; {state['problems']}")
    run_s = [r["run_s"] for r in plain]
    if trace:
        metrics = tracing.layer_metrics([r["spans"] for r in traced])
        metrics["trace_overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(run_s))
    else:
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(r["setup_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "quality": state["quality"],
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(runs), "failed": sum(r["failed"] for r in runs), "metrics": metrics,
        "run_s_samples": run_s, "run_s_tail": _tail(run_s),
        "setup_s_samples": [r["setup_s"] for r in timed], "digests": state["digests"] or {},
        "figures": state["figures"], "problems": state["problems"],
    }


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(record: dict, units: dict[str, str]) -> dict:
    """Print one workload's human-readable lines; return its metric map."""
    name, n = record["workload"], len(record["run_s_samples"])
    print(f"[{name} seed={record['seed']}] {record['attempted']} commands, "
          f"{record['failed']} failed, error_rate = "
          f"{record['failed'] / record['attempted']:.4f}")
    for problem in record["problems"]:
        print(f"[{name}] FAILED CHECK: {problem}")
    missing = set(units) - set(record["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {}
    for metric, unit in units.items():
        value = record["metrics"][metric]
        note = ""
        if metric == "run_s":
            note = (f"  (median of n = {n}; fastest {min(record['run_s_samples']):.4f}"
                    f" s; {record['run_s_tail']})")
        print(f"[{name}] {metric} = {value:.6g} {unit}{note}")
        metrics[metric] = {"value": value, "unit": unit}
    for figure, value in record["figures"].items():
        print(f"[{name}] {figure} = {value!r}")
    for file, digest in record["digests"].items():
        print(f"[{name}] sha256 {file} {digest}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "tenscache" / "cli.py").is_file():
            raise BenchError(f"no tenscache sources under {ROOT / 'src'}")
        units = _declared(bool(args.trace))
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
        metrics = {r["workload"]: _report(r, units) for r in records}
    except (BenchError, FileNotFoundError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.record:
        Path(args.record).write_text(json.dumps({"env": env, "records": records}, indent=1))
    if len(records) == 1:
        metrics = metrics[records[0]["workload"]]
    else:
        metrics = {f"{w}/{k}": v for w, m in metrics.items() for k, v in m.items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
