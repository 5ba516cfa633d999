"""The benchmark's worker (perfbench/worker.py) still loads every input kind
through the program's own loaders, so a program API change that would fail
each bench command at set-up fails here first."""

import re

import pytest

from helpers import PERFBENCH, load_perfbench


def tiny_loaders(tmp_path):
    """One loader per kind the worker knows, each on a tiny input."""
    coo = tmp_path / "t.coo"
    coo.write_text("# shape: 2x3x2\n1,1,1,1.5\n2,3,2,0.5\n")
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("".join(f"{u % 4 + 1},{u % 5 + 1},4.0,{1000 + 3600 * u}\n"
                               for u in range(20)))
    return {
        "read_coo": {"kind": "read_coo", "path": str(coo)},
        "ratings": {"kind": "ratings", "path": str(ratings), "top_f": 3, "n_bs": 2,
                    "pairing": "cosession"},
        "synth_lowrank_stream": {"kind": "synth_lowrank_stream", "args": [6, 2, 3, 0.5, 1]},
    }


def test_every_workload_loader_kind_is_covered(tmp_path):
    kinds = set(re.findall(r'"kind": "(\w+)"', (PERFBENCH / "workloads.py").read_text()))
    assert kinds == set(tiny_loaders(tmp_path))


def test_each_loader_kind_loads(tmp_path):
    worker = load_perfbench("worker")
    for loader in tiny_loaders(tmp_path).values():
        worker._load(loader)
    with pytest.raises(SystemExit, match="unknown loader"):
        worker._load({"kind": "nope"})
