"""The benchmark harness still runs against the program: ``perfbench/smoke.py``
checks the interface ``perfbench/`` reads, at tiny sizes, and the schedule
counts it reports are checked in-process."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import chain, make_tree, star
from treeformer.scheduler import build_schedule
from treeformer.trees import depth, random_tree

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schedule_counts_read_no_padding():
    """The slot counts the benchmark reads from a schedule, in-process, on
    mixed forests: no padded slot either way, one slot per non-root node."""
    counts_of = _tracing()._schedule_counts
    rng = np.random.default_rng(11)
    for _ in range(10):
        batch = [make_tree({}), chain(int(rng.integers(2, 9))), star(16)] + [
            random_tree(rng, int(rng.integers(1, 80)), int(rng.integers(1, 17)), 3, 3)
            for _ in range(int(rng.integers(1, 6)))
        ]
        counts = counts_of(build_schedule(batch))
        non_roots = sum(len(tree) - 1 for tree in batch)
        levels = max(depth(tree) for tree in batch) - 1
        assert counts["scheduler.up_pad_slots"] == counts["scheduler.down_pad_slots"] == 0
        slots = counts["scheduler.up_child_slots"], counts["scheduler.down_child_slots"]
        assert slots == (non_roots, non_roots)
        assert counts["scheduler.up_levels"] == counts["scheduler.down_levels"] == levels
