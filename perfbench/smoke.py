"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Runs every workload shrunk to a few small trees, untraced and traced, and
checks the result line against BENCHMARK.json. Also checks that a hook whose
function is gone is reported as missing rather than failing, and that the
command fails without a result where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def check_result(proc, expected: list) -> None:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}, sorted(set(got) ^ {m["name"] for m in expected})
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_untraced_runs_report_end_to_end_metrics():
    for workload in SPEC["workloads"]:
        check_result(run(0, workload["name"]), SPEC["end_to_end"])


def test_traced_runs_report_per_layer_metrics():
    for workload in SPEC["workloads"]:
        check_result(run(1, workload["name"]), SPEC["per_layer"])


def test_missing_hook_is_reported_not_raised():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from treeformer import training  # noqa: F401  (loads the hooked modules)

    saved = tracing.HOOKS
    tracing.HOOKS = saved + (("treeformer.training", "no_such_function", "x"),)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        tracing.HOOKS = saved
    assert tracer.missing == {"no_such_function"}
    assert tracer.metrics() == {}


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(0, SPEC["workloads"][0]["name"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
