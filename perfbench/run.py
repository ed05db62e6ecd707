"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload wrongop-small-d64 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. Steps:

1. make the workload's input corpora from the seed, or reuse them from
   ``.perfbench/inputs`` (untimed);
2. with ``--trace 0``, time set-up in fresh processes: importing treeformer
   and loading the train and eval corpora;
3. start the measured process (worker.py) in a fresh interpreter with one
   BLAS thread, which warms up, measures, then checks the outputs.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170  # the whole run, generation and checks included
SETUP_SAMPLES = 3  # set-up timings per run, one of them in the measured process


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="shrunken sizes, for the smoke test")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "treeformer" / "__init__.py").is_file():
        return fail(f"no treeformer sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.get(args.workload, tiny=args.tiny)
    input_dir = inputs.ensure(spec, args.seed, tiny=args.tiny)

    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--input-dir", str(input_dir),
    ] + (["--tiny"] if args.tiny else [])

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - started)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc = subprocess.run(
                worker + ["--setup-only"], capture_output=True, text=True,
                timeout=remaining(), cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return fail("set-up timing failed")
            setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    try:
        proc = subprocess.run(
            worker, capture_output=True, text=True, timeout=remaining(), cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return fail(f"measured process did not finish within {BUDGET_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"measured process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = raw["metrics"]
    if not args.trace:
        setup.append(raw["setup_s"])
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
