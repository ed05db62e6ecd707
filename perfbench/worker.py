"""The measured process of one benchmark run (started by run.py).

Drives the program only through ``synth.load_corpus``, ``training.train`` and
``training.evaluate``. After set-up and one warm-up round it repeats rounds
until ``--seconds`` have passed: a round is one ``train()`` call on the next
train chunk followed by one ``evaluate()`` call on the next eval chunk. The
rates are total work over total time of the measured rounds. Correctness
checks run afterwards, untimed.

Prints one JSON object as its last line; run.py turns it into the result.
With ``--setup-only`` it times set-up alone and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--input-dir", required=True)
    return ap.parse_args(argv)


def chunks(corpus, items, size: int):
    """Contiguous sub-corpora of ``size`` items sharing the corpus metadata."""
    from dataclasses import replace

    out = []
    for start in range(0, len(items) - size + 1, size):
        part = items[start : start + size]
        if corpus.task == "wrongop":
            out.append(replace(corpus, trees=[r.tree for r in part], records=part))
        else:
            out.append(replace(corpus, trees=part))
    return out


def steps_per_call(spec, corpus) -> int:
    return spec.epochs * -(-len(corpus.trees) // spec.batch_size)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        threads = threading.active_count()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "process_threads": threads,
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def rates(rounds) -> tuple:
    """Training steps and eval trees per second over the given rounds.

    Whole-window throughput (total work over total time) rather than a
    median of per-round rates: speed here drifts over tens of seconds, not
    in outliers, and the total uses every round.
    """
    return (
        sum(r["steps"] for r in rounds) / sum(r["train_s"] for r in rounds),
        sum(r["trees"] for r in rounds) / sum(r["eval_s"] for r in rounds),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = workloads.get(args.workload, tiny=args.tiny)
    input_dir = Path(args.input_dir)

    tracer = None
    t0 = time.perf_counter()
    from treeformer import synth, training

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    train_corpus = synth.load_corpus(input_dir / "train")
    eval_corpus = synth.load_corpus(input_dir / "eval")
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    if not Path(training.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"treeformer imported from {training.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    train_chunks = chunks(train_corpus, checks.items_of(train_corpus), spec.train_chunk)
    eval_chunks = chunks(eval_corpus, checks.items_of(eval_corpus), spec.eval_chunk)

    rounds = []  # dicts: traced, train_s, steps, eval_s, trees
    histories, eval_metrics = [], []
    attempted = failed = 0
    model = None
    deadline = None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1  # alternate: overhead from like rounds
        if traced:
            tracer.install()
        tc = train_chunks[i % len(train_chunks)]
        ec = eval_chunks[i % len(eval_chunks)]
        config = training.TrainConfig(
            task=spec.task, d=spec.d, heads=workloads.HEADS, batch_size=spec.batch_size,
            epochs=spec.epochs, seed=args.seed + i, base_lr=workloads.LR, warmup_steps=1,
        )
        steps = steps_per_call(spec, tc)
        attempted += steps + len(ec.trees)
        try:
            start = time.perf_counter()
            result = training.train(config, tc)
            train_s = time.perf_counter() - start
            model = (result.params, result.model_config)
            start = time.perf_counter()
            scores = training.evaluate(model, ec, batch_size=spec.batch_size)
            eval_s = time.perf_counter() - start
        except Exception as exc:  # count the round as failed and carry on
            failed += steps + len(ec.trees)
            print(f"round {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            histories.append(result.history)
            eval_metrics.append((scores, len(ec.trees)))
            if i > 0:  # round 0 warms up caches and allocator
                rounds.append(
                    {"traced": traced, "train_s": train_s, "steps": result.steps,
                     "eval_s": eval_s, "trees": len(ec.trees)}
                )
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        if deadline is None:
            deadline = now + args.seconds
        elif now >= deadline and i >= 2:
            break
        i += 1

    peak_rss_mb = _peak_rss_mb()
    if tracer is not None and model is not None:
        # one more round, untimed, for the per-step allocation peak
        import tracemalloc

        tracer.record = False
        tracer.install()
        tracemalloc.start()
        try:
            training.train(config, train_chunks[0])
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        attempted += steps_per_call(spec, train_chunks[0])

    plain = [r for r in rounds if not r["traced"]]
    if not plain or model is None:
        print("no round completed", file=sys.stderr)
        return 1
    train_rate, eval_rate = rates(plain)

    with open(input_dir / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)
    failures, notes = checks.run_all(
        spec, args.seed, train_corpus, eval_corpus, digests, model, eval_metrics, histories
    )
    for line in failures:
        print("CHECK FAILED " + line, file=sys.stderr)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print("checks " + "; ".join(sorted(set(notes))))
    print(f"rounds {len(rounds)} (+1 warm-up), train {sum(r['train_s'] for r in rounds):.1f} s, "
          f"eval {sum(r['eval_s'] for r in rounds):.1f} s")
    print("round rates (steps/s, trees/s): " + " ".join(
        f"{r['steps'] / r['train_s']:.4g},{r['trees'] / r['eval_s']:.4g}{'*' if r['traced'] else ''}"
        for r in rounds))

    if tracer is None:
        metrics = {
            "train_steps_per_s": {"value": train_rate, "unit": "steps/s"},
            "eval_trees_per_s": {"value": eval_rate, "unit": "trees/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        per_layer = tracer.metrics()
        if traced:
            traced_train, traced_eval = rates(traced)
            per_layer["trace.train_overhead_pct"] = (100.0 * (train_rate / traced_train - 1.0), "%")
            per_layer["trace.eval_overhead_pct"] = (100.0 * (eval_rate / traced_eval - 1.0), "%")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per_layer.items())}
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{spec.name}-seed{args.seed}.json"
        tracer.write(path)
        print(f"trace written to {path.relative_to(ROOT)}")
        if tracer.missing:
            print("missing hooks: " + ", ".join(sorted(tracer.missing)), file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "env": env,
    }))
    return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


if __name__ == "__main__":
    sys.exit(main())
