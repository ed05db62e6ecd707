"""Single entry point: synthesis, parsing, training, evaluation, verification, bench.

Heavy modules are imported inside command handlers so that ``--threads`` can
cap BLAS worker pools before numpy loads. Errors leave as one JSON object on
stderr and a nonzero exit code; primary data goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ABLATIONS = ("pe", "fraternal", "fraternal-keep-pe", "topdown")

_TRAIN_DEFAULTS = {
    "dim": 256,
    "heads": 4,
    "ffn_hidden": None,
    "max_children": 16,
    "lr": 0.002,
    "warmup": 2000,
    "batch_size": 32,
    "epochs": 10,
    "seed": 0,
    "precision": "float32",
    "checkpoint_every": 0,
    "target_accuracy": None,
    "ablate": [],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("UsageError", message, code=2)


def _fail(kind: str, message: str, code: int = 1):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


def _data_dir(path: str | None) -> str | None:
    root = os.environ.get("TREEFORMER_DATA_DIR")
    if path is None or os.path.isabs(path) or not root:
        return path
    return os.path.join(root, path)


def _merge(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- JSON config file <- explicit command-line flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_conf = json.load(fh)
        unknown = set(file_conf) - set(defaults)
        if unknown:
            _fail("UsageError", f"unknown config keys: {sorted(unknown)}")
        merged.update(file_conf)
    for key, value in vars(args).items():
        if key in defaults:  # only flags present on the command line survive SUPPRESS
            merged[key] = value
    return merged


def _add_common(sub, defaults: dict):
    sub.add_argument("--config", help="JSON file supplying any flag (command line wins)")
    sub.add_argument(
        "--threads",
        type=int,
        help="cap numeric worker threads (default: machine cores)",
    )
    sub.set_defaults(_defaults=defaults)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treeformer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = _add_common(sub.add_parser("parse", help="parse a mini-language file"), {"emit_json": False})
    p.add_argument("--file", help="source path ('-' for stdin)")
    p.add_argument("--source", help="inline source text")
    p.add_argument("--emit-json", dest="emit_json", action="store_true", default=S,
                   help="print the canonical tree JSON line (default: summary)")

    p = _add_common(
        sub.add_parser("synth-classify", help="generate a labeled program corpus"),
        {"classes": 8, "per_class": 500, "seed": 0},
    )
    p.add_argument("--classes", type=int, default=S, help="template families (default: 8)")
    p.add_argument("--per-class", dest="per_class", type=int, default=S,
                   help="programs per class (default: 500)")
    p.add_argument("--seed", type=int, default=S, help="generator seed (default: 0)")
    p.add_argument("--out", required=True, help="output corpus directory")

    p = _add_common(
        sub.add_parser("synth-wrongop", help="generate wrong-operator mutation records"),
        {"programs": 1000, "min_ops": 2, "mean_ops": 6.0, "seed": 0},
    )
    p.add_argument("--programs", type=int, default=S, help="record count (default: 1000)")
    p.add_argument("--min-ops", dest="min_ops", type=int, default=S,
                   help="minimum binary operators per program (default: 2)")
    p.add_argument("--mean-ops", dest="mean_ops", type=float, default=S,
                   help="target mean operators per program (default: 6.0)")
    p.add_argument("--seed", type=int, default=S, help="generator seed (default: 0)")
    p.add_argument("--out", required=True, help="output corpus directory")

    p = _add_common(sub.add_parser("train", help="train a model on a corpus"), _TRAIN_DEFAULTS)
    p.add_argument("--task", required=True, choices=("classify", "wrongop", "node-classify"))
    p.add_argument("--train", required=True, dest="train_dir", help="training corpus directory")
    p.add_argument("--eval", dest="eval_dir", help="held-out corpus directory")
    p.add_argument("--out", required=True, help="run directory (manifest, metrics, checkpoint)")
    p.add_argument("--dim", type=int, default=S, help="state width d (default: 256)")
    p.add_argument("--heads", type=int, default=S, help="attention heads (default: 4)")
    p.add_argument("--ffn-hidden", dest="ffn_hidden", type=int, default=S,
                   help="feed-forward inner width (default: 4*d)")
    p.add_argument("--max-children", dest="max_children", type=int, default=S,
                   help="position-table length / branching cap (default: 16)")
    p.add_argument("--lr", type=float, default=S, help="base learning rate (default: 0.002)")
    p.add_argument("--warmup", type=int, default=S, help="linear warmup steps (default: 2000)")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=S,
                   help="trees per optimizer step (default: 32)")
    p.add_argument("--epochs", type=int, default=S, help="training epochs (default: 10)")
    p.add_argument("--seed", type=int, default=S, help="run seed (default: 0)")
    p.add_argument("--precision", choices=("float32", "float64"), default=S,
                   help="parameter dtype (default: float32)")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=S,
                   help="epochs between checkpoints, 0 = final only (default: 0)")
    p.add_argument("--target-accuracy", dest="target_accuracy", type=float, default=S,
                   help="stop once eval accuracy reaches this (default: off)")
    p.add_argument("--ablate", action="append", choices=ABLATIONS, default=S,
                   help="disable a component; repeatable (default: none)")

    p = _add_common(sub.add_parser("eval", help="evaluate a checkpoint"), {"batch_size": 64})
    p.add_argument("--checkpoint", required=True, help="checkpoint manifest path")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--predictions", help="write a JSON-lines prediction log here")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=S,
                   help="evaluation batch size (default: 64)")

    p = _add_common(
        sub.add_parser("gradcheck", help="finite-difference check of the full model"),
        {"dim": 8, "heads": 2, "seed": 1, "eps": 1e-5, "threshold": 1e-4, "task": "all"},
    )
    p.add_argument("--dim", type=int, default=S, help="state width (default: 8)")
    p.add_argument("--heads", type=int, default=S, help="attention heads (default: 2)")
    p.add_argument("--seed", type=int, default=S, help="parameter seed (default: 1)")
    p.add_argument("--eps", type=float, default=S, help="central-difference step (default: 1e-5)")
    p.add_argument("--threshold", type=float, default=S,
                   help="fail if max relative error >= this (default: 1e-4)")
    p.add_argument("--task", choices=("all", "classify", "wrongop", "node-classify"),
                   default=S, help="which task losses to check (default: all)")

    p = _add_common(
        sub.add_parser("bench", help="attention-memory scaling report (CSV)"),
        {"sizes": "100,200,400,800", "trees_per_size": 8, "max_children": 6,
         "heads": 4, "seed": 0},
    )
    p.add_argument("--sizes", default=S, help="comma-separated mean tree sizes (default: 100,200,400,800)")
    p.add_argument("--trees-per-size", dest="trees_per_size", type=int, default=S,
                   help="trees per size point (default: 8)")
    p.add_argument("--max-children", dest="max_children", type=int, default=S,
                   help="branching bound (default: 6)")
    p.add_argument("--heads", type=int, default=S,
                   help="attention heads, for the allocated cells (default: 4)")
    p.add_argument("--seed", type=int, default=S, help="tree generator seed (default: 0)")

    p = _add_common(sub.add_parser("inspect", help="corpus statistics as JSON"), {})
    p.add_argument("--data", required=True, help="corpus directory")

    return parser


# ---------------------------------------------------------------------------
# command handlers

def _cmd_parse(opts, args):
    from .minilang import MINI_VOCAB, parse
    from .trees import branching_stats, depth, tree_to_line

    if getattr(args, "source", None):
        source = args.source
    elif getattr(args, "file", None):
        source = sys.stdin.read() if args.file == "-" else open(args.file, encoding="utf-8").read()
    else:
        _fail("UsageError", "parse needs --file or --source")
    tree = parse(source)
    if opts["emit_json"]:
        print(tree_to_line(tree, MINI_VOCAB))
    else:
        stats = branching_stats(tree)
        print(json.dumps({
            "nodes": stats.node_count,
            "depth": depth(tree),
            "max_children": stats.max_children,
            "avg_children": stats.avg_children,
        }))
    return 0


def _cmd_synth_classify(opts, args):
    from .synth import gen_classify_corpus, save_classify_corpus

    samples = gen_classify_corpus(opts["classes"], opts["per_class"], opts["seed"])
    out = _data_dir(args.out)
    save_classify_corpus(out, samples, opts["seed"])
    print(json.dumps({"out": out, "samples": len(samples)}))
    return 0


def _cmd_synth_wrongop(opts, args):
    from .synth import gen_wrongop_corpus, save_wrongop_corpus

    records = gen_wrongop_corpus(
        opts["programs"], opts["min_ops"], opts["seed"], mean_ops=opts["mean_ops"]
    )
    out = _data_dir(args.out)
    save_wrongop_corpus(out, records, opts["seed"])
    print(json.dumps({"out": out, "samples": len(records)}))
    return 0


def _apply_ablations(flags: list[str]) -> dict:
    conf = {}
    for flag in flags or []:
        if flag == "pe":
            conf["use_position_encoding"] = False
        elif flag == "fraternal":
            conf["use_fraternal_attention"] = False
        elif flag == "fraternal-keep-pe":
            conf["use_fraternal_attention"] = False
            conf["pe_before_parental"] = True
        elif flag == "topdown":
            conf["use_top_down"] = False
    return conf


def _cmd_train(opts, args):
    from .synth import load_corpus
    from .training import TrainConfig, train

    ablate = opts["ablate"] or []
    if "topdown" in ablate and args.task == "wrongop":
        sys.stderr.write(
            "note: without top-down propagation, operator leaves see no context "
            "from other nodes; localization reduces to per-leaf symbol scores\n"
        )
    config = TrainConfig(
        task=args.task,
        d=opts["dim"],
        heads=opts["heads"],
        ffn_hidden=opts["ffn_hidden"],
        max_children=opts["max_children"],
        base_lr=opts["lr"],
        warmup_steps=opts["warmup"],
        batch_size=opts["batch_size"],
        epochs=opts["epochs"],
        seed=opts["seed"],
        precision=opts["precision"],
        checkpoint_every=opts["checkpoint_every"],
        target={"accuracy": opts["target_accuracy"]} if opts["target_accuracy"] else None,
        **_apply_ablations(ablate),
    )
    corpus = load_corpus(_data_dir(args.train_dir))
    eval_corpus = load_corpus(_data_dir(args.eval_dir)) if getattr(args, "eval_dir", None) else None
    result = train(config, corpus, eval_corpus=eval_corpus, out_dir=_data_dir(args.out))
    summary = {
        "steps": result.steps,
        "epochs_run": len(result.history),
        "final": result.history[-1],
        "checkpoint": result.checkpoint_path,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_eval(opts, args):
    from .synth import load_corpus
    from .training import evaluate

    corpus = load_corpus(_data_dir(args.data))
    metrics = evaluate(
        _data_dir(args.checkpoint),
        corpus,
        predictions_path=_data_dir(getattr(args, "predictions", None)),
        batch_size=opts["batch_size"],
    )
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return 0


def _cmd_gradcheck(opts, args):
    from .checks import full_model_gradcheck

    tasks = ("classify", "wrongop", "node-classify") if opts["task"] == "all" else (opts["task"],)
    worst = 0.0
    for task in tasks:
        err = full_model_gradcheck(
            task, d=opts["dim"], heads=opts["heads"], seed=opts["seed"], eps=opts["eps"]
        )
        worst = max(worst, err)
        print(f"{task}: max relative error {err:.6e}")
    print(f"max relative error {worst:.6e} (threshold {opts['threshold']:g})")
    if not worst < opts["threshold"]:
        _fail("GradCheckFailed", f"max relative error {worst:.6e} >= {opts['threshold']:g}")
    return 0


def _cmd_bench(opts, args):
    import numpy as np

    from .scheduler import build_schedule, cost_report
    from .trees import random_tree

    if opts["heads"] < 1:
        _fail("UsageError", f"--heads needs an integer >= 1, got {opts['heads']}", code=2)
    sizes = [int(s) for s in str(opts["sizes"]).split(",") if s]
    rng = np.random.default_rng(opts["seed"])
    print("mean_nodes,trees,attention_cells,full_attention_cells,ratio,allocated_cells,peak_cells")
    for size in sizes:
        trees = [
            random_tree(rng, size, opts["max_children"], 8, 8)
            for _ in range(opts["trees_per_size"])
        ]
        report = cost_report(build_schedule(trees), opts["heads"])
        ratio = report.full_attention_cells / report.attention_cells
        print(
            f"{size},{len(trees)},{report.attention_cells},{report.full_attention_cells},"
            f"{ratio:.4f},{report.allocated_cells},{report.peak_cells}"
        )
    return 0


def _cmd_inspect(opts, args):
    import numpy as np

    from .synth import load_corpus
    from .trees import branching_stats, depth

    corpus = load_corpus(_data_dir(args.data))
    nodes = [len(t) for t in corpus.trees]
    depths_ = [depth(t) for t in corpus.trees]
    branching = [branching_stats(t) for t in corpus.trees]
    stats = {
        "task": corpus.task,
        "samples": len(corpus.trees),
        "vocab_digest": corpus.vocab.digest(),
        "nodes": {"mean": float(np.mean(nodes)), "max": int(max(nodes))},
        "depth": {"mean": float(np.mean(depths_)), "max": int(max(depths_))},
        "max_children": int(max(b.max_children for b in branching)),
        "avg_children": float(np.mean([b.avg_children for b in branching])),
    }
    if corpus.task == "classify":
        labels = [t.tree_label for t in corpus.trees]
        stats["label_histogram"] = {
            str(k): labels.count(k) for k in sorted(set(labels))
        }
    if corpus.records is not None:
        from .minilang import operator_nodes

        stats["mean_operators"] = float(
            np.mean([len(operator_nodes(r.tree)) for r in corpus.records])
        )
    print(json.dumps(stats, sort_keys=True))
    return 0


_HANDLERS = {
    "parse": _cmd_parse,
    "synth-classify": _cmd_synth_classify,
    "synth-wrongop": _cmd_synth_wrongop,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
}


def _cap_threads(argv: list[str]) -> None:
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    if not threads.isdecimal() or int(threads) < 1:
        _fail("UsageError", f"--threads needs an integer >= 1, got {threads!r}", code=2)
    if "numpy" in sys.modules:
        sys.stderr.write("note: --threads has no effect, numpy is already loaded\n")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(int(threads))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _cap_threads(argv)  # before any numpy import
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _merge(args._defaults, args)
    try:
        return _HANDLERS[args.command](opts, args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit nonzero
        _fail(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
