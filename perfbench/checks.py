"""Correctness checks on each workload's inputs and outputs, run untimed.

Each check raises ``CheckFailed`` with a reason; ``run_all`` collects them.
The head formulas here are the benchmark's own (plain numpy for the
prediction check, tape ops for the gradient check), so the checks do not
depend on how the program organizes its task heads internally.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import replace

import numpy as np

ORACLE_TOL = 1e-10  # batched vs naive encoding, float64, max abs difference
GRAD_TOL = 1e-4  # directional finite difference vs tape, relative
GRAD_STEP = 1e-7  # float64 rounding of the loss stays below 1e-6 of the derivative
# A ReLU pre-activation within one step of zero at the base point makes the
# central difference disagree with the tape at every step size (seen on a
# wrongop batch: a pre-activation of 1.6e-8, error 4.3e-4 at steps 1e-6 to
# 1e-8). That is local to the base point; a wrong tape gradient is not. So
# the check passes when the tape agrees at one of a few initializations.
GRAD_BASE_POINTS = 3
MARGIN_TOL = 1e-3  # predictions are compared where top-1 beats top-2 by more


class CheckFailed(Exception):
    pass


def items_of(corpus):
    """The units of work: mutation records for wrongop, trees otherwise."""
    return corpus.records if corpus.task == "wrongop" else corpus.trees


def trees_of(items):
    return [getattr(it, "tree", it) for it in items]


def check_digests(corpus, expected: list, part: str) -> None:
    from treeformer.trees import tree_digest

    if len(corpus.trees) != len(expected):
        raise CheckFailed(f"{part}: loaded {len(corpus.trees)} trees, generated {len(expected)}")
    for i, (tree, want) in enumerate(zip(corpus.trees, expected)):
        if tree_digest(tree, corpus.vocab) != want:
            raise CheckFailed(f"{part}: tree {i} differs from the generated one")


def check_mutations(corpus, part: str) -> None:
    """Reverting each wrong-operator mutation reproduces its source hash."""
    from treeformer.minilang import OPS_MINI
    from treeformer.trees import SyntaxTree, tree_digest

    for i, rec in enumerate(corpus.records):
        node = rec.tree.node(rec.target_node)
        if node.token_id != corpus.vocab.token_id(OPS_MINI[rec.corrupted_op]):
            raise CheckFailed(f"{part}: record {i} target does not hold the corrupted operator")
        nodes = dict(rec.tree.nodes)
        nodes[rec.target_node] = replace(
            node, token_id=corpus.vocab.token_id(OPS_MINI[rec.original_op])
        )
        pristine = SyntaxTree(nodes, rec.tree.root, rec.tree.tree_label, rec.tree.node_labels)
        if tree_digest(pristine, corpus.vocab) != rec.source_hash:
            raise CheckFailed(f"{part}: reverting record {i} does not give its source hash")


def check_schedules(batches) -> None:
    from treeformer.scheduler import build_schedule, check_schedule

    for batch in batches:
        check_schedule(build_schedule(batch), batch)


def check_oracle(trees, cfg, seed: int) -> float:
    """Batched encoding equals the naive recursion in float64."""
    from treeformer.batched import encode_batch
    from treeformer.model import encode_tree, init_params

    params = init_params(cfg, seed=seed, dtype="float64")
    worst = 0.0
    for tree, got in zip(trees, encode_batch(trees, params, cfg)):
        want = encode_tree(tree, params, cfg, method="naive")
        for nid in tree.nodes:
            worst = max(
                worst,
                float(np.max(np.abs(got.up[nid] - want.up[nid]))),
                float(np.max(np.abs(got.down[nid] - want.down[nid]))),
            )
    if not worst <= ORACLE_TOL:
        raise CheckFailed(f"batched vs naive encoding differ by {worst:.3g} > {ORACLE_TOL}")
    return worst


def tape_loss(task, items, params, cfg):
    """The task's mean cross-entropy on one batch, through the tape."""
    from treeformer.batched import batch_state_tensors
    from treeformer.numerics import concat, gather_rows, linear, matmul, reshape, softmax
    from treeformer.training import cross_entropy

    trees = trees_of(items)
    _, _, D, schedule = batch_state_tensors(trees, params, cfg)
    index = schedule.row_index
    if task == "classify":
        pooled = []
        for t, tree in enumerate(trees):
            rows = gather_rows(D, [index[t][nid] for nid in sorted(tree.nodes)])
            gates = reshape(matmul(rows, params["pool.gate"]), (1, len(tree)))
            pooled.append(matmul(softmax(gates), rows))
        logits = linear(concat(pooled), params["head.classify.w"], params["head.classify.b"])
        return cross_entropy(logits, [tree.tree_label for tree in trees])
    if task == "wrongop":
        from treeformer.minilang import operator_nodes
        from treeformer.numerics import add, scale

        pointer = []
        for t, rec in enumerate(items):
            cands = operator_nodes(rec.tree)
            rows = gather_rows(D, [index[t][nid] for nid in cands])
            logits = reshape(matmul(rows, params["head.pointer.w"]), (1, len(cands)))
            pointer.append(cross_entropy(logits, [cands.index(rec.target_node)]))
        gold = gather_rows(D, [index[t][rec.target_node] for t, rec in enumerate(items)])
        repair = linear(gold, params["head.repair.w"], params["head.repair.b"])
        total = pointer[0]
        for term in pointer[1:]:
            total = add(total, term)
        return add(
            scale(total, 1.0 / len(items)),
            cross_entropy(repair, [rec.original_op for rec in items]),
        )
    rows, labels = [], []
    for t, tree in enumerate(trees):
        for nid, label in sorted(tree.node_labels.items()):
            rows.append(index[t][nid])
            labels.append(label)
    logits = linear(gather_rows(D, rows), params["head.node.w"], params["head.node.b"])
    return cross_entropy(logits, labels)


def check_gradient(task, items, cfg, seed: int) -> float:
    """Directional central difference of the loss agrees with the tape."""
    tried = []
    for base in range(seed, seed + GRAD_BASE_POINTS):
        analytic, numeric = _directional(task, items, cfg, base)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if err < GRAD_TOL:
            return err
        tried.append(f"init seed {base}: tape {analytic:.9g}, difference {numeric:.9g} ({err:.3g})")
    raise CheckFailed("directional derivative disagrees: " + "; ".join(tried))


def _directional(task, items, cfg, seed: int) -> tuple:
    """(tape, central-difference) derivative of the loss at float64 init ``seed``."""
    from treeformer.model import init_params
    from treeformer.numerics import backward

    params = init_params(cfg, seed=seed, dtype="float64")
    names = params.names()
    origin = {n: params.params[n].data.copy() for n in names}
    params.zero_grads()
    backward(tape_loss(task, items, params, cfg))
    grad = {
        n: np.zeros_like(origin[n]) if params.params[n].grad is None else params.params[n].grad
        for n in names
    }

    # A random unit direction alone gives a derivative of about |g|/sqrt(n),
    # too close to the rounding of a float64 loss on big batches; adding the
    # unit tape gradient lifts it to about |g|. An error in any gradient
    # component still enters at first order through the random part.
    rng = np.random.default_rng(seed)
    rand = {n: rng.standard_normal(origin[n].shape) for n in names}
    r_norm = math.sqrt(sum(float(np.sum(v * v)) for v in rand.values()))
    g_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grad.values()))
    direction = {n: rand[n] / r_norm + grad[n] / g_norm for n in names}
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    analytic = sum(float(np.sum(grad[n] * direction[n])) for n in names) / norm

    def loss_at(step: float) -> float:
        for n in names:
            params.params[n].data[...] = origin[n] + (step / norm) * direction[n]
        return tape_loss(task, items, params, cfg).item()

    return analytic, (loss_at(GRAD_STEP) - loss_at(-GRAD_STEP)) / (2 * GRAD_STEP)


def _top(logits):
    """(argmax, margin of the best logit over the runner-up)."""
    order = np.argsort(logits)[::-1]
    margin = float(logits[order[0]] - logits[order[1]]) if len(order) > 1 else math.inf
    return int(order[0]), margin


def check_predictions(corpus, items, params, cfg) -> int:
    """evaluate()'s predictions equal argmax over the naive encoding.

    The head weights are applied in plain numpy; a prediction is compared
    only where its logit margin exceeds MARGIN_TOL, since float32 rounding
    differs between the batched and the naive path. Returns the number of
    predictions compared.
    """
    from treeformer.minilang import operator_nodes
    from treeformer.model import encode_tree
    from treeformer.training import evaluate

    sub = replace(
        corpus,
        trees=trees_of(items),
        records=list(items) if corpus.task == "wrongop" else None,
    )
    with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
        path = f"{tmp}/predictions.jsonl"
        evaluate((params, cfg), sub, predictions_path=path, batch_size=len(items))
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]

    w = {name: params[name].data.astype(np.float64) for name in params.names()}
    compared = 0
    by_sample: dict = {}
    for row in rows:
        by_sample.setdefault(row["sample"], []).append(row)
    for i, item in enumerate(items):
        tree = getattr(item, "tree", item)
        down = encode_tree(tree, params, cfg, method="naive").down
        got = by_sample.get(i, [])
        if corpus.task == "classify":
            rows_ = np.stack([down[nid] for nid in sorted(tree.nodes)]).astype(np.float64)
            gates = rows_ @ w["pool.gate"][:, 0]
            weights = np.exp(gates - gates.max())
            pooled = (weights / weights.sum()) @ rows_
            want, margin = _top(pooled @ w["head.classify.w"] + w["head.classify.b"])
            if margin > MARGIN_TOL:
                compared += 1
                if got[0]["pred"] != want:
                    raise CheckFailed(f"classify sample {i}: evaluate says {got[0]['pred']}, naive {want}")
        elif corpus.task == "wrongop":
            cands = operator_nodes(tree)
            pointer = np.array([down[c].astype(np.float64) @ w["head.pointer.w"][:, 0] for c in cands])
            loc, margin = _top(pointer)
            if margin > MARGIN_TOL:
                compared += 1
                if got[0]["pred_node"] != cands[loc]:
                    raise CheckFailed(
                        f"wrongop sample {i}: evaluate locates node {got[0]['pred_node']}, naive {cands[loc]}"
                    )
                op, margin = _top(down[cands[loc]].astype(np.float64) @ w["head.repair.w"] + w["head.repair.b"])
                if margin > MARGIN_TOL:
                    compared += 1
                    if got[0]["pred_op"] != op:
                        raise CheckFailed(f"wrongop sample {i}: evaluate repairs to {got[0]['pred_op']}, naive {op}")
        else:
            for row in got:
                want, margin = _top(
                    down[row["node"]].astype(np.float64) @ w["head.node.w"] + w["head.node.b"]
                )
                if margin > MARGIN_TOL:
                    compared += 1
                    if row["pred"] != want:
                        raise CheckFailed(
                            f"node sample {i} node {row['node']}: evaluate says {row['pred']}, naive {want}"
                        )
    if compared == 0:
        raise CheckFailed("no prediction had a logit margin above the tolerance")
    return compared


def check_metrics(metrics, n: int) -> None:
    d = metrics.to_dict()
    if d["samples"] != n:
        raise CheckFailed(f"evaluate() counted {d['samples']} samples of {n}")
    for key in ("accuracy", "loc_accuracy", "joint_accuracy"):
        if key in d and not 0.0 <= d[key] <= 1.0:
            raise CheckFailed(f"{key} = {d[key]} outside [0, 1]")
    if "joint_accuracy" in d and d["joint_accuracy"] > d["loc_accuracy"]:
        raise CheckFailed("joint_accuracy exceeds loc_accuracy")
    if not math.isfinite(d["mean_loss"]):
        raise CheckFailed("non-finite eval loss")


def check_losses(history: list) -> None:
    losses = [row["train_loss"] for row in history]
    if not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"non-finite training loss {losses}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"training loss did not fall: {losses}")


def _scratch():
    from inputs import CACHE

    CACHE.mkdir(parents=True, exist_ok=True)
    return CACHE


def run_all(spec, seed, train_corpus, eval_corpus, digests, model, eval_metrics, histories):
    """Run every check; returns ``(failures, notes)`` as lists of strings.

    ``model`` is the ``(params, config)`` of the last training round.
    """
    params, cfg = model
    failures, notes = [], []
    rng = np.random.default_rng(seed + 7)
    eval_items = items_of(eval_corpus)
    if spec.task == "node-classify":  # the naive recursion is slow on big trees
        small = [i for i, t in enumerate(eval_corpus.trees) if len(t) <= 600]
        picks = sorted(rng.choice(small, size=min(2, len(small)), replace=False))
    else:
        picks = sorted(rng.choice(len(eval_items), size=min(8, len(eval_items)), replace=False))
    sample = [eval_items[int(i)] for i in picks]
    train_items = items_of(train_corpus)
    starts = rng.choice(len(train_items) // spec.batch_size, size=2, replace=False)
    batches = [train_items[int(s) * spec.batch_size:][: spec.batch_size] for s in starts]

    def run(name, fn, *args):
        try:
            result = fn(*args)
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
        except Exception as exc:  # a check that crashes has not passed
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            notes.append(f"{name}: ok" + ("" if result is None else f" ({result:.3g})"))

    run("digests", check_digests, train_corpus, digests["train"], "train")
    run("digests", check_digests, eval_corpus, digests["eval"], "eval")
    if spec.task == "wrongop":
        run("mutations", check_mutations, train_corpus, "train")
        run("mutations", check_mutations, eval_corpus, "eval")
    run("schedule", check_schedules, [trees_of(b) for b in batches])
    run("oracle", check_oracle, trees_of(sample), cfg, seed)
    run("gradient", check_gradient, spec.task, batches[0], cfg, seed)
    run("predictions", check_predictions, eval_corpus, sample, params, cfg)
    for metrics, n in eval_metrics:
        run("eval-metrics", check_metrics, metrics, n)
    for history in histories:
        run("losses", check_losses, history)
    return failures, notes
