"""Task heads and losses, Adam with linear warmup, train/eval loops, metrics, and run artifacts.

The cross-entropy is the fused ``numerics.cross_entropy``, re-exported here.
The classify head pools each tree by single-query attention (``pooled_rows``).
The wrongop head pads nothing: it scores one row per real candidate, and its
pointer loss is one cross-entropy over runs, a run of candidates per tree.

Runs are reproducible: all randomness flows from the config seed, artifacts
carry no wall-clock data, and reruns in float64 match bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .batched import batch_state_tensors
from .minilang import OPERATOR_TYPE_ID
from .model import ModelConfig, init_params
from .numerics import (
    CheckpointError,
    ParamStore,
    Tensor,
    _replace_atomically,
    add,
    attention,
    backward,
    cross_entropy,
    gather_rows,
    linear,
    load_checkpoint,
    matmul,
    no_grad,
    reshape,
    save_checkpoint,
    transpose,
)
from .scheduler import Schedule
from .synth import TASKS, Corpus
from .trees import branching_stats, tree_arrays


class NonFiniteGradient(RuntimeError):
    pass


class DigestMismatch(ValueError):
    pass


@dataclass
class TrainConfig:
    task: str = "classify"
    d: int = 256
    heads: int = 4
    ffn_hidden: int | None = None
    max_children: int = 16
    base_lr: float = 0.002
    warmup_steps: int = 2000
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    precision: str = "float32"
    use_position_encoding: bool = True
    use_fraternal_attention: bool = True
    use_top_down: bool = True
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = final only
    target: dict | None = None  # e.g. {"accuracy": 0.95}: stop once all reached

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")


def lr_schedule(step: int, config: TrainConfig) -> float:
    """Linear ramp from 0 to base_lr over warmup_steps, constant afterwards."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return config.base_lr * min(1.0, step / config.warmup_steps)


class AdamState:
    def __init__(self, params: ParamStore):
        self.m = {n: np.zeros_like(params.params[n].data) for n in params.names()}
        self.v = {n: np.zeros_like(params.params[n].data) for n in params.names()}
        self.t = 0


def adam_step(
    params: ParamStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update; missing gradients count as zero."""
    state.t += 1
    t = state.t
    for name in params.names():
        p = params.params[name]
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g.sum()):
            raise NonFiniteGradient(
                f"non-finite gradient in {name!r} at optimizer step {t}"
            )
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    task: str
    mean_loss: float
    samples: int
    accuracy: float | None = None
    loc_accuracy: float | None = None
    joint_accuracy: float | None = None

    def __post_init__(self):
        if self.loc_accuracy is not None and self.joint_accuracy is not None:
            if self.joint_accuracy > self.loc_accuracy + 1e-12:
                raise ValueError(
                    f"joint accuracy {self.joint_accuracy} exceeds"
                    f" localization accuracy {self.loc_accuracy}"
                )

    def to_dict(self) -> dict:
        out = {"task": self.task, "mean_loss": self.mean_loss, "samples": self.samples}
        for key in ("accuracy", "loc_accuracy", "joint_accuracy"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _class_count(meta: dict, key: str, tops: list) -> int:
    """``meta[key]``, or one more than the largest label when it is absent;
    ``tops`` holds each tree's largest label, None for an unlabeled tree. A
    count that leaves a label out is a ValueError naming the key and tree."""
    classes = meta.get(key)
    if classes is None:
        return 1 + max(top for top in tops if top is not None)
    for i, top in enumerate(tops):
        if top is not None and top >= classes:
            raise ValueError(f"{key!r} is {classes}, but tree {i} has label {top}")
    return classes


def model_config_for(config: TrainConfig, corpus: Corpus) -> ModelConfig:
    max_branch = max(branching_stats(t).max_children for t in corpus.trees)
    if max_branch > config.max_children:
        raise ValueError(
            f"corpus branching factor {max_branch} exceeds max_children={config.max_children}"
        )
    head = {}
    if config.task == "classify":
        tops = [t.tree_label for t in corpus.trees]
        if corpus.meta.get("classes") is None and None in tops:
            raise ValueError(
                f"classify corpus has no 'classes' in its meta and tree {tops.index(None)}"
                " has no label to count them from"
            )
        head["classify_classes"] = _class_count(corpus.meta, "classes", tops)
    elif config.task == "wrongop":
        head["operator_classes"] = len(corpus.meta["operators"])
    else:
        tops = [max(t.node_labels.values()) if t.node_labels else None for t in corpus.trees]
        if corpus.meta.get("node_classes") is None and tops.count(None) == len(tops):
            raise ValueError(
                "node-classify corpus has no 'node_classes' in its meta and no tree"
                " with node_labels to count them from"
            )
        head["node_classes"] = _class_count(corpus.meta, "node_classes", tops)
    return ModelConfig(
        d=config.d,
        heads=config.heads,
        type_vocab_size=corpus.vocab.n_types,
        token_vocab_size=corpus.vocab.n_tokens,
        max_children=config.max_children,
        ffn_hidden=config.ffn_hidden,
        use_position_encoding=config.use_position_encoding,
        use_fraternal_attention=config.use_fraternal_attention,
        use_top_down=config.use_top_down,
        **head,
    )


# ---------------------------------------------------------------------------
# the batched task heads: one forward per task for training, evaluation and gradcheck

@dataclass
class TaskForward:
    """One batch through the encoder and its task head.

    ``logits`` and ``targets`` hold one entry per item: tree-class logits and
    labels (classify), node-class logits and labels of the labeled nodes
    (node-classify), or each tree's 1-D pointer logits over its candidates
    only, and the gold candidate's index among them (wrongop). ``nodes``
    names the items: for node-classify, two int arrays of each labeled
    node's tree index in the batch and node id; for wrongop, each tree's
    candidate ids.
    """

    loss: Tensor | None  # mean over the items; None when the batch has none
    items: int  # trees for classify and wrongop, labeled nodes for node-classify
    logits: np.ndarray | list  # wrongop: one [candidates] array per tree
    targets: np.ndarray
    nodes: list | tuple | None = None  # wrongop: a list; node-classify: (tree, node id) arrays
    repair_logits: list | None = None  # wrongop: one [candidates, operator classes] array per tree
    repair_targets: np.ndarray | None = None  # wrongop: original operator per tree


def pooled_rows(D: Tensor, schedule: Schedule, params: ParamStore) -> Tensor:
    """Each tree's final node rows pooled into one row, ``[B, d]``: single-query,
    single-head attention whose query is the learned ``pool.gate``, over the
    tree's rows as keys and values (pooling by attention, as in Set Transformer)."""
    # tree t's rows follow tree t - 1's, so each run of equal-size trees is one block
    sizes = [len(index) for index in schedule.row_index]
    blocks = [(1, n, len(list(run))) for n, run in itertools.groupby(sizes)]
    q = gather_rows(transpose(params["pool.gate"], (1, 0)), np.zeros(len(sizes), np.intp))
    return attention(q, D, D, 1, 1.0, blocks)


def task_forward(task: str, batch: list, params: ParamStore, cfg: ModelConfig) -> TaskForward:
    """Encode ``batch`` (trees, or mutation records for wrongop) once and apply the task head.

    The wrongop and node-classify heads name the rows they read before the
    encoder runs, so its top-down pass skips every row that no read depends on.
    """
    trees = [r.tree for r in batch] if task == "wrongop" else batch
    if task == "classify":  # the pool reads every row
        _, _, D, schedule = batch_state_tensors(trees, params, cfg)
        logits = linear(
            pooled_rows(D, schedule, params), params["head.classify.w"], params["head.classify.b"]
        )
        labels = np.array([t.tree_label for t in trees], dtype=np.intp)
        return TaskForward(cross_entropy(logits, labels), len(trees), logits.data, labels)
    if task == "node-classify" and not any(tree.node_labels for tree in trees):
        none = np.zeros(0, np.intp)
        return TaskForward(None, 0, np.zeros((0, cfg.node_classes)), none, (none, none))
    # rows run tree by tree and, within a tree, by ascending node id
    arrays = tree_arrays(trees)
    tree_of = np.repeat(np.arange(len(trees)), [len(a.ids) for a in arrays])
    ids = np.concatenate([a.ids for a in arrays])
    if task == "wrongop":
        # the candidates of minilang.operator_nodes, one row per real candidate
        rows = np.flatnonzero(np.concatenate([a.type_id for a in arrays]) == OPERATOR_TYPE_ID)
        _, _, D, _ = batch_state_tensors(trees, params, cfg, rows)
        sizes = np.bincount(tree_of[rows], minlength=len(trees))
        ends = np.cumsum(sizes)
        cands = [cand.tolist() for cand in np.split(ids[rows], ends[:-1])]
        crows = gather_rows(D, rows)
        # one dot per candidate: a flat [rows, d] @ [d, 1] product rounds by
        # row position, which would give equal-content candidates unequal
        # logits, so each candidate runs as its own [1, d] @ [d, 1] product
        scores = matmul(reshape(crows, (-1, 1, cfg.d)), params["head.pointer.w"])
        pointer = reshape(scores, (-1,))
        repair = linear(crows, params["head.repair.w"], params["head.repair.b"])
        targets = np.array([c.index(r.target_node) for c, r in zip(cands, batch)], dtype=np.intp)
        ops = np.array([r.original_op for r in batch], dtype=np.intp)
        gold = gather_rows(repair, ends - sizes + targets)
        loss = add(cross_entropy(pointer, targets, sizes), cross_entropy(gold, ops))
        logits, repair_logits = (np.split(t.data, ends[:-1]) for t in (pointer, repair))
        return TaskForward(loss, len(batch), logits, targets, cands, repair_logits, ops)
    labels = np.concatenate([a.label for a in arrays])
    rows = np.flatnonzero(labels >= 0)
    _, _, D, _ = batch_state_tensors(trees, params, cfg, rows)
    logits = linear(gather_rows(D, rows), params["head.node.w"], params["head.node.b"])
    labels = labels[rows]
    where = (tree_of[rows], ids[rows])
    return TaskForward(cross_entropy(logits, labels), len(labels), logits.data, labels, where)


# ---------------------------------------------------------------------------
# evaluation

def _prediction_rows(task: str, out: TaskForward, base: int) -> list[dict]:
    if task == "wrongop":
        # argmax takes the first maximum: a tie goes to the lowest node id
        pred = [int(np.argmax(logits)) for logits in out.logits]
        return [
            {
                "sample": base + i,
                "pred_node": int(cand[p]),
                "pred_op": int(np.argmax(repair[p])),
                "gold_node": int(cand[g]),
                "gold_op": int(gold_op),
            }
            for i, (cand, p, repair, g, gold_op) in enumerate(
                zip(out.nodes, pred, out.repair_logits, out.targets, out.repair_targets)
            )
        ]
    pred = np.argmax(out.logits, axis=1)
    if task == "classify":
        return [
            {"sample": base + i, "pred": int(p), "gold": int(g)}
            for i, (p, g) in enumerate(zip(pred, out.targets))
        ]
    tree, nid = out.nodes
    return [
        {"sample": base + t, "node": n, "pred": p, "gold": g}
        for t, n, p, g in zip(tree.tolist(), nid.tolist(), pred.tolist(), out.targets.tolist())
    ]


def _hits(task: str, out: TaskForward) -> np.ndarray:
    """A batch's correct items: ``[hits]``, or ``[located, located and repaired]`` for wrongop."""
    if task == "wrongop":
        # argmax takes the first maximum, as in the prediction rows
        pred = [int(np.argmax(logits)) for logits in out.logits]
        located = np.array(pred) == out.targets
        ops = np.array([np.argmax(repair[p]) for repair, p in zip(out.repair_logits, pred)])
        return np.array([located.sum(), (located & (ops == out.repair_targets)).sum()])
    return np.array([(np.argmax(out.logits, axis=1) == out.targets).sum()])


def _evaluate_params(
    params: ParamStore,
    cfg: ModelConfig,
    corpus: Corpus,
    batch_size: int = 64,
    with_rows: bool = False,
) -> tuple[Metrics, list[dict] | None]:
    """Metrics, and the prediction rows when ``with_rows`` (else None); each
    batch's mean loss is weighted by its item count.

    Runs without recording a tape.
    """
    task = corpus.task
    data = corpus.records if task == "wrongop" else corpus.trees
    n = len(data)
    if n == 0:
        raise ValueError(f"cannot evaluate on an empty {task} corpus")
    total_loss = 0.0
    items = 0
    hits = np.zeros(2 if task == "wrongop" else 1, dtype=np.intp)
    rows: list[dict] | None = [] if with_rows else None
    for start in range(0, n, batch_size):
        with no_grad():
            out = task_forward(task, data[start : start + batch_size], params, cfg)
        if out.loss is None:
            continue
        total_loss += out.loss.item() * out.items
        items += out.items
        hits += _hits(task, out)
        if with_rows:
            rows += _prediction_rows(task, out, start)
    denom = max(items, 1)
    hits = hits.tolist()
    if task == "wrongop":
        accuracies = {"loc_accuracy": hits[0] / denom, "joint_accuracy": hits[1] / denom}
    else:
        accuracies = {"accuracy": hits[0] / denom}
    return Metrics(task, total_loss / denom, n, **accuracies), rows


def _check_digest(expected: str, corpus: Corpus):
    actual = corpus.vocab.digest()
    if actual != expected:
        raise DigestMismatch(
            f"corpus vocabulary digest {actual[:12]} does not match model {expected[:12]}"
        )


def _check_tensors(params: ParamStore, cfg: ModelConfig, path) -> None:
    """Refuse a checkpoint whose tensor names or shapes differ from what ``cfg`` builds."""
    want = init_params(cfg, dtype=params.dtype)
    for name in sorted(set(want.names() + params.names())):
        if name not in params:
            raise CheckpointError(f"{path}: tensor {name!r} of the model config is missing")
        if name not in want:
            raise CheckpointError(f"{path}: tensor {name!r} is not in the model config")
        got, expected = params[name].shape, want[name].shape
        if got != expected:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {got}, the model config gives {expected}"
            )


def evaluate(checkpoint, corpus: Corpus, predictions_path=None, batch_size: int = 64) -> Metrics:
    """Metrics of a stored (or in-memory ``(params, config)``) model on a corpus."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(checkpoint, (str, os.PathLike)):
        params, extra = load_checkpoint(checkpoint)
        if not isinstance(extra.get("model_config"), dict):
            raise CheckpointError(f"{checkpoint}: no 'model_config' object in the checkpoint")
        if not isinstance(extra.get("vocab_digest"), str):
            raise CheckpointError(f"{checkpoint}: no 'vocab_digest' string in the checkpoint")
        try:
            cfg = ModelConfig.from_obj(extra["model_config"])
        except ValueError as err:  # an unknown, missing or invalid key, named
            raise CheckpointError(f"{checkpoint}: {err}") from None
        _check_tensors(params, cfg, checkpoint)
        _check_digest(extra["vocab_digest"], corpus)
    else:
        params, cfg = checkpoint
    if cfg.task != corpus.task:
        raise ValueError(f"model head is {cfg.task!r} but corpus task is {corpus.task!r}")
    metrics, predictions = _evaluate_params(params, cfg, corpus, batch_size, bool(predictions_path))
    if predictions_path:
        _write_predictions(predictions_path, predictions)
    return metrics


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    params: ParamStore
    model_config: ModelConfig
    history: list
    final_eval: Metrics | None
    checkpoint_path: str | None
    steps: int


def _write_text(path, text: str) -> None:
    _replace_atomically(os.fspath(path), text.encode("utf-8"))


def _write_predictions(path, rows: list[dict]) -> None:
    _write_text(path, "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def code_version() -> str:
    """Content hash of the installed package sources (git-style short id)."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()[:12]


def _target_reached(target: dict | None, metrics: Metrics | None) -> bool:
    if not target or metrics is None:
        return False
    got = metrics.to_dict()
    return all(key in got and got[key] >= threshold for key, threshold in target.items())


def train(
    config: TrainConfig,
    corpus: Corpus,
    eval_corpus: Corpus | None = None,
    out_dir=None,
) -> TrainResult:
    """Train on ``corpus``; deterministic given (config, corpus) in one precision."""
    if corpus.task != config.task:
        raise ValueError(f"corpus task {corpus.task!r} != config task {config.task!r}")
    if eval_corpus is not None:
        if eval_corpus.vocab.digest() != corpus.vocab.digest():
            raise DigestMismatch("train and eval corpora carry different vocabularies")
        if eval_corpus.task != corpus.task:
            raise ValueError(
                f"eval corpus task {eval_corpus.task!r} != train corpus task {corpus.task!r}"
            )

    cfg = model_config_for(config, corpus)
    params = init_params(cfg, seed=config.seed, dtype=config.precision)
    adam = AdamState(params)
    shuffle_rng = np.random.default_rng(config.seed)
    data = corpus.records if config.task == "wrongop" else corpus.trees
    n = len(data)
    if n == 0:
        raise ValueError("empty training corpus")

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {
            "command": "train",
            "train_config": asdict(config),
            "model_config": cfg.to_obj(),
            "vocab_digest": corpus.vocab.digest(),
            "corpus_meta": corpus.meta,
            "eval_corpus_meta": eval_corpus.meta if eval_corpus else None,
            "package_version": __version__,
            "code_version": code_version(),
        }
        _write_text(os.path.join(out_dir, "run_manifest.json"), _json_text(manifest))

    history: list[dict] = []
    step = 0
    final_eval: Metrics | None = None
    predictions: list[dict] | None = None  # the prediction rows of final_eval
    checkpoint_path = None

    def save(params, tag="checkpoint"):
        if not out_dir:
            return None
        path = os.path.join(out_dir, f"{tag}.json")
        save_checkpoint(
            params,
            path,
            extra={
                "model_config": cfg.to_obj(),
                "vocab_digest": corpus.vocab.digest(),
                "train_config": asdict(config),
            },
        )
        return path

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_items = 0
        for start in range(0, n, config.batch_size):
            batch = [data[int(i)] for i in order[start : start + config.batch_size]]
            out = task_forward(config.task, batch, params, cfg)
            if out.loss is None:
                continue
            if not np.isfinite(out.loss.item()):
                raise NonFiniteGradient(f"non-finite loss at step {step + 1}")
            params.zero_grads()
            backward(out.loss)
            step += 1
            adam_step(params, adam, lr_schedule(step, config))
            epoch_loss += out.loss.item() * out.items
            epoch_items += out.items
        row = {"epoch": epoch, "train_loss": epoch_loss / max(epoch_items, 1)}
        if eval_corpus is not None:
            final_eval, predictions = _evaluate_params(
                params, cfg, eval_corpus, config.batch_size, bool(out_dir)
            )
            for key, value in final_eval.to_dict().items():
                if key not in ("task", "samples"):
                    row[f"eval_{key}"] = value
        history.append(row)
        if config.checkpoint_every and epoch % config.checkpoint_every == 0:
            save(params, tag=f"checkpoint-epoch{epoch}")
        if _target_reached(config.target, final_eval):
            break

    checkpoint_path = save(params)
    if out_dir:
        fields = sorted({key for row in history for key in row})
        text = io.StringIO()  # csv's \r\n line endings pass through unchanged
        writer = csv.DictWriter(text, fieldnames=fields)
        writer.writeheader()
        writer.writerows(history)
        _write_text(os.path.join(out_dir, "metrics.csv"), text.getvalue())
        if eval_corpus is not None:
            _write_predictions(os.path.join(out_dir, "predictions.jsonl"), predictions)
        summary = {
            "epochs_run": len(history),
            "steps": step,
            "train_loss": history[-1]["train_loss"],
            "eval": final_eval.to_dict() if final_eval else None,
        }
        _write_text(os.path.join(out_dir, "summary.json"), _json_text(summary))

    return TrainResult(params, cfg, history, final_eval, checkpoint_path, step)
