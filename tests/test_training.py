import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from treeformer import training
from treeformer.batched import encode_batch
from treeformer.checks import full_model_gradcheck
from treeformer.minilang import MINI_VOCAB, OPS_MINI, operator_nodes, parse
from treeformer.model import ModelConfig, encode_tree, init_params
from treeformer.numerics import CheckpointError, NonFiniteError, ParamStore, save_checkpoint
from treeformer.synth import Corpus, MutationRecord, gen_classify_corpus, gen_wrongop_corpus
from treeformer.training import (
    AdamState,
    DigestMismatch,
    Metrics,
    NonFiniteGradient,
    TrainConfig,
    adam_step,
    cross_entropy,
    evaluate,
    lr_schedule,
    model_config_for,
    task_forward,
    train,
)
from treeformer.trees import random_tree


def classify_corpus(classes=3, per_class=6, seed=0):
    samples = gen_classify_corpus(classes, per_class, seed)
    meta = {
        "task": "classify",
        "classes": classes,
        "seed": seed,
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    return Corpus("classify", [s.tree for s in samples], None, MINI_VOCAB, meta)


def wrongop_corpus(programs=12, seed=0):
    records = gen_wrongop_corpus(programs, 2, seed)
    meta = {
        "task": "wrongop",
        "operators": list(OPS_MINI),
        "seed": seed,
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    return Corpus("wrongop", [r.tree for r in records], records, MINI_VOCAB, meta)


def node_corpus(labeled=6, trees=8, seed=0):
    """Random trees, the first ``labeled`` of them with every node labeled."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(trees):
        tree = random_tree(rng, 10, 3, 3, 3)
        if i < labeled:
            tree = replace(tree, node_labels={nid: nid % 2 for nid in tree.nodes})
        out.append(tree)
    meta = {
        "task": "node-classify",
        "node_classes": 2,
        "seed": seed,
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    return Corpus("node-classify", out, None, MINI_VOCAB, meta)


class TestLrSchedule:
    CFG = TrainConfig(epochs=1)

    def test_examples(self):
        assert lr_schedule(0, self.CFG) == 0.0
        assert lr_schedule(2000, self.CFG) == 0.002
        assert lr_schedule(1000, self.CFG) == 0.001

    def test_monotone_and_continuous(self):
        values = [lr_schedule(s, self.CFG) for s in range(0, 4001, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert abs(lr_schedule(1999, self.CFG) - lr_schedule(2000, self.CFG)) < 2e-6
        assert lr_schedule(2001, self.CFG) == lr_schedule(9000, self.CFG) == 0.002


class TestAdam:
    def _store(self, value):
        store = ParamStore("float64")
        store.add_param("w", np.array([value]))
        return store

    def test_zero_gradient_no_change(self):
        store = self._store(1.5)
        before = store["w"].data.copy()
        store["w"].grad = np.zeros(1)
        adam_step(store, AdamState(store), lr=0.1)
        assert np.array_equal(store["w"].data, before)

    def test_first_step_magnitude(self):
        store = self._store(0.0)
        store["w"].grad = np.ones(1)
        adam_step(store, AdamState(store), lr=0.1)
        # bias-corrected first step moves by ~lr
        assert abs(store["w"].data[0] + 0.1) < 1e-6

    def test_quadratic_convergence(self):
        store = self._store(0.0)
        state = AdamState(store)
        for _ in range(100):
            w = store["w"]
            loss = (w.data[0] - 3.0) ** 2
            w.grad = np.array([2.0 * (w.data[0] - 3.0)])
            adam_step(store, state, lr=0.1)
        assert abs(store["w"].data[0] - 3.0) < 0.1

    def test_lr_zero_bit_identical(self):
        store = self._store(math.pi)
        before = store["w"].data.tobytes()
        store["w"].grad = np.array([123.456])
        adam_step(store, AdamState(store), lr=0.0)
        assert store["w"].data.tobytes() == before

    def test_non_finite_gradient_aborts(self):
        store = self._store(0.0)
        store["w"].grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradient, match="w"):
            adam_step(store, AdamState(store), lr=0.1)


class TestLosses:
    def test_perfect_one_hot(self):
        logits = np.full(5, -50.0)
        logits[2] = 50.0
        assert cross_entropy(logits, 2).item() < 1e-9

    def test_uniform_logits(self):
        for c in (2, 5, 13):
            loss = cross_entropy(np.zeros(c), 0).item()
            assert abs(loss - math.log(c)) < 1e-12

    def test_wrongop_decomposition(self):
        """Runs of unequal length are separate softmaxes, and the loss is their mean."""
        rng = np.random.default_rng(0)
        plogits = rng.standard_normal(6)
        rlogits = rng.standard_normal(13)
        combined = cross_entropy(np.concatenate([plogits, rlogits]), [2, 7], sizes=[6, 13]).item()
        separate = cross_entropy(plogits, 2).item() + cross_entropy(rlogits, 7).item()
        assert abs(combined - separate / 2) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)
        with pytest.raises(IndexError, match=r"label 2 of run 1 outside \[0, 2\)"):
            cross_entropy(np.zeros(5), [2, 2], sizes=[3, 2])

    def test_node_loss_mean(self):
        logits = np.zeros((4, 3))
        assert abs(cross_entropy(logits, [0, 1, 2, 0]).item() - math.log(3)) < 1e-12


class TestMetrics:
    def test_joint_bounded_by_loc(self):
        with pytest.raises(ValueError):
            Metrics("wrongop", 0.0, 1, loc_accuracy=0.4, joint_accuracy=0.5)
        m = Metrics("wrongop", 0.0, 1, loc_accuracy=0.5, joint_accuracy=0.5)
        assert m.joint_accuracy <= m.loc_accuracy


def tiny_train_config(**kw):
    base = dict(
        task="classify", d=16, heads=2, max_children=16, epochs=2,
        batch_size=8, seed=1, precision="float64", warmup_steps=10, base_lr=0.002,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_deterministic_metrics(self):
        corpus = classify_corpus()
        runs = [train(tiny_train_config(), corpus, eval_corpus=corpus) for _ in range(2)]
        assert runs[0].history == runs[1].history
        a = {n: runs[0].params[n].data.tobytes() for n in runs[0].params.names()}
        b = {n: runs[1].params[n].data.tobytes() for n in runs[1].params.names()}
        assert a == b

    def test_eval_beats_random_baseline_on_train_set(self):
        corpus = classify_corpus(classes=3, per_class=10)
        result = train(tiny_train_config(epochs=6), corpus, eval_corpus=corpus)
        final = result.history[-1]
        assert final["eval_accuracy"] >= 1.0 / 3

    def test_task_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_train_config(task="wrongop"), classify_corpus())
        result = train(tiny_train_config(epochs=1), classify_corpus())
        with pytest.raises(ValueError, match="model head is 'classify'"):
            evaluate((result.params, result.model_config), wrongop_corpus())

    def test_eval_corpus_task_mismatch_rejected_before_training(self, monkeypatch):
        def no_forward(*_):
            raise AssertionError("trained before checking the eval corpus")

        monkeypatch.setattr(training, "task_forward", no_forward)
        with pytest.raises(ValueError, match="'wrongop'.*'classify'"):
            train(tiny_train_config(), classify_corpus(), eval_corpus=wrongop_corpus())

    @pytest.mark.parametrize(
        "field, value", [("epochs", 0), ("epochs", -3), ("checkpoint_every", -1)]
    )
    def test_bad_config_named(self, field, value):
        """No run with no epoch, and no negative checkpoint interval (which
        ``epoch % -1 == 0`` would turn into a checkpoint every epoch)."""
        with pytest.raises(ValueError, match=f"^{field} must be >= [01], got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_final_parameters_scored_once(self, tmp_path, monkeypatch, epochs):
        """predictions.jsonl and summary.json come from the last epoch's eval
        pass; the parameters are not scored again after the loop."""
        corpus = classify_corpus()
        passes = []
        scored = training._evaluate_params
        monkeypatch.setattr(
            training, "_evaluate_params", lambda *args: passes.append(1) or scored(*args)
        )
        config = tiny_train_config(epochs=epochs)
        result = train(config, corpus, eval_corpus=corpus, out_dir=tmp_path)
        assert len(passes) == epochs
        again = tmp_path / "again.jsonl"
        metrics = evaluate(
            (result.params, result.model_config), corpus, again, batch_size=config.batch_size
        )
        assert (tmp_path / "predictions.jsonl").read_bytes() == again.read_bytes()
        assert json.loads((tmp_path / "summary.json").read_text())["eval"] == metrics.to_dict()
        assert result.final_eval == metrics

    def test_wrongop_loop_and_joint_bound(self):
        corpus = wrongop_corpus(programs=16)
        config = tiny_train_config(task="wrongop", epochs=2)
        result = train(config, corpus, eval_corpus=corpus)
        for row in result.history:
            assert row["eval_joint_accuracy"] <= row["eval_loc_accuracy"] + 1e-12

    def test_artifacts_and_rerun_bytes(self, tmp_path):
        corpus = classify_corpus()
        config = tiny_train_config()
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        train(config, corpus, eval_corpus=corpus, out_dir=out1)
        train(config, corpus, eval_corpus=corpus, out_dir=out2)
        for name in (
            "run_manifest.json", "metrics.csv", "summary.json",
            "predictions.jsonl", "checkpoint.json", "checkpoint.json.bin",
        ):
            assert (out1 / name).exists(), name
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        manifest = json.loads((out1 / "run_manifest.json").read_text())
        assert manifest["vocab_digest"] == MINI_VOCAB.digest()
        assert "code_version" in manifest and "train_config" in manifest

    @pytest.mark.parametrize("failing_write", range(6))
    def test_failed_write_leaves_previous_file_whole(self, tmp_path, monkeypatch, failing_write):
        import os

        # the order in which a run writes its files
        names = (
            "run_manifest.json", "checkpoint.json.bin", "checkpoint.json",
            "metrics.csv", "predictions.jsonl", "summary.json",
        )
        corpus = classify_corpus()
        train(tiny_train_config(), corpus, eval_corpus=corpus, out_dir=tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        writes = []

        def fsync(fd):
            writes.append(fd)
            if len(writes) > failing_write:
                raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="disk full"):
            train(tiny_train_config(seed=2), corpus, eval_corpus=corpus, out_dir=tmp_path)
        monkeypatch.undo()
        after = {name: (tmp_path / name).read_bytes() for name in names}
        failed = names[failing_write]
        assert after[failed] == before[failed]
        # every earlier file was replaced whole by the new run's
        assert all(after[name] != before[name] for name in names[:failing_write])
        assert not list(tmp_path.glob("*.tmp"))

    def test_early_stop_target(self):
        corpus = classify_corpus(classes=2, per_class=8)
        config = tiny_train_config(epochs=40, target={"accuracy": 0.9})
        result = train(config, corpus, eval_corpus=corpus)
        assert len(result.history) < 40
        assert result.history[-1]["eval_accuracy"] >= 0.9


@pytest.mark.parametrize(
    "name", ["embed.type", "up.frat.wv", "up.ffn.b2", "down.ffn.w1", "down.ln_out.gamma"]
)
def test_inf_parameter_never_leaves_the_encoder(monkeypatch, name):
    corpus = classify_corpus()
    config = tiny_train_config()
    cfg = model_config_for(config, corpus)
    params = init_params(cfg, seed=config.seed, dtype=config.precision)
    params[name].data[...] = np.inf
    # the top-down pass has no softmax, so only the encoder's own check can catch it
    match = "non-finite top-down state at tree 0, node" if name.startswith("down.") else None
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match=match):
            encode_batch(corpus.trees[:4], params, cfg)
        with pytest.raises(NonFiniteError, match=match):
            encode_tree(corpus.trees[0], params, cfg, method="naive")
        with pytest.raises(NonFiniteError):
            evaluate((params, cfg), corpus)
        monkeypatch.setattr(training, "init_params", lambda *args, **kw: params)
        with pytest.raises((NonFiniteError, NonFiniteGradient)):
            train(config, corpus)


class TestUnlabeledNodeBatches:
    """Trees without node labels are allowed; a batch of only such trees is skipped."""

    def test_train_takes_no_step_for_unlabeled_batch(self):
        corpus = node_corpus()
        # seed 3 shuffles the two unlabeled trees (6, 7) into one batch of 2
        assert set(np.random.default_rng(3).permutation(8)[:2]) == {6, 7}
        config = tiny_train_config(task="node-classify", batch_size=2, seed=3, epochs=1)
        result = train(config, corpus)
        assert result.steps == 3
        assert math.isfinite(result.history[0]["train_loss"])

    def test_evaluate_adds_no_nodes_for_unlabeled_batch(self, tmp_path):
        corpus = node_corpus()
        config = tiny_train_config(task="node-classify", batch_size=2, epochs=1)
        result = train(config, corpus)
        model = (result.params, result.model_config)
        preds = tmp_path / "preds.jsonl"
        metrics = evaluate(model, corpus, predictions_path=preds, batch_size=2)
        labeled = replace(corpus, trees=corpus.trees[:6])
        assert metrics.accuracy == evaluate(model, labeled, batch_size=2).accuracy
        rows = preds.read_text().splitlines()
        assert len(rows) == sum(len(t.node_labels) for t in corpus.trees[:6])


class TestModelConfigFor:
    def test_node_classes_missing_everywhere_named(self):
        corpus = node_corpus(labeled=0, trees=4)
        corpus = replace(corpus, meta={k: v for k, v in corpus.meta.items() if k != "node_classes"})
        with pytest.raises(ValueError, match="no 'node_classes' in its meta and no tree"):
            model_config_for(tiny_train_config(task="node-classify"), corpus)

    def test_classify_unlabeled_tree_without_classes_named(self):
        corpus = classify_corpus()
        trees = list(corpus.trees)
        trees[2] = replace(trees[2], tree_label=None)
        meta = {k: v for k, v in corpus.meta.items() if k != "classes"}
        with pytest.raises(ValueError, match="no 'classes' in its meta and tree 2 has no label"):
            model_config_for(tiny_train_config(), replace(corpus, trees=trees, meta=meta))

    @pytest.mark.parametrize("task, key, classes, message", [
        ("classify", "classes", 2, "'classes' is 2, but tree 12 has label 2"),
        ("node-classify", "node_classes", 1, "'node_classes' is 1, but tree 0 has label 1"),
    ], ids=["classify", "node-classify"])
    def test_class_count_below_labels_named(self, task, key, classes, message):
        """A count that leaves a label out passed until the loss raised
        ``IndexError: label 2 ... outside [0, 2)``."""
        corpus = classify_corpus() if task == "classify" else node_corpus()
        corpus = replace(corpus, meta={**corpus.meta, key: classes})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_config_for(tiny_train_config(task=task), corpus)


class TestEvaluate:
    @pytest.mark.parametrize("task", ["classify", "wrongop", "node-classify"])
    def test_no_prediction_rows_without_a_file(self, monkeypatch, task):
        """``evaluate`` without ``predictions_path``, and ``train`` without
        ``out_dir``, count hits on arrays and build no prediction row."""
        corpus = {"classify": classify_corpus, "wrongop": wrongop_corpus,
                  "node-classify": node_corpus}[task]()
        cfg = model_config_for(tiny_train_config(task=task), corpus)

        def refuse(*args):
            raise AssertionError("prediction rows built")

        monkeypatch.setattr(training, "_prediction_rows", refuse)
        evaluate((init_params(cfg, seed=0), cfg), corpus, batch_size=4)
        train(tiny_train_config(task=task, epochs=1), corpus, eval_corpus=corpus)

    def test_node_mean_loss_independent_of_batch_size(self):
        """Each batch's mean loss counts by its labeled nodes, not by its trees."""
        rng = np.random.default_rng(8)
        trees = []
        for _ in range(8):
            tree = random_tree(rng, int(rng.integers(4, 40)), 3, 3, 3)
            trees.append(replace(tree, node_labels={nid: nid % 3 for nid in tree.nodes}))
        corpus = replace(node_corpus(), trees=trees, meta={**node_corpus().meta, "node_classes": 3})
        cfg = model_config_for(tiny_train_config(task="node-classify"), corpus)
        model = (init_params(cfg, seed=0), cfg)
        losses = [evaluate(model, corpus, batch_size=size).mean_loss for size in (1, 2, 3, 8)]
        np.testing.assert_allclose(losses, losses[-1], rtol=1e-12)

    def test_empty_corpus_rejected(self):
        corpus = classify_corpus()
        result = train(tiny_train_config(epochs=1), corpus)
        empty = replace(corpus, trees=[])
        with pytest.raises(ValueError, match="empty"):
            evaluate((result.params, result.model_config), empty)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_named(self, batch_size):
        """A negative size would score no batch and report 0.0 for loss and
        accuracy, and 0 would fail inside ``range()``."""
        corpus = classify_corpus()
        cfg = model_config_for(tiny_train_config(), corpus)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate((init_params(cfg, seed=0), cfg), corpus, batch_size=batch_size)

    def test_checkpoint_round_trip(self, tmp_path):
        corpus = classify_corpus()
        result = train(tiny_train_config(), corpus, eval_corpus=corpus, out_dir=tmp_path)
        direct = evaluate((result.params, result.model_config), corpus)
        via_file = evaluate(tmp_path / "checkpoint.json", corpus)
        assert direct.to_dict() == via_file.to_dict()

    def test_checkpoint_not_matching_config_refused(self, tmp_path):
        corpus = classify_corpus()
        train(tiny_train_config(epochs=1), corpus, out_dir=tmp_path)
        path = tmp_path / "checkpoint.json"
        manifest = json.loads(path.read_text())
        manifest["extra"]["model_config"]["classify_classes"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=r"'head\.classify\.b' has shape \(\d+,\)"):
            evaluate(path, corpus)
        manifest["extra"]["model_config"]["classify_classes"] -= 1
        manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != "pool.gate"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=r"'pool\.gate' of the model config is missing"):
            evaluate(path, corpus)

    @pytest.mark.parametrize("edit, message", [
        ("drop", "no 'model_config' object"),
        # written before per-head scaling and the layer-norm eps became constants
        ("old", "not ModelConfig fields: ['layer_norm_eps', 'per_head_scaling']"),
        ("required", "lacks the required keys ['d']"),
        ("type", "max_children must be an integer, got '16'"),
        ("digest", "no 'vocab_digest' string"),
    ], ids=["missing", "removed-keys", "missing-d", "string-size", "missing-digest"])
    def test_checkpoint_model_config_checked(self, tmp_path, edit, message):
        """A missing, unknown or incomplete model config, or a missing
        vocabulary digest, is a CheckpointError naming the file and the keys,
        not a raw KeyError or TypeError."""
        corpus = classify_corpus()
        train(tiny_train_config(epochs=1), corpus, out_dir=tmp_path)
        path = tmp_path / "checkpoint.json"
        manifest = json.loads(path.read_text())
        if edit == "drop":
            del manifest["extra"]["model_config"]
        elif edit == "old":
            manifest["extra"]["model_config"].update(per_head_scaling=True, layer_norm_eps=1e-5)
        elif edit == "required":
            del manifest["extra"]["model_config"]["d"]
        elif edit == "type":
            manifest["extra"]["model_config"]["max_children"] = "16"
        else:
            del manifest["extra"]["vocab_digest"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as err:
            evaluate(path, corpus)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    def test_format_2_checkpoint_refused(self, tmp_path):
        """Format 2 stored the position table as a tensor flagged not
        learnable; this version computes the table and reads format 3 only, so
        a format-2 file is refused by its path and version, not loaded."""
        corpus = classify_corpus()
        cfg = model_config_for(tiny_train_config(), corpus)
        path = tmp_path / "old.json"
        save_checkpoint(init_params(cfg, seed=0), path, extra={
            "model_config": cfg.to_obj(), "vocab_digest": corpus.vocab.digest(),
        })
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 2
        for entry in manifest["tensors"]:
            entry["learnable"] = True
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=(
            f"^{re.escape(str(path))}: unsupported checkpoint format_version 2"
        )):
            evaluate(path, corpus)

    def test_digest_mismatch_refused(self, tmp_path):
        corpus = classify_corpus()
        train(tiny_train_config(), corpus, out_dir=tmp_path)
        from treeformer.trees import Vocabulary

        other = Corpus(
            "classify", corpus.trees, None, Vocabulary(["x"], ["y"]), corpus.meta
        )
        with pytest.raises(DigestMismatch):
            evaluate(tmp_path / "checkpoint.json", other)

    def test_evaluate_does_not_mutate_params(self):
        corpus = classify_corpus()
        result = train(tiny_train_config(epochs=1), corpus)
        before = {n: result.params[n].data.tobytes() for n in result.params.names()}
        evaluate((result.params, result.model_config), corpus)
        after = {n: result.params[n].data.tobytes() for n in result.params.names()}
        assert before == after

    @pytest.mark.parametrize("task", ["classify", "wrongop", "node-classify"])
    def test_unrecorded_matches_recorded_forward(self, tmp_path, task):
        """``evaluate`` records no tape, yet its metrics and prediction file equal
        those from recorded ``task_forward`` calls over the same batches."""
        corpus = {"classify": classify_corpus, "wrongop": wrongop_corpus,
                  "node-classify": node_corpus}[task]()
        cfg = model_config_for(tiny_train_config(task=task), corpus)
        params = init_params(cfg, seed=2, dtype="float32")
        preds = tmp_path / "preds.jsonl"
        metrics = evaluate((params, cfg), corpus, predictions_path=preds, batch_size=4)
        data = corpus.records if task == "wrongop" else corpus.trees
        total, items, rows = 0.0, 0, []
        for start in range(0, len(data), 4):
            out = task_forward(task, data[start : start + 4], params, cfg)
            if out.loss is None:
                continue
            assert out.loss.requires_grad
            total += out.loss.item() * out.items
            items += out.items
            rows += training._prediction_rows(task, out, start)
        assert metrics.mean_loss == total / items
        lines = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
        assert preds.read_text() == lines

    def test_gradcheck_after_evaluate(self):
        """Recording is back on once ``evaluate`` returns."""
        corpus = node_corpus()
        cfg = model_config_for(tiny_train_config(task="node-classify"), corpus)
        evaluate((init_params(cfg, seed=0), cfg), corpus)
        assert full_model_gradcheck("node-classify", d=8, heads=2, seed=1, eps=1e-5) < 1e-4

    def test_prediction_log_recount(self, tmp_path):
        """Independent recount of the prediction log equals reported metrics."""
        corpus = wrongop_corpus(programs=20, seed=4)
        config = tiny_train_config(task="wrongop", epochs=1)
        result = train(config, corpus, eval_corpus=corpus, out_dir=tmp_path)
        reported = evaluate(
            (result.params, result.model_config),
            corpus,
            predictions_path=tmp_path / "preds.jsonl",
        )
        rows = [json.loads(line) for line in (tmp_path / "preds.jsonl").read_text().splitlines()]
        assert len(rows) == 20
        loc = sum(r["pred_node"] == r["gold_node"] for r in rows) / len(rows)
        joint = sum(
            r["pred_node"] == r["gold_node"] and r["pred_op"] == r["gold_op"] for r in rows
        ) / len(rows)
        assert loc == reported.loc_accuracy
        assert joint == reported.joint_accuracy


class TestLeafLogitInvariant:
    def test_no_top_down_equal_symbols_equal_logits(self):
        """Without top-down flow, a candidate's logit is a function of its own symbol."""
        tree = parse("s = a + b + c;")  # two '+' leaves, identical (type, token)
        cands = operator_nodes(tree)
        assert len(cands) == 2
        cfg = ModelConfig(
            d=16, heads=2, type_vocab_size=MINI_VOCAB.n_types,
            token_vocab_size=MINI_VOCAB.n_tokens, max_children=16,
            operator_classes=13, use_top_down=False,
        )
        params = init_params(cfg, seed=2)
        # in the middle of a multi-record batch, so its rows are not the first
        batch = gen_wrongop_corpus(16, 2, seed=2)
        batch.insert(7, MutationRecord(tree, cands[0], 0, 0, ""))
        logits = task_forward("wrongop", batch, params, cfg).logits[7]
        assert logits.shape == (2,) and logits[0] == logits[1]
        # deterministic tie-break: argmax picks the lowest node id
        assert cands[int(np.argmax(logits))] == min(cands)
