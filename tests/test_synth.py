import json
import re

import numpy as np
import pytest

from treeformer.minilang import MINI_VOCAB, OPS_MINI, operator_nodes, parse
from treeformer.synth import (
    TooFewOperators,
    gen_classify_corpus,
    gen_program_source,
    gen_wrongop_corpus,
    load_corpus,
    mutate_operator,
    save_classify_corpus,
    save_wrongop_corpus,
)
from treeformer.trees import tree_digest, validate


class TestClassifyCorpus:
    def test_cardinality(self):
        samples = gen_classify_corpus(2, 1, seed=0)
        assert sorted(s.tree.tree_label for s in samples) == [0, 1]

    def test_deterministic(self):
        a = gen_classify_corpus(4, 5, seed=9)
        b = gen_classify_corpus(4, 5, seed=9)
        assert [s.source for s in a] == [s.source for s in b]
        assert [s.tree for s in a] == [s.tree for s in b]

    def test_label_distribution_exact(self):
        samples = gen_classify_corpus(8, 50, seed=1)
        counts = {}
        for s in samples:
            counts[s.tree.tree_label] = counts.get(s.tree.tree_label, 0) + 1
        assert counts == {k: 50 for k in range(8)}

    def test_classes_out_of_range(self):
        with pytest.raises(ValueError):
            gen_classify_corpus(1, 5, seed=0)
        with pytest.raises(ValueError):
            gen_classify_corpus(9, 5, seed=0)

    def test_sources_parse_back_to_stored_trees(self):
        for sample in gen_classify_corpus(8, 6, seed=3):
            reparsed = parse(sample.source)
            validate(sample.tree)
            assert {
                nid: (n.type_id, n.token_id, n.children)
                for nid, n in reparsed.nodes.items()
            } == {
                nid: (n.type_id, n.token_id, n.children)
                for nid, n in sample.tree.nodes.items()
            }

    def test_within_class_variety(self):
        samples = gen_classify_corpus(2, 20, seed=5)
        sources = {s.source for s in samples if s.tree.tree_label == 0}
        assert len(sources) > 10  # randomization produces distinct programs


class TestMutateOperator:
    def _tree(self):
        return parse("s = a + b; t = c * x;")

    def test_invariants(self):
        tree = self._tree()
        pristine_digest = tree_digest(tree, MINI_VOCAB)
        record = mutate_operator(tree, seed=4)
        assert record.corrupted_op != record.original_op
        assert record.source_hash == pristine_digest

        diffs = [
            nid
            for nid in tree.nodes
            if tree.node(nid).token_id != record.tree.node(nid).token_id
        ]
        assert diffs == [record.target_node]
        for nid in tree.nodes:
            assert tree.node(nid).children == record.tree.node(nid).children
            assert tree.node(nid).type_id == record.tree.node(nid).type_id

    def test_revert_reproduces_pristine_hash(self):
        tree = self._tree()
        record = mutate_operator(tree, seed=11)
        import dataclasses

        target = record.tree.node(record.target_node)
        reverted_nodes = dict(record.tree.nodes)
        reverted_nodes[record.target_node] = dataclasses.replace(
            target, token_id=MINI_VOCAB.token_id(OPS_MINI[record.original_op])
        )
        reverted = dataclasses.replace(record.tree, nodes=reverted_nodes)
        assert tree_digest(reverted, MINI_VOCAB) == record.source_hash

    def test_too_few_operators(self):
        with pytest.raises(TooFewOperators):
            mutate_operator(parse("s = a + b;"), seed=0)

    def test_target_selection_uniform(self):
        """Chi-square-style check: each operator node chosen with frequency 1/k."""
        tree = parse("s = a + b; t = c * x; u = s - t; v = u / 2;")
        ops = operator_nodes(tree)
        k = len(ops)
        n = 10_000
        counts = {nid: 0 for nid in ops}
        for seed in range(n):
            counts[mutate_operator(tree, seed).target_node] += 1
        p = 1.0 / k
        sigma = np.sqrt(p * (1 - p) / n)
        for nid in ops:
            assert abs(counts[nid] / n - p) <= 3 * sigma

    def test_replacement_never_equal_and_all_reachable(self):
        tree = self._tree()
        seen = set()
        for seed in range(500):
            rec = mutate_operator(tree, seed)
            assert rec.corrupted_op != rec.original_op
            seen.add(rec.corrupted_op)
        assert len(seen) >= 12  # every alternative operator appears


class TestWrongopCorpus:
    def test_min_ops_respected(self):
        records = gen_wrongop_corpus(10, 2, seed=0)
        assert len(records) == 10
        for rec in records:
            assert len(operator_nodes(rec.tree)) >= 2

    def test_min_ops_validation(self):
        with pytest.raises(ValueError):
            gen_wrongop_corpus(5, 1, seed=0)

    def test_min_ops_above_cap_refused(self):
        """A program holds at most 12 operators, so a larger minimum is refused
        rather than clipped to 12; 12 itself is met exactly."""
        for min_ops in (13, 14):
            with pytest.raises(ValueError, match=f"min_ops must be <= 12.*got {min_ops}"):
                gen_program_source(np.random.default_rng(0), min_ops=min_ops)
        with pytest.raises(ValueError, match="min_ops must be <= 12"):
            gen_wrongop_corpus(5, 14, seed=0)
        for rec in gen_wrongop_corpus(5, 12, seed=0):
            assert len(operator_nodes(rec.tree)) == 12

    @pytest.mark.parametrize("mean_ops", [20.0, 12.5, 1.5, -5.0, float("nan"), float("inf")])
    def test_mean_ops_outside_range_refused(self, mean_ops):
        """Once clipped every program to 12 (20.0) or 2 (-5.0) operators, and
        failed inside numpy on nan and inf."""
        message = rf"^mean_ops must be a finite number in \[2, 12\]; got {mean_ops}$"
        with pytest.raises(ValueError, match=message):
            gen_wrongop_corpus(5, 2, seed=0, mean_ops=mean_ops)

    def test_deterministic(self):
        a = gen_wrongop_corpus(15, 2, seed=21)
        b = gen_wrongop_corpus(15, 2, seed=21)
        assert a == b

    def test_mean_operator_density(self):
        records = gen_wrongop_corpus(1000, 2, seed=5)
        mean_ops = np.mean([len(operator_nodes(r.tree)) for r in records])
        assert 5.0 <= mean_ops <= 7.0

    def test_generated_sources_parse(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            tree = parse(gen_program_source(rng))
            validate(tree)


class TestCorpusIO:
    def test_classify_round_trip(self, tmp_path):
        samples = gen_classify_corpus(3, 4, seed=2)
        save_classify_corpus(tmp_path / "c", samples, seed=2)
        corpus = load_corpus(tmp_path / "c")
        assert corpus.task == "classify"
        assert corpus.vocab == MINI_VOCAB
        assert corpus.trees == [s.tree for s in samples]
        assert corpus.meta["seed"] == 2 and corpus.meta["classes"] == 3

    def test_wrongop_round_trip(self, tmp_path):
        records = gen_wrongop_corpus(6, 2, seed=3)
        save_wrongop_corpus(tmp_path / "w", records, seed=3)
        corpus = load_corpus(tmp_path / "w")
        assert corpus.task == "wrongop"
        assert corpus.records == records
        assert corpus.meta["operators"] == OPS_MINI

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("task"), "no 'task' key"),
        (lambda meta: meta.pop("vocabulary"), "no 'vocabulary' key"),
        (lambda meta: meta.update(task="bogus"), "unknown task 'bogus'"),
        (lambda meta: meta.update(vocabulary=5), "'vocabulary' is not an object"),
        (lambda meta: meta["vocabulary"].pop("types"), "'vocabulary' is not an object"),
        (lambda meta: meta["vocabulary"].update(tokens="abc"), "'vocabulary' is not an object"),
        (lambda meta: meta.pop("operators"), "'operators' is not the operator list"),
        (lambda meta: meta.update(operators=["+", "-"]), "'operators' is not the operator list"),
        (lambda meta: meta.update(operators=5), "'operators' is not the operator list"),
    ], ids=["no-task", "no-vocabulary", "unknown-task", "vocabulary-not-object",
            "vocabulary-no-types", "vocabulary-tokens-not-list", "no-operators",
            "operators-too-few", "operators-not-list"])
    def test_bad_meta_named(self, tmp_path, edit, message):
        """A missing key raised a bare KeyError, an unknown task loaded, a
        malformed vocabulary raised a bare TypeError or KeyError, or loaded, and
        a wrong operator list loaded and failed in training."""
        save_wrongop_corpus(tmp_path / "c", gen_wrongop_corpus(2, 2, seed=1), seed=1)
        path = tmp_path / "c" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_corpus(tmp_path / "c")

    def _corrupt_line_2(self, tmp_path, edit):
        save_wrongop_corpus(tmp_path / "w", gen_wrongop_corpus(3, 2, seed=3), seed=3)
        path = tmp_path / "w" / "trees.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        lines[1] = edit(obj)
        path.write_text("\n".join(lines) + "\n")
        return tmp_path / "w"

    def test_wrongop_bad_json_named(self, tmp_path):
        corpus_dir = self._corrupt_line_2(tmp_path, lambda obj: json.dumps(obj)[:-5])
        with pytest.raises(ValueError, match=r"trees.jsonl line 2: bad JSON"):
            load_corpus(corpus_dir)

    def test_wrongop_missing_mutation_named(self, tmp_path):
        def edit(obj):
            del obj["mutation"]
            return json.dumps(obj)

        with pytest.raises(ValueError, match="line 2: no mutation"):
            load_corpus(self._corrupt_line_2(tmp_path, edit))

    def test_wrongop_target_not_operator_named(self, tmp_path):
        def edit(obj):
            obj["mutation"]["target_node"] = obj["root"]
            return json.dumps(obj)

        with pytest.raises(ValueError, match="line 2: target_node .* not an operator leaf"):
            load_corpus(self._corrupt_line_2(tmp_path, edit))

    def test_wrongop_original_op_out_of_range_named(self, tmp_path):
        def edit(obj):
            obj["mutation"]["original_op"] = len(OPS_MINI)
            return json.dumps(obj)

        with pytest.raises(ValueError, match="line 2: original_op 13 outside"):
            load_corpus(self._corrupt_line_2(tmp_path, edit))

    @pytest.mark.parametrize(
        "key, change, message",
        [
            ("corrupted_op", lambda mut: 99, "corrupted_op"),
            ("corrupted_op", lambda mut: mut["original_op"], "corrupted_op"),
            ("original_op", lambda mut: mut["corrupted_op"], "corrupted_op"),
            ("target_node", lambda mut: mut["target_node"] + 0.9, "bad mutation"),
            ("target_node", lambda mut: float(mut["target_node"]), "bad mutation"),
            ("original_op", lambda mut: str(mut["original_op"]), "bad mutation"),
            ("original_op", lambda mut: True, "bad mutation"),
        ],
        ids=["unknown", "not_held", "equal_to_original", "float_target", "integral_float_target",
             "string_original", "bool_original"],
    )
    def test_wrongop_corrupted_op_checked_named(self, tmp_path, key, change, message):
        """Mutation fields are JSON integers, never coerced; ``corrupted_op``
        must be the operator the stored (corrupted) tree holds at
        ``target_node``, and differ from ``original_op``."""
        def edit(obj):
            mut = obj["mutation"]
            mut[key] = change(mut)
            return json.dumps(obj)

        with pytest.raises(ValueError, match=f"trees.jsonl line 2: {message}"):
            load_corpus(self._corrupt_line_2(tmp_path, edit))

    def test_wrongop_target_without_operator_token_named(self, tmp_path):
        def edit(obj):
            target = obj["mutation"]["target_node"]
            next(n for n in obj["nodes"] if n["id"] == target)["token"] = None
            return json.dumps(obj)

        with pytest.raises(ValueError, match="line 2: node .* does not carry a known operator"):
            load_corpus(self._corrupt_line_2(tmp_path, edit))

    def test_save_deterministic_bytes(self, tmp_path):
        records = gen_wrongop_corpus(5, 2, seed=7)
        save_wrongop_corpus(tmp_path / "a", records, seed=7)
        save_wrongop_corpus(tmp_path / "b", records, seed=7)
        for name in ("trees.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("failing_write", [0, 1])
    def test_failed_write_leaves_previous_files_whole(self, tmp_path, monkeypatch, failing_write):
        import os

        save_classify_corpus(tmp_path / "c", gen_classify_corpus(2, 2, seed=0), seed=0)
        before = {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()}
        writes = []

        def fsync(fd):
            writes.append(fd)
            if len(writes) > failing_write:
                raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="disk full"):
            save_classify_corpus(tmp_path / "c", gen_classify_corpus(3, 4, seed=1), seed=1)
        monkeypatch.undo()
        after = {name: (tmp_path / "c" / name).read_bytes() for name in before}
        # the file being written when the write failed is the previous one, whole
        failed = ("trees.jsonl", "meta.json")[failing_write]
        assert after[failed] == before[failed]
        if failing_write == 0:
            assert after == before
        assert not list((tmp_path / "c").glob("*.tmp"))
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus.trees) == (2 * 2 if failing_write == 0 else 3 * 4)

    def test_sidecar_contents(self, tmp_path):
        save_classify_corpus(tmp_path / "c", gen_classify_corpus(2, 1, seed=0), seed=0)
        meta = json.loads((tmp_path / "c" / "meta.json").read_text())
        assert meta["vocabulary"] == MINI_VOCAB.to_obj()
        assert {"seed", "generator_version", "task", "samples"} <= set(meta)
