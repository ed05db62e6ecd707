import dataclasses
import json

import numpy as np
import pytest

from conftest import brute_force_valid, chain, heights, make_tree, star
from treeformer.trees import (
    CycleDetected,
    DuplicateId,
    MissingRoot,
    OrphanNode,
    ParseError,
    SyntaxNode,
    SyntaxTree,
    ValidationError,
    Vocabulary,
    branching_stats,
    depth,
    depths,
    load_trees,
    preorder,
    random_tree,
    renumber_preorder,
    save_trees,
    tree_arrays,
    tree_to_line,
    validate,
)

VOCAB = Vocabulary([f"T{i}" for i in range(6)], [f"tok{i}" for i in range(6)])


class TestValidate:
    def test_single_node_ok(self):
        validate(make_tree({}, root=0))

    def test_double_parent(self):
        tree = make_tree({0: [1, 2], 2: [1]})
        with pytest.raises(OrphanNode, match="1"):
            validate(tree)

    def test_self_loop(self):
        tree = SyntaxTree({0: SyntaxNode(0, 0, None, (0,))}, 0)
        with pytest.raises(CycleDetected):
            validate(tree)

    def test_missing_root(self):
        with pytest.raises(MissingRoot):
            validate(SyntaxTree({0: SyntaxNode(0, 0)}, root=5))

    def test_dangling_child(self):
        tree = SyntaxTree({0: SyntaxNode(0, 0, None, (7,))}, 0)
        with pytest.raises(OrphanNode, match="7"):
            validate(tree)

    def test_detached_cycle(self):
        nodes = {
            0: SyntaxNode(0, 0),
            1: SyntaxNode(1, 0, None, (2,)),
            2: SyntaxNode(2, 0, None, (1,)),
        }
        with pytest.raises(ValidationError):
            validate(SyntaxTree(nodes, 0))

    def test_duplicate_id_at_construction(self):
        with pytest.raises(DuplicateId):
            SyntaxTree.from_nodes([SyntaxNode(0, 0), SyntaxNode(0, 1)], root=0)

    def test_matches_brute_force_on_random_trees(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(1, 1001))
            tree = random_tree(rng, n, max_children=int(rng.integers(2, 9)), n_types=4, n_tokens=4)
            assert brute_force_valid(tree)
            validate(tree)

            # corrupt: rewire a child to create duplicate parents / cycles
            if n >= 3:
                bad = {i: list(tree.node(i).children) for i in tree.nodes}
                victim = int(rng.integers(1, n))
                attacker = int(rng.integers(0, n))
                bad.setdefault(attacker, []).append(victim)
                corrupted = make_tree(bad, root=tree.root)
                assert not brute_force_valid(corrupted)
                with pytest.raises(ValidationError):
                    validate(corrupted)


class TestDepthAndStats:
    def test_depth_single(self):
        assert depth(make_tree({})) == 1

    def test_depth_chain3(self):
        assert depth(chain(3)) == 3

    def test_depth_balanced7(self):
        tree = make_tree({0: [1, 2], 1: [3, 4], 2: [5, 6]})
        assert depth(tree) == 3

    def test_levels_match_depth(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 200)), 5, 3, 3)
            d = depths(tree)
            assert len(set(d.values())) == depth(tree)
            for nid, node in tree.nodes.items():
                for c in node.children:
                    assert d[c] == d[nid] + 1

    def test_heights(self):
        tree = chain(4)
        h = heights(tree)
        assert h[3] == 0 and h[0] == 3

    def test_stats_single(self):
        stats = branching_stats(make_tree({}))
        assert (stats.max_children, stats.avg_children, stats.node_count) == (0, 0.0, 1)

    def test_stats_star(self):
        stats = branching_stats(star(3))
        assert (stats.max_children, stats.avg_children, stats.node_count) == (3, 3.0, 4)

    def test_stats_chain(self):
        stats = branching_stats(chain(4))
        assert (stats.max_children, stats.avg_children, stats.node_count) == (1, 1.0, 4)


class TestSerialization:
    def _random_labeled(self, rng, n):
        tree = random_tree(rng, n, 4, 6, 6)
        node_labels = {int(i): int(rng.integers(3)) for i in list(tree.nodes)[:2]}
        return dataclasses.replace(tree, tree_label=int(rng.integers(4)), node_labels=node_labels)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        trees = [self._random_labeled(rng, int(rng.integers(1, 80))) for _ in range(20)]
        path = tmp_path / "trees.jsonl"
        save_trees(trees, path, VOCAB)
        loaded = load_trees(path, VOCAB)
        assert loaded == trees

    def test_round_trip_bit_stable(self, tmp_path):
        rng = np.random.default_rng(13)
        trees = [self._random_labeled(rng, 40) for _ in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trees(trees, p1, VOCAB)
        save_trees(load_trees(p1, VOCAB), p2, VOCAB)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("where", ["second tree", "fsync"])
    def test_failed_save_leaves_old_file_whole(self, tmp_path, monkeypatch, where):
        rng = np.random.default_rng(17)
        trees = [self._random_labeled(rng, 30) for _ in range(3)]
        path = tmp_path / "trees.jsonl"
        save_trees(trees, path, VOCAB)
        before = path.read_bytes()

        def fail(*_):
            raise OSError("injected write failure")

        def failing_trees():
            yield trees[1]
            fail()

        if where == "fsync":
            monkeypatch.setattr("os.fsync", fail)
        with pytest.raises(OSError, match="injected"):
            save_trees(failing_trees() if where == "second tree" else trees[1:], path, VOCAB)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trees.jsonl"]

    def test_canonical_field_order(self):
        tree = make_tree({0: [1]}, types={0: 1}, tokens={1: 2}, label=3)
        line = tree_to_line(tree, VOCAB)
        obj = json.loads(line)
        assert list(obj) == ["root", "label", "nodes"]
        assert list(obj["nodes"][0]) == ["id", "type", "token", "children"]
        assert line.index('"root"') < line.index('"label"') < line.index('"nodes"')

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = tree_to_line(make_tree({}), VOCAB)
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_trees(path, VOCAB)

    def test_invalid_tree_in_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {
            "root": 0,
            "label": None,
            "nodes": [
                {"id": 0, "type": "T0", "token": None, "children": [0]},
            ],
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_trees(path, VOCAB)

    def test_unknown_symbols_map_to_unknown(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obj = {
            "root": 0,
            "label": None,
            "nodes": [{"id": 0, "type": "nope", "token": "nah", "children": []}],
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        [tree] = load_trees(path, VOCAB)
        assert tree.node(0).type_id == 0 and tree.node(0).token_id == 0


class TestVocabulary:
    def test_unknown_reserved(self):
        assert VOCAB.type_id("missing") == 0
        assert VOCAB.token_id("missing") == 0
        assert VOCAB.type_symbol(0) == "<unk>"

    def test_dense_ids(self):
        assert [VOCAB.type_id(s) for s in VOCAB.type_symbols] == list(range(VOCAB.n_types))

    def test_digest_stable(self):
        again = Vocabulary([f"T{i}" for i in range(6)], [f"tok{i}" for i in range(6)])
        assert VOCAB.digest() == again.digest()
        assert VOCAB.digest() != Vocabulary(["T0"], ["tok0"]).digest()


class TestPreorder:
    def test_renumber_dense_preorder(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 60)), 4, 3, 3)
            order = preorder(tree)
            assert order[0] == tree.root
            assert sorted(tree.nodes) == list(range(len(tree)))
            renum = renumber_preorder(tree)
            assert preorder(renum) == list(range(len(tree)))


class TestLabelRows:
    def test_labels_on_rows(self):
        tree = dataclasses.replace(star(3), node_labels={3: 2, 0: 1})
        (arrays,) = tree_arrays([tree])
        assert arrays.label.tolist() == [1, -1, -1, 2]
        (bare,) = tree_arrays([star(3)])
        assert bare.label.tolist() == [-1] * 4

    @pytest.mark.parametrize(
        "labels, message",
        [({9: 1}, "names node 9"), ({1: -2}, "node 1 has a negative label")],
        ids=["unknown_node", "negative_label"],
    )
    def test_bad_labels_named(self, labels, message):
        with pytest.raises(ValidationError, match=message):
            tree_arrays([dataclasses.replace(star(3), node_labels=labels)])
