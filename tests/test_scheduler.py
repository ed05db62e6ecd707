from dataclasses import replace

import numpy as np
import pytest

from conftest import chain, make_tree, star
from treeformer.scheduler import (
    Bucket,
    DependencyViolation,
    Group,
    Schedule,
    build_schedule,
    check_schedule,
    cost_report,
)
from treeformer.trees import SyntaxTree, depth, depths, random_tree


def parent_map(tree: SyntaxTree) -> dict[int, int]:
    return {c: n.id for n in tree.nodes.values() for c in n.children}


def node_at(schedule):
    """(tree, node id) per global row, read from ``row_index``."""
    return {
        row: (t, nid) for t, index in enumerate(schedule.row_index) for nid, row in index.items()
    }


def produced(schedule, group, top_down=False):
    """The (tree, node id) pairs whose states a level produces."""
    at = node_at(schedule)
    col = [b.child_rows[:, 0] if top_down else b.parents for b in group.buckets]
    return [at[int(r)] for r in np.concatenate(col)]


def mixed_forest(rng):
    """A random forest with a single-node tree, a chain and a 16-child star."""
    batch = [make_tree({}), chain(int(rng.integers(2, 9))), star(16)]
    batch += [
        random_tree(rng, int(rng.integers(1, 80)), int(rng.integers(1, 17)), 3, 3)
        for _ in range(int(rng.integers(1, 6)))
    ]
    rng.shuffle(batch)
    return batch


class TestBuildSchedule:
    def test_single_node_zero_unit_applications(self):
        schedule = build_schedule([make_tree({})])
        assert schedule.bottom_up_levels == []
        assert schedule.top_down_levels == []

    def test_chain_depth4(self):
        schedule = build_schedule([chain(4)])
        assert len(schedule.bottom_up_levels) == 3
        assert len(schedule.top_down_levels) == 3
        for group in schedule.bottom_up_levels:
            assert len(produced(schedule, group)) == 1
        for group in schedule.top_down_levels:
            assert len(produced(schedule, group, top_down=True)) == 1

    def test_twin_trees_coscheduled(self):
        tree = make_tree({0: [1, 2], 2: [3, 4]})
        schedule = build_schedule([tree, tree])
        for group in schedule.bottom_up_levels:
            members = produced(schedule, group)
            assert {t for t, _ in members} == {0, 1}  # same-height nodes of both trees together
            nodes0 = {n for t, n in members if t == 0}
            nodes1 = {n for t, n in members if t == 1}
            assert nodes0 == nodes1

    def test_group_count_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            batch = [
                random_tree(rng, int(rng.integers(1, 60)), 4, 3, 3)
                for _ in range(int(rng.integers(1, 6)))
            ]
            schedule = build_schedule(batch)
            steps = len(schedule.bottom_up_levels) + len(schedule.top_down_levels)
            assert steps == 2 * (max(depth(t) for t in batch) - 1)

    def test_exact_bucket_widths(self):
        schedule = build_schedule([star(5)])
        widths = [b.child_rows.shape[1] for g in schedule.bottom_up_levels for b in g.buckets]
        assert widths == [5]
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch = mixed_forest(rng)
            schedule = build_schedule(batch)
            at = node_at(schedule)
            for group in schedule.bottom_up_levels:
                for bucket in group.buckets:
                    w = bucket.child_rows.shape[1]
                    for row in bucket.parents:
                        t, nid = at[int(row)]
                        assert len(batch[t].node(nid).children) == w

    def test_row_index_is_ids_ascending_on_consecutive_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            batch = mixed_forest(rng)
            schedule = build_schedule(batch)
            start = 0
            for tree, index in zip(batch, schedule.row_index):
                assert list(index.items()) == [
                    (nid, start + i) for i, nid in enumerate(sorted(tree.nodes))
                ]
                start += len(tree)
            assert schedule.n_rows == start

    def test_top_down_levels_are_unpadded_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = mixed_forest(rng)
            schedule = build_schedule(batch)
            for level, group in enumerate(schedule.top_down_levels, start=2):
                (bucket,) = group.buckets
                got = produced(schedule, group, top_down=True)
                assert bucket.child_rows.shape == (len(got), 1)
                expected = sorted(
                    (t, nid)
                    for t, tree in enumerate(batch)
                    for nid, dp in depths(tree).items()
                    if dp == level
                )
                assert sorted(got) == expected
                for b, (t, nid) in enumerate(got):
                    parent = parent_map(batch[t])[nid]
                    assert bucket.parents[b] == schedule.row_index[t][parent]
            check_schedule(schedule, batch)

    def test_levels_keep_batch_row_order(self):
        # ids in neither preorder nor breadth-first order: depth 2 is 5, 2
        shuffled = make_tree({0: [5, 2], 5: [1, 6], 2: [3, 4]})
        rng = np.random.default_rng(6)
        for _ in range(20):
            batch = mixed_forest(rng) + [shuffled]
            rng.shuffle(batch)
            schedule = build_schedule(batch)
            for group in schedule.bottom_up_levels:
                for bucket in group.buckets:
                    assert np.all(np.diff(bucket.parents) > 0)
            for group in schedule.top_down_levels:
                (bucket,) = group.buckets
                assert np.all(np.diff(bucket.child_rows[:, 0]) > 0)
            check_schedule(schedule, batch)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([])


def _tamper_bucket(group, i=0, **fields):
    """The group with bucket ``i``'s arrays replaced."""
    buckets = list(group.buckets)
    buckets[i] = replace(buckets[i], **fields)
    return Group(buckets)


class TestCheckSchedule:
    def test_accepts_built_schedules_on_random_trees(self):
        rng = np.random.default_rng(1)
        trees = [
            random_tree(rng, int(rng.integers(1, 40)), int(rng.integers(2, 7)), 3, 3)
            for _ in range(1000)
        ]
        for start in range(0, 1000, 50):
            batch = trees[start : start + 50]
            check_schedule(build_schedule(batch), batch)

    def test_parent_before_child_rejected(self):
        batch = [chain(3)]
        schedule = build_schedule(batch)
        swapped = Schedule(
            bottom_up_levels=list(reversed(schedule.bottom_up_levels)),
            top_down_levels=schedule.top_down_levels,
            row_index=schedule.row_index,
            n_rows=schedule.n_rows,
        )
        with pytest.raises(DependencyViolation):
            check_schedule(swapped, batch)

    def test_omitted_node_rejected(self):
        batch = [chain(3)]
        schedule = build_schedule(batch)
        truncated = Schedule(
            bottom_up_levels=schedule.bottom_up_levels[:-1],
            top_down_levels=schedule.top_down_levels,
            row_index=schedule.row_index,
            n_rows=schedule.n_rows,
        )
        with pytest.raises(DependencyViolation):
            check_schedule(truncated, batch)

    def test_bucket_wider_than_child_count_rejected(self):
        batch = [star(3)]
        schedule = build_schedule(batch)
        (level,) = schedule.bottom_up_levels
        (bucket,) = level.buckets
        wider = np.pad(bucket.child_rows, ((0, 0), (0, 1)))  # one column more: row 0, the root
        tampered = [_tamper_bucket(level, child_rows=wider)]
        with pytest.raises(DependencyViolation, match="bucket width is not the child count"):
            check_schedule(replace(schedule, bottom_up_levels=tampered), batch)

    def test_extra_empty_level_rejected(self):
        batch = [chain(3)]
        schedule = build_schedule(batch)
        empty = Bucket(np.zeros(0, np.intp), np.zeros((0, 1), np.intp))
        tampered = replace(
            schedule, top_down_levels=[*schedule.top_down_levels, Group([empty])]
        )
        with pytest.raises(DependencyViolation, match="sequential groups"):
            check_schedule(tampered, batch)

    def test_wrong_child_row_rejected(self):
        batch = [make_tree({0: [1, 2], 1: [3, 4, 5], 2: [6]}), star(3)]
        schedule = build_schedule(batch)
        levels = list(schedule.bottom_up_levels)
        bucket = levels[0].buckets[-1]  # width 3: node 1 of tree 0, then tree 1's root
        wrong = bucket.child_rows.copy()
        wrong[0, [0, 1]] = wrong[0, [1, 0]]  # two siblings swapped
        levels[0] = _tamper_bucket(levels[0], len(levels[0].buckets) - 1, child_rows=wrong)
        with pytest.raises(DependencyViolation, match="child row mismatch at slot 0"):
            check_schedule(replace(schedule, bottom_up_levels=levels), batch)

    def test_parent_listed_twice_rejected(self):
        batch = [star(3), star(3)]
        schedule = build_schedule(batch)
        levels = list(schedule.bottom_up_levels)
        (bucket,) = levels[0].buckets
        twice = np.array([0, 0, 1])  # the first star's root twice, then the second's
        levels[0] = _tamper_bucket(
            levels[0],
            parents=bucket.parents[twice],
            child_rows=bucket.child_rows[twice],
        )
        with pytest.raises(DependencyViolation, match="scheduled twice in bottom-up order"):
            check_schedule(replace(schedule, bottom_up_levels=levels), batch)

    @pytest.mark.parametrize("how", ["ids not ascending", "gap between trees", "trees swapped"])
    def test_row_index_off_layout_rejected(self, how):
        batch = [make_tree({0: [1, 2], 2: [3]}), chain(3)]
        schedule = build_schedule(batch)
        first, second = (dict(index) for index in schedule.row_index)
        if how == "ids not ascending":
            first[1], first[2] = first[2], first[1]
        elif how == "gap between trees":
            second = {nid: row + 1 for nid, row in second.items()}
        else:
            first = {nid: row + len(second) for nid, row in first.items()}
            second = {nid: row - len(first) for nid, row in second.items()}
        with pytest.raises(DependencyViolation, match="row_index"):
            check_schedule(replace(schedule, row_index=[first, second]), batch)


class TestCheckTopDown:
    def _schedule(self):
        batch = [make_tree({0: [1, 2], 1: [3, 4, 5], 2: [6]}), chain(4)]
        return batch, build_schedule(batch)

    def test_reversed_levels_rejected(self):
        batch, schedule = self._schedule()
        tampered = replace(schedule, top_down_levels=list(reversed(schedule.top_down_levels)))
        with pytest.raises(DependencyViolation, match="not computed by the level before"):
            check_schedule(tampered, batch)

    def test_parent_two_levels_up_rejected(self):
        # the executor reads a top-down parent from the level before, so a
        # depth-2 node moved to level 3 would read a wrong row for its root
        batch = [chain(4), star(2)]
        schedule = build_schedule(batch)
        levels = list(schedule.top_down_levels)
        (b2,), (b3,) = levels[0].buckets, levels[1].buckets
        moved = schedule.row_index[1][2]  # a leaf of the star, at depth 2
        assert b2.child_rows[-1, 0] == moved
        levels[0] = _tamper_bucket(
            levels[0], parents=b2.parents[:-1], child_rows=b2.child_rows[:-1]
        )
        levels[1] = _tamper_bucket(
            levels[1],
            parents=np.append(b3.parents, b2.parents[-1]),
            child_rows=np.vstack([b3.child_rows, b2.child_rows[-1:]]),
        )
        with pytest.raises(DependencyViolation, match="tree 1, node 2: parent 0 not computed by"):
            check_schedule(replace(schedule, top_down_levels=levels), batch)

    def test_dropped_level_rejected(self):
        batch, schedule = self._schedule()
        tampered = replace(schedule, top_down_levels=schedule.top_down_levels[:-1])
        with pytest.raises(DependencyViolation, match="never scheduled"):
            check_schedule(tampered, batch)

    def test_dropped_row_rejected(self):
        batch, schedule = self._schedule()
        levels = list(schedule.top_down_levels)
        (bucket,) = levels[1].buckets
        levels[1] = _tamper_bucket(
            levels[1],
            parents=bucket.parents[1:],
            child_rows=bucket.child_rows[1:],
        )
        with pytest.raises(DependencyViolation, match="never scheduled"):
            check_schedule(replace(schedule, top_down_levels=levels), batch)

    def test_row_listed_twice_rejected(self):
        batch, schedule = self._schedule()
        levels = list(schedule.top_down_levels)
        (bucket,) = levels[1].buckets
        twice = np.array([0, *range(len(bucket.parents))])
        levels[1] = _tamper_bucket(
            levels[1],
            parents=bucket.parents[twice],
            child_rows=bucket.child_rows[twice],
        )
        with pytest.raises(DependencyViolation, match="scheduled twice in top-down order"):
            check_schedule(replace(schedule, top_down_levels=levels), batch)

    def test_wrong_parent_row_rejected(self):
        batch, schedule = self._schedule()
        levels = list(schedule.top_down_levels)
        (bucket,) = levels[1].buckets
        wrong = bucket.parents.copy()
        wrong[0] = schedule.row_index[0][0]  # the root: computed, but a grandparent
        levels[1] = _tamper_bucket(levels[1], parents=wrong)
        with pytest.raises(DependencyViolation, match="parent row mismatch"):
            check_schedule(replace(schedule, top_down_levels=levels), batch)

    def test_padded_level_rejected(self):
        batch, schedule = self._schedule()
        levels = list(schedule.top_down_levels)
        (bucket,) = levels[0].buckets
        wider = np.pad(bucket.child_rows, ((0, 0), (0, 1)))
        levels[0] = _tamper_bucket(levels[0], child_rows=wider)
        with pytest.raises(DependencyViolation, match="width-1"):
            check_schedule(replace(schedule, top_down_levels=levels), batch)


class TestCostReport:
    def test_star_closed_form(self):
        k = 7
        report = cost_report(build_schedule([star(k)]))
        assert report.attention_cells == k * k
        assert report.full_attention_cells == (k + 1) ** 2
        # one parent of 7 children, no padded slot
        assert report.peak_cells == 7 * 7

    def test_chain_closed_form(self):
        n = 9
        report = cost_report(build_schedule([chain(n)]))
        assert report.attention_cells == n - 1
        assert report.full_attention_cells == n * n
        # one width-1 bucket per level
        assert report.peak_cells == 1

    def test_ratio_grows_linearly_with_tree_size(self):
        rng = np.random.default_rng(2)
        sizes = [50, 100, 200, 400]
        ratios = []
        for size in sizes:
            batch = [random_tree(rng, size, 4, 3, 3) for _ in range(8)]
            report = cost_report(build_schedule(batch))
            ratios.append(report.full_attention_cells / report.attention_cells)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
        assert slope > 0.8
