# Why sibling attention scales: k^2 score cells per node instead of N^2 per tree.
#
# A whole-tree self-attention materializes N x N scores. Here attention only
# ever runs across one node's children (k of them), so a tree costs
# sum(k_i^2) cells per head. With bounded branching that is linear in N, and
# the advantage over N^2 grows linearly with tree size. The counts are read
# from the schedule the batched encoder runs (its buckets' shapes), and the
# demo checks them against sum(k^2) counted from the trees.

import numpy as np

from treeformer.scheduler import build_schedule, cost_report
from treeformer.trees import random_tree

rng = np.random.default_rng(0)

print(f"{'nodes':>6} {'sum k^2':>10} {'sum N^2':>12} {'ratio':>8} {'peak buf':>9}")
for size in (100, 200, 400, 800):
    trees = [random_tree(rng, size, 6, 8, 8) for _ in range(8)]
    report = cost_report(build_schedule(trees))
    counted = sum(len(n.children) ** 2 for tree in trees for n in tree.nodes.values())
    assert report.attention_cells == counted  # schedule == counted from the trees
    print(
        f"{size:>6} {report.attention_cells:>10} {report.full_attention_cells:>12} "
        f"{report.full_attention_cells / report.attention_cells:>8.1f} {report.peak_cells:>9}"
    )

print("\nthe ratio column grows ~linearly with tree size: quadratic whole-tree")
print("attention falls behind while sibling attention stays near-linear.")
