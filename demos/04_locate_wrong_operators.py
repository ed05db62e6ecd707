# Localize and repair a corrupted binary operator with the pointer head.
#
# Each sample is a program with exactly one operator token swapped for a
# different one. The pointer head scores every operator leaf's final state;
# the repair head predicts the original operator at the located node. This
# needs top-down propagation: a bottom-up-only leaf state is just the leaf's
# own embedding, which can never tell a wrong '+' from a right one.

import numpy as np

from treeformer.minilang import MINI_VOCAB, OPS_MINI, operator_nodes
from treeformer.synth import Corpus, gen_wrongop_corpus
from treeformer.training import TrainConfig, task_forward, train

records = gen_wrongop_corpus(1200, 2, seed=11)
meta = {
    "task": "wrongop",
    "operators": list(OPS_MINI),
    "seed": 11,
    "vocabulary": MINI_VOCAB.to_obj(),
}
split = 1000
train_corpus = Corpus("wrongop", [r.tree for r in records[:split]], records[:split], MINI_VOCAB, meta)
test_corpus = Corpus("wrongop", [r.tree for r in records[split:]], records[split:], MINI_VOCAB, meta)

ks = [len(operator_nodes(r.tree)) for r in test_corpus.records]
print(f"random-pointer baseline: {np.mean([1 / k for k in ks]):.3f}")

config = TrainConfig(
    task="wrongop", d=48, heads=4, epochs=6, batch_size=32, seed=0, precision="float64"
)
result = train(config, train_corpus, eval_corpus=test_corpus)
for row in result.history:
    print(
        f"epoch {row['epoch']}: loc {row['eval_loc_accuracy']:.3f}, "
        f"loc+repair {row['eval_joint_accuracy']:.3f}"
    )

# look at one prediction in detail: the batched heads score every candidate
# operator of every tree, and the repair is read at the located candidate
out = task_forward("wrongop", test_corpus.records[:8], result.params, result.model_config)
record = test_corpus.records[0]
slot = int(np.argmax(out.logits[0]))
located = out.nodes[0][slot]
repair = int(np.argmax(out.repair_logits[0][slot]))
corrupted_symbol = MINI_VOCAB.token_symbol(record.tree.node(record.target_node).token_id)
print(
    f"\nsample 0: corrupted node {record.target_node} ({corrupted_symbol!r}), "
    f"located {located}, "
    f"predicted repair {OPS_MINI[repair]!r}, true {OPS_MINI[record.original_op]!r}"
)
