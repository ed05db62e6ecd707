# Encode one tree with the recursive attention model and poke at the states.
#
# Bottom-up, every interior node attends over its children (siblings attend
# to each other first); top-down, parent states are pushed back into the
# children. Leaves keep their raw embeddings as bottom-up states, and the
# root's final state is its bottom-up state.

import numpy as np

from treeformer.batched import batch_state_tensors
from treeformer.minilang import MINI_VOCAB, parse
from treeformer.model import ModelConfig, embed_node, encode_tree, init_params
from treeformer.training import pooled_rows
from treeformer.trees import leaves

tree = parse("s = 0; while (s < 9) { s = s + 2; }")

config = ModelConfig(
    d=32,
    heads=4,
    type_vocab_size=MINI_VOCAB.n_types,
    token_vocab_size=MINI_VOCAB.n_tokens,
    max_children=8,
    classify_classes=4,
)
params = init_params(config, seed=0)
print(f"model: d={config.d}, heads={config.heads}, "
      f"{params.n_parameters()} learnable scalars")

states = encode_tree(tree, params, config)  # naive recursion
print(f"encoded {len(states.down)} nodes")

# leaf bottom-up states are exactly the embeddings
first_leaf = leaves(tree)[0]
same = np.array_equal(states.up[first_leaf], embed_node(tree.node(first_leaf), params, config))
print(f"leaf state == embedding: {same}")

# the root's top-down state is its bottom-up state
print(f"root down == root up:    {np.array_equal(states.down[tree.root], states.up[tree.root])}")

# the batched executor computes the same states through the level schedule
batched = encode_tree(tree, params, config, method="batched")
worst = max(np.abs(states.down[n] - batched.down[n]).max() for n in tree.nodes)
print(f"|batched - naive| max:   {worst:.2e}")

# pooling, the classification head's input, turns the final node states of
# each tree in a batch into one tree vector: single-query attention whose
# query is a learned gate vector
_, _, D, schedule = batch_state_tensors([tree], params, config)
h_tree = pooled_rows(D, schedule, params).data[0]
print(f"pooled tree vector: shape {h_tree.shape}, norm {np.linalg.norm(h_tree):.3f}")
