"""Input corpora for each workload, made from the seed and cached on disk.

Generation runs in the orchestrating process, before and outside every
timing; the measured process only reads the corpus files. Each cached input
set also records the ``tree_digest`` of every generated tree, so the measured
process can check that what it loaded is what was generated.

Layout of one input set (``<cache>/inputs/<workload>/<fingerprint>/seed-<n>``):
``train/`` and ``eval/`` corpora (``trees.jsonl`` + ``meta.json``) and
``digests.json``. The fingerprint hashes the generator sources, so a change
to them never reuses stale inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench"

_FINGERPRINTED = (
    HERE / "inputs.py",
    HERE / "workloads.py",
    ROOT / "src" / "treeformer" / "synth.py",
    ROOT / "src" / "treeformer" / "minilang.py",
    ROOT / "src" / "treeformer" / "trees.py",
)

FOREST_TYPES = [f"t{i}" for i in range(8)]
FOREST_TOKENS = [f"w{i}" for i in range(32)]
FOREST_CLASSES = 4
FOREST_MAX_CHILDREN = 16


def input_dir(spec, seed: int, tiny: bool = False) -> Path:
    digest = hashlib.sha256()
    for path in _FINGERPRINTED:
        digest.update(path.read_bytes())
    name = spec.name + ("-tiny" if tiny else "")
    return CACHE / "inputs" / name / digest.hexdigest()[:12] / f"seed-{seed}"


def ensure(spec, seed: int, tiny: bool = False) -> Path:
    """Generate the workload's corpora for ``seed`` unless already cached."""
    final = input_dir(spec, seed, tiny)
    if (final / "digests.json").is_file():
        return final
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    digests = {}
    for part, size, part_seed in (
        ("train", spec.train_size, 2 * seed),
        ("eval", spec.eval_size, 2 * seed + 1),
    ):
        digests[part] = _GENERATORS[spec.task](tmp / part, size, part_seed, spec)
    (tmp / "digests.json").write_text(json.dumps(digests))
    try:
        tmp.rename(final)
    except OSError:  # another run cached the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def _gen_wrongop(out: Path, size: int, seed: int, spec) -> list:
    from treeformer.minilang import MINI_VOCAB
    from treeformer.synth import gen_wrongop_corpus, save_wrongop_corpus
    from treeformer.trees import tree_digest

    records = gen_wrongop_corpus(size, min_ops=2, seed=seed)
    save_wrongop_corpus(out, records, seed)
    return [tree_digest(r.tree, MINI_VOCAB) for r in records]


def _gen_classify(out: Path, size: int, seed: int, spec) -> list:
    from treeformer.minilang import MINI_VOCAB
    from treeformer.synth import N_CLASS_TEMPLATES, gen_classify_corpus, save_classify_corpus
    from treeformer.trees import tree_digest

    per_class = size // N_CLASS_TEMPLATES
    samples = gen_classify_corpus(N_CLASS_TEMPLATES, per_class, seed)
    # the generator emits one block per class; interleave the classes so
    # every contiguous chunk of the corpus holds all of them equally
    samples = [
        samples[c * per_class + i]
        for i in range(per_class)
        for c in range(N_CLASS_TEMPLATES)
    ]
    save_classify_corpus(out, samples, seed)
    return [tree_digest(s.tree, MINI_VOCAB) for s in samples]


def forest_line(rng, n_nodes: int) -> str:
    """One random labeled tree as a canonical ``trees.jsonl`` line.

    Each new node attaches to a uniformly chosen node with a free child slot
    (at most FOREST_MAX_CHILDREN children), which gives depths of about
    e*ln(n). Every node is labeled: class = 2 * (parent's type index mod 2)
    + (1 if leaf), so the labels need both the bottom-up and the top-down
    pass. The root counts as having an even parent type.
    """
    children = [[] for _ in range(n_nodes)]
    parent = [0] * n_nodes
    open_slots = [0]
    for nid in range(1, n_nodes):
        pick = int(rng.integers(len(open_slots)))
        p = open_slots[pick]
        children[p].append(nid)
        parent[nid] = p
        if len(children[p]) >= FOREST_MAX_CHILDREN:
            open_slots[pick] = open_slots[-1]
            open_slots.pop()
        open_slots.append(nid)
    types = rng.integers(len(FOREST_TYPES), size=n_nodes)
    tokens = rng.integers(len(FOREST_TOKENS), size=n_nodes)
    nodes = [
        {
            "id": i,
            "type": FOREST_TYPES[types[i]],
            "token": None if children[i] else FOREST_TOKENS[tokens[i]],
            "children": children[i],
        }
        for i in range(n_nodes)
    ]
    labels = {
        str(i): 2 * (int(types[parent[i]]) % 2 if i else 0) + (0 if children[i] else 1)
        for i in range(n_nodes)
    }
    obj = {"root": 0, "label": None, "nodes": nodes, "node_labels": labels}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _gen_forest(out: Path, size: int, seed: int, spec) -> list:
    """Write a node-classification corpus in the documented file format.

    Tree ``i`` has ``spec.forest_sizes[i % len]`` nodes, so every contiguous
    batch of ``len(forest_sizes)`` trees holds the same node count.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = [forest_line(rng, spec.forest_sizes[i % len(spec.forest_sizes)]) for i in range(size)]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trees.jsonl", "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    meta = {
        "format_version": 1,
        "task": "node-classify",
        "seed": seed,
        "generator_version": "perfbench-forest-1",
        "samples": size,
        "vocabulary": {"types": ["<unk>"] + FOREST_TYPES, "tokens": ["<unk>"] + FOREST_TOKENS},
        "node_classes": FOREST_CLASSES,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    # the lines are canonical, so their hash is the loaded tree's tree_digest
    return [hashlib.sha256(line.encode("utf-8")).hexdigest() for line in lines]


_GENERATORS = {
    "wrongop": _gen_wrongop,
    "classify": _gen_classify,
    "node-classify": _gen_forest,
}
