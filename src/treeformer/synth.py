"""Synthetic corpora: labeled program families and wrong-operator mutation records.

Program sources are generated from statement idioms with conventional
identifier roles (counters i/j/k, bounds n/m, accumulators s/p/q/t, inputs
a/b/c/x/y), so each binary operator appears in a characteristic context.
Every generated source is parsed back through the real parser, which keeps
generation and parsing mutually consistent by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import minilang
from .minilang import MINI_VOCAB, OPS_MINI, operator_nodes, parse
from .numerics import _replace_atomically
from .trees import (
    SyntaxTree,
    Vocabulary,
    iter_tree_lines,
    tree_digest,
    tree_from_obj,
    tree_to_line,
    tree_to_obj,
)

GENERATOR_VERSION = "1"

N_CLASS_TEMPLATES = 8

CLASS_TEMPLATE_NAMES = [
    "sum-loop",
    "product-loop",
    "running-max",
    "running-min",
    "parity-count",
    "linear-search",
    "nested-pair-count",
    "iterative-recurrence",
]


class TooFewOperators(ValueError):
    pass


@dataclass(frozen=True)
class ClassifySample:
    source: str
    tree: SyntaxTree


@dataclass(frozen=True)
class MutationRecord:
    """A corrupted tree plus the mutation ground truth.

    ``original_op``/``corrupted_op`` index OPS_MINI; ``source_hash`` digests
    the canonical serialization of the pristine tree, so reverting the target
    node's token must reproduce it exactly.
    """

    tree: SyntaxTree
    target_node: int
    original_op: int
    corrupted_op: int
    source_hash: str


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def _lit(rng: np.random.Generator, lo: int = 0, hi: int = 120) -> int:
    return int(rng.integers(lo, hi))


def _roles(rng: np.random.Generator) -> dict[str, str]:
    counters = list(rng.permutation(["i", "j", "k"]))
    accs = list(rng.permutation(["s", "p", "q", "t"]))
    inputs = list(rng.permutation(["a", "b", "c", "x", "y"]))
    bounds = list(rng.permutation(["n", "m"]))
    return {
        "c0": counters[0],
        "c1": counters[1],
        "acc": accs[0],
        "acc2": accs[1],
        "tmp": accs[2],
        "v0": inputs[0],
        "v1": inputs[1],
        "v2": inputs[2],
        "v3": inputs[3],
        "n0": bounds[0],
        "n1": bounds[1],
    }


def _bound(rng, r, lines) -> str:
    """Loop bound: either a literal or a bound identifier initialized first."""
    if rng.random() < 0.5:
        return str(_lit(rng, 5, 80))
    lines.append(f"{r['n0']} = {_lit(rng, 5, 80)};")
    return r["n0"]


def _counting_loop(r, bound: str, body: list[str]) -> list[str]:
    out = [f"while ({r['c0']} < {bound}) {{"]
    out.extend("  " + line for line in body)
    out.append(f"  {r['c0']} = {r['c0']} + 1;")
    out.append("}")
    return out


def _t_sum_loop(rng, r):
    inits = [f"{r['acc']} = 0;", f"{r['c0']} = {_lit(rng, 0, 4)};"]
    bound = _bound(rng, r, inits)
    body = [f"{r['acc']} = {r['acc']} + {r['c0']};"]
    return inits, _counting_loop(r, bound, body) + [f"return {r['acc']};"]


def _t_product_loop(rng, r):
    inits = [f"{r['acc']} = 1;", f"{r['c0']} = {_lit(rng, 1, 4)};"]
    bound = _bound(rng, r, inits)
    body = [f"{r['acc']} = {r['acc']} * {r['c0']};"]
    return inits, _counting_loop(r, bound, body) + [f"return {r['acc']};"]


def _t_running_max(rng, r):
    names = [r["v0"], r["v1"], r["v2"], r["v3"]][: 2 + int(rng.integers(3))]
    inits = [f"{v} = {_lit(rng)};" for v in names]
    lines = [f"{r['acc']} = {names[0]};"]
    for v in names[1:]:
        lines.append(f"if ({v} > {r['acc']}) {{ {r['acc']} = {v}; }}")
    lines.append(f"return {r['acc']};")
    return inits, lines


def _t_running_min(rng, r):
    names = [r["v0"], r["v1"], r["v2"], r["v3"]][: 2 + int(rng.integers(3))]
    inits = [f"{v} = {_lit(rng)};" for v in names]
    lines = [f"{r['acc']} = {names[0]};"]
    for v in names[1:]:
        lines.append(f"if ({v} < {r['acc']}) {{ {r['acc']} = {v}; }}")
    lines.append(f"return {r['acc']};")
    return inits, lines


def _t_parity_count(rng, r):
    inits = [f"{r['acc']} = 0;", f"{r['c0']} = {_lit(rng, 0, 3)};"]
    bound = _bound(rng, r, inits)
    rem = int(rng.integers(2))
    body = [f"if (({r['c0']} % 2) == {rem}) {{ {r['acc']} = {r['acc']} + 1; }}"]
    return inits, _counting_loop(r, bound, body) + [f"return {r['acc']};"]


def _t_linear_search(rng, r):
    target = r["v0"] if rng.random() < 0.5 else str(_lit(rng, 2, 60))
    inits = [f"{r['acc']} = -1;", f"{r['c0']} = 0;"]
    if target == r["v0"]:
        inits.append(f"{r['v0']} = {_lit(rng, 2, 60)};")
    bound = _bound(rng, r, inits)
    body = [f"if ({r['c0']} == {target}) {{ {r['acc']} = {r['c0']}; }}"]
    return inits, _counting_loop(r, bound, body) + [f"return {r['acc']};"]


def _t_nested_pairs(rng, r):
    inits = [f"{r['acc']} = 0;", f"{r['c0']} = 0;"]
    outer = _bound(rng, r, inits)
    inner = str(_lit(rng, 3, 30)) if rng.random() < 0.5 else r["n1"]
    if inner == r["n1"]:
        inits.append(f"{r['n1']} = {_lit(rng, 3, 30)};")
    body = [
        f"{r['c1']} = 0;",
        f"while ({r['c1']} < {inner}) {{",
        f"  if ({r['c0']} < {r['c1']}) {{ {r['acc']} = {r['acc']} + 1; }}",
        f"  {r['c1']} = {r['c1']} + 1;",
        "}",
    ]
    return inits, _counting_loop(r, outer, body) + [f"return {r['acc']};"]


def _t_recurrence(rng, r):
    inits = [
        f"{r['v0']} = {_lit(rng, 0, 5)};",
        f"{r['v1']} = {_lit(rng, 1, 5)};",
        f"{r['c0']} = 0;",
    ]
    bound = _bound(rng, r, inits)
    body = [
        f"{r['tmp']} = {r['v0']} + {r['v1']};",
        f"{r['v0']} = {r['v1']};",
        f"{r['v1']} = {r['tmp']};",
    ]
    return inits, _counting_loop(r, bound, body) + [f"return {r['v1']};"]


_TEMPLATES = [
    _t_sum_loop,
    _t_product_loop,
    _t_running_max,
    _t_running_min,
    _t_parity_count,
    _t_linear_search,
    _t_nested_pairs,
    _t_recurrence,
]


def _dead_statement(rng, r) -> str:
    # binary operators only ever inside expression statements
    if rng.random() < 0.5:
        return f"{r['acc2']} = {_lit(rng)};"
    op = _pick(rng, ["+", "*"])
    return f"{r['v0']} {op} {_lit(rng, 1, 30)};"


def _render_template(rng, template) -> str:
    r = _roles(rng)
    inits, rest = template(rng, r)
    inits = [inits[int(i)] for i in rng.permutation(len(inits))]
    lines = inits + rest
    for _ in range(int(rng.integers(0, 4))):
        pos = int(rng.integers(0, len(lines)))  # never after the trailing return
        lines.insert(pos, _dead_statement(rng, r))
    return "\n".join(lines)


def gen_classify_corpus(classes: int, per_class: int, seed: int) -> list[ClassifySample]:
    """``per_class`` labeled programs for each of the first ``classes`` templates."""
    if not 2 <= classes <= N_CLASS_TEMPLATES:
        raise ValueError(f"classes must be in [2, {N_CLASS_TEMPLATES}], got {classes}")
    rng = np.random.default_rng(seed)
    samples: list[ClassifySample] = []
    for label in range(classes):
        for _ in range(per_class):
            source = _render_template(rng, _TEMPLATES[label])
            tree = replace(parse(source), tree_label=label)
            samples.append(ClassifySample(source, tree))
    return samples


# ---------------------------------------------------------------------------
# wrong-operator corpus

def _idiom_pool(r):
    """(operator cost, line builder) pairs for the random-program generator."""
    return [
        (1, lambda rng: f"{r['c0']} = {r['c0']} + 1;"),
        (1, lambda rng: f"{r['c1']} = {r['c1']} - 1;"),
        (1, lambda rng: f"{r['acc']} = {r['acc']} + {r['v0']};"),
        (2, lambda rng: f"{r['acc']} = {r['acc']} + ({r['v0']} * {r['v1']});"),
        (1, lambda rng: f"{r['acc2']} = {r['acc2']} * {r['v0']};"),
        (1, lambda rng: f"{r['v1']} = {r['v1']} / 2;"),
        (1, lambda rng: f"{r['tmp']} = {r['v0']} - {r['v1']};"),
        (3, lambda rng: (
            f"if (({r['c0']} % 2) == 0) {{ {r['acc']} = {r['acc']} + 1; }}"
        )),
        (1, lambda rng: f"if ({r['v0']} <= {r['v1']}) {{ {r['tmp']} = {r['v0']}; }}"),
        (1, lambda rng: f"if ({r['v0']} >= {r['v1']}) {{ {r['tmp']} = {r['v1']}; }}"),
        (1, lambda rng: f"if ({r['v0']} == {_lit(rng, 0, 9)}) {{ {r['acc2']} = {_lit(rng, 0, 9)}; }}"),
        (1, lambda rng: f"if ({r['v0']} != {r['v2']}) {{ {r['acc2']} = {r['v2']}; }}"),
        (3, lambda rng: (
            f"if (({r['v0']} < {r['v1']}) and ({r['v2']} < {r['v3']}))"
            f" {{ {r['tmp']} = {r['v0']}; }}"
        )),
        (3, lambda rng: (
            f"if (({r['v0']} <= {r['v1']}) or ({r['v2']} >= {r['v3']}))"
            f" {{ {r['tmp']} = {r['v1']}; }}"
        )),
    ]


def gen_program_source(
    rng: np.random.Generator, min_ops: int = 2, mean_ops: float = 6.0
) -> str:
    """Random well-formed program with >= ``min_ops`` binary operators.

    The operator count is drawn around ``mean_ops`` and then hit exactly, so
    the corpus mean tracks the requested density.
    """
    r = _roles(rng)
    target = int(np.clip(round(rng.normal(mean_ops, 1.5)), min_ops, 12))
    pool = _idiom_pool(r)

    def draw(budget: int) -> tuple[int, str]:
        cost, build = _pick(rng, [it for it in pool if it[0] <= budget])
        return cost, build(rng)

    lines = [f"{r['v0']} = {_lit(rng)};", f"{r['v1']} = {_lit(rng)};"]
    if rng.random() < 0.5:
        lines.append(f"{r['v2']} = {_lit(rng)};")

    remaining = target
    loop: list[str] | None = None
    if remaining >= 4 and rng.random() < 0.6:
        # a counting loop itself costs 2 operators (condition + increment)
        body_budget = int(rng.integers(1, remaining - 1))
        spent = 0
        body: list[str] = []
        while spent < body_budget:
            cost, line = draw(body_budget - spent)
            body.append(line)
            spent += cost
        loop = [f"{r['c0']} = 0;", f"while ({r['c0']} < {_lit(rng, 5, 60)}) {{"]
        loop.extend("  " + b for b in body)
        loop.append(f"  {r['c0']} = {r['c0']} + 1;")
        loop.append("}")
        remaining -= 2 + spent

    statements: list[str] = []
    while remaining > 0:
        cost, line = draw(remaining)
        statements.append(line)
        remaining -= cost
    statements = [statements[int(i)] for i in rng.permutation(len(statements))]
    split = int(rng.integers(0, len(statements) + 1))
    lines.extend(statements[:split])
    if loop is not None:
        lines.extend(loop)
    lines.extend(statements[split:])
    lines.append(f"return {r['acc']};")
    return "\n".join(lines)


def mutate_operator(tree: SyntaxTree, seed: int) -> MutationRecord:
    """Corrupt one uniformly-chosen operator leaf to a uniformly-chosen other operator."""
    ops = operator_nodes(tree)
    if len(ops) < 2:
        raise TooFewOperators(f"tree has {len(ops)} operator nodes, need >= 2")
    rng = np.random.default_rng(seed)
    target = ops[int(rng.integers(len(ops)))]
    original = minilang.operator_class(tree, target)
    choices = [c for c in range(len(OPS_MINI)) if c != original]
    corrupted = choices[int(rng.integers(len(choices)))]

    pristine_hash = tree_digest(tree, MINI_VOCAB)
    new_node = replace(
        tree.node(target), token_id=MINI_VOCAB.token_id(OPS_MINI[corrupted])
    )
    nodes = dict(tree.nodes)
    nodes[target] = new_node
    corrupted_tree = SyntaxTree(
        nodes,
        tree.root,
        None,
        dict(tree.node_labels) if tree.node_labels else None,
    )
    return MutationRecord(corrupted_tree, target, original, corrupted, pristine_hash)


def gen_wrongop_corpus(
    programs: int, min_ops: int, seed: int, mean_ops: float = 6.0
) -> list[MutationRecord]:
    """Mutation records over random programs with >= ``min_ops`` operators each."""
    if min_ops < 2:
        raise ValueError(f"min_ops must be >= 2, got {min_ops}")
    if programs < 0:
        raise ValueError("programs must be nonnegative")
    rng = np.random.default_rng(seed)
    records: list[MutationRecord] = []
    for _ in range(programs):
        source = gen_program_source(rng, min_ops=min_ops, mean_ops=mean_ops)
        tree = parse(source)
        records.append(mutate_operator(tree, int(rng.integers(2**63))))
    return records


# ---------------------------------------------------------------------------
# corpus files: trees.jsonl + meta.json sidecar

@dataclass
class Corpus:
    task: str  # classify | wrongop | node-classify
    trees: list[SyntaxTree]
    records: list[MutationRecord] | None
    vocab: Vocabulary
    meta: dict


def save_classify_corpus(out_dir, samples: list[ClassifySample], seed: int) -> None:
    _write_corpus(
        out_dir,
        task="classify",
        lines=[tree_to_line(s.tree, MINI_VOCAB) for s in samples],
        seed=seed,
        extra={"classes": 1 + max(s.tree.tree_label for s in samples)} if samples else {},
    )


def save_wrongop_corpus(out_dir, records: list[MutationRecord], seed: int) -> None:
    lines = []
    for rec in records:
        obj = tree_to_obj(rec.tree, MINI_VOCAB)
        obj["mutation"] = {
            "target_node": rec.target_node,
            "original_op": rec.original_op,
            "corrupted_op": rec.corrupted_op,
            "source_hash": rec.source_hash,
        }
        lines.append(json.dumps(obj, separators=(",", ":"), ensure_ascii=False))
    _write_corpus(
        out_dir,
        task="wrongop",
        lines=lines,
        seed=seed,
        extra={"operators": list(OPS_MINI)},
    )


def _write_corpus(out_dir, task: str, lines: list[str], seed: int, extra: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "format_version": 1,
        "task": task,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "samples": len(lines),
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    meta.update(extra)
    # each file goes to a temporary name and is renamed into place, trees
    # first: a failed write leaves the previous file whole
    trees = "".join(line + "\n" for line in lines)
    _replace_atomically(os.path.join(out_dir, "trees.jsonl"), trees.encode("utf-8"))
    text = json.dumps(meta, indent=1, sort_keys=True) + "\n"
    _replace_atomically(os.path.join(out_dir, "meta.json"), text.encode("utf-8"))


def _record_from_line(raw: str, vocab: Vocabulary, path: str, lineno: int) -> MutationRecord:
    """One wrongop corpus line; a bad line raises ValueError naming the file and line."""
    where = f"{path} line {lineno}"
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("mutation"), dict):
        raise ValueError(f"{where}: no mutation object")
    mut = obj.pop("mutation")
    try:
        target, original, corrupted = (
            int(mut[key]) for key in ("target_node", "original_op", "corrupted_op")
        )
        source_hash = mut["source_hash"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad mutation {mut!r}: {exc!r}") from exc
    tree = tree_from_obj(obj, vocab, lineno)
    if target not in operator_nodes(tree, vocab):
        raise ValueError(f"{where}: target_node {target} is not an operator leaf")
    if not 0 <= original < len(OPS_MINI):
        raise ValueError(f"{where}: original_op {original} outside the {len(OPS_MINI)} operators")
    return MutationRecord(tree, target, original, corrupted, source_hash)


def load_corpus(corpus_dir) -> Corpus:
    with open(os.path.join(corpus_dir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    vocab = Vocabulary.from_obj(meta["vocabulary"])
    task = meta["task"]
    trees_path = os.path.join(corpus_dir, "trees.jsonl")
    if task == "wrongop":
        with open(trees_path, "r", encoding="utf-8") as fh:
            records = [
                _record_from_line(raw, vocab, trees_path, lineno)
                for lineno, raw in enumerate(fh, start=1)
            ]
        return Corpus(task, [r.tree for r in records], records, vocab, meta)
    trees = list(iter_tree_lines(trees_path, vocab))
    return Corpus(task, trees, None, vocab, meta)
