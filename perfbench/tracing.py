"""Spans around the program's public functions, recorded from outside.

``Tracer.install()`` replaces each hooked function with a timing wrapper in
every loaded ``treeformer`` module that holds a reference to it (modules
import functions by name, so patching the defining module alone would miss
most calls); ``uninstall()`` puts the originals back. A hook whose function
no longer exists is reported as missing, and the metrics it feeds are left
out, instead of failing the run.

Spans stay in memory as ``(name, phase, unit, start, end, parent)`` tuples
and are written out once, at the end. ``phase`` is ``setup``, ``train`` or
``eval``; ``unit`` numbers the forward passes, so every span belongs to the
training step or eval batch whose forward it follows.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

HOOKS = (  # (module, function, span name)
    ("treeformer.synth", "load_corpus", "synth.load_corpus"),
    ("treeformer.model", "init_params", "model.init_params"),
    ("treeformer.scheduler", "build_schedule", "scheduler.build"),
    ("treeformer.batched", "batch_state_tensors", "batched.forward"),
    ("treeformer.model", "bottom_up_step", "model.bottom_up_step"),
    ("treeformer.model", "top_down_step", "model.top_down_step"),
    ("treeformer.numerics", "scatter_rows", "numerics.scatter_rows"),
    ("treeformer.numerics", "gather_rows", "numerics.gather_rows"),
    ("treeformer.numerics", "backward", "numerics.backward"),
    ("treeformer.training", "adam_step", "training.adam_step"),
    ("treeformer.training", "train", "training.train"),
    ("treeformer.training", "evaluate", "training.evaluate"),
)

PHASE_OF = {"train": "train", "evaluate": "eval"}


def _schedule_counts(schedule) -> dict:
    """Levels, child slots and padded slots of a schedule, per direction."""
    out = {}
    for key, groups in (("up", schedule.bottom_up_levels), ("down", schedule.top_down_levels)):
        slots = pad = 0
        for group in groups:
            for bucket in group.buckets:
                slots += bucket.mask.size
                pad += int(bucket.mask.size - bucket.mask.sum())
        out[f"scheduler.{key}_levels"] = len(groups)
        out[f"scheduler.{key}_child_slots"] = slots
        out[f"scheduler.{key}_pad_slots"] = pad
    return out


def _tape_nodes(loss) -> int:
    """Tensors reachable from ``loss`` through the tape's parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # (name, phase, unit, value)
        self.step_peaks: list = []  # tracemalloc peak bytes per train step
        self.missing: set = set()
        self.phase = "setup"
        self.unit = -1
        self.record = True  # False: keep counting memory, drop timings
        self._stack: list = []
        self._patched: list = []  # (module, attr, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.missing.add(attr)
                continue
            wrapper = self._wrap(attr, span, original)
            for name, mod in list(sys.modules.items()):
                if (name == "treeformer" or name.startswith("treeformer.")) and (
                    getattr(mod, attr, None) is original
                ):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _count(self, name: str, value) -> None:
        if self.record:
            self.counts.append((name, self.phase, self.unit, value))

    def _wrap(self, attr: str, span: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            saved_phase = tracer.phase
            if attr in PHASE_OF:
                tracer.phase = PHASE_OF[attr]
                if tracemalloc.is_tracing():
                    tracemalloc.reset_peak()
            elif attr == "batch_state_tensors":
                tracer.unit += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer._stack.append(index)
            if tracer.record:
                tracer.spans.append(None)  # filled in on return; keeps indices stable
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                if tracer.record:
                    tracer.spans[index] = (span, tracer.phase, tracer.unit, start, end, parent)
                tracer.phase = saved_phase
            # counting happens after the span closes, so it costs no layer time
            if attr == "build_schedule":
                try:
                    for name, value in _schedule_counts(result).items():
                        tracer._count(name, value)
                except AttributeError:
                    tracer.missing.add("schedule_counts")
            elif attr == "backward":
                try:
                    tracer._count("numerics.tape_nodes", _tape_nodes(args[0]))
                except AttributeError:
                    tracer.missing.add("tape_nodes")
            elif attr == "adam_step" and tracemalloc.is_tracing():
                tracer.step_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "phase", "unit", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "step_peak_bytes": self.step_peaks,
                    "missing_hooks": sorted(self.missing),
                },
                fh,
            )

    def metrics(self) -> dict:
        """Per-layer figures as ``{name: (value, unit)}``.

        Timings and counts are medians over training steps (``train.``) or
        eval batches (``eval.``); a layer's total within one step or batch is
        one sample.
        """
        spans = self.spans
        out = {}
        loads = [s[4] - s[3] for s in spans if s[0] == "synth.load_corpus" and s[1] == "setup"]
        if loads:
            out["synth.load_corpus_s"] = (sum(loads), "s")
        inits = [s[4] - s[3] for s in spans if s[0] == "model.init_params"]
        if inits:
            out["model.init_params_ms"] = (1e3 * statistics.median(inits), "ms")

        # self time: a span's duration minus that of its direct children
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[5] >= 0:
                child_time[s[5]] += s[4] - s[3]

        for phase in ("train", "eval"):
            per_unit: dict = {}  # unit -> {name: seconds, name#n: calls, count name: value}
            for i, (name, ph, unit, start, end, _) in enumerate(spans):
                if ph != phase or unit < 0:
                    continue
                row = per_unit.setdefault(unit, {})
                row[name] = row.get(name, 0.0) + (end - start)
                row[name + "#n"] = row.get(name + "#n", 0) + 1
                if name == "batched.forward":
                    row["batched.forward_self"] = end - start - child_time[i]
            for name, ph, unit, value in self.counts:
                if ph == phase and unit >= 0:
                    per_unit.setdefault(unit, {})[name] = value
            units = [row for _, row in sorted(per_unit.items()) if "batched.forward" in row]
            if not units:
                continue

            def put(key, name, unit, scale=1.0):
                if any(name in row for row in units):
                    values = [row.get(name, 0) * scale for row in units]
                    out[key] = (statistics.median(values), unit)

            p = phase + "."
            for name in ("scheduler.build", "batched.forward", "batched.forward_self",
                         "model.bottom_up_step", "model.top_down_step",
                         "numerics.scatter_rows", "numerics.gather_rows"):
                put(p + name + "_ms", name, "ms", 1e3)
            for name in ("model.bottom_up_step", "model.top_down_step"):
                put(p + name + "_calls", name + "#n", "count")
            for direction in ("up", "down"):
                for what in ("levels", "child_slots", "pad_slots"):
                    name = f"scheduler.{direction}_{what}"
                    put(p + name, name, "count")
            if phase == "train":
                put("numerics.backward_ms", "numerics.backward", "ms", 1e3)
                put("training.adam_step_ms", "training.adam_step", "ms", 1e3)
                put("numerics.tape_nodes", "numerics.tape_nodes", "count")
        out.update(self._gap_metrics(spans))
        if self.step_peaks:
            out["numerics.step_peak_alloc_mb"] = (
                statistics.median(self.step_peaks) / 2**20, "MiB"
            )
        return out

    @staticmethod
    def _gap_metrics(spans) -> dict:
        """Head-plus-loss time per step and wall time per eval batch.

        Both come from span boundaries: the head and loss run between the end
        of a step's forward and the start of its backward; an eval batch runs
        from one forward's start to the next (or to the end of evaluate()).
        """
        out = {}
        heads = []
        last_forward_end = {}
        for name, phase, unit, start, end, _ in sorted(spans, key=lambda s: s[3]):
            if phase != "train":
                continue
            if name == "batched.forward":
                last_forward_end[unit] = end
            elif name == "numerics.backward" and unit in last_forward_end:
                heads.append(start - last_forward_end[unit])
        if heads:
            out["training.head_loss_ms"] = (1e3 * statistics.median(heads), "ms")

        batches = []
        evals = [s for s in spans if s[0] == "training.evaluate"]
        forwards = sorted(
            (s[3] for s in spans if s[0] == "batched.forward" and s[1] == "eval")
        )
        for ev in evals:
            starts = [t for t in forwards if ev[3] <= t <= ev[4]] + [ev[4]]
            batches.extend(b - a for a, b in zip(starts, starts[1:]))
        if batches:
            out["training.eval_batch_ms"] = (1e3 * statistics.median(batches), "ms")
        return out
