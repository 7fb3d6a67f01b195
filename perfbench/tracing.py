"""Span tracer for the benchmark's traced runs.

The tracer replaces rosita_mini's public functions and methods with thin
wrappers, in every module namespace where the package looks them up
(``pipeline`` imports ``apply_surgery`` by name, so ``pipeline.apply_surgery``
is wrapped as well as ``pruning.apply_surgery``). A wrapper records a span
of name, start, end, parent span and run id; spans stay in memory and are
written once, when the benchmark ends. Nothing under ``src/`` changes.

Per-layer metrics are derived from the spans of one run: inclusive time,
self time (duration minus the time covered by direct child spans) and call
counts, plus a few counters recorded at the same boundaries (rows, bytes,
matrix cells, removed units).
"""

from __future__ import annotations

import gzip
import os
import statistics
import sys
import time
from collections import defaultdict
from functools import update_wrapper

# (metric name, unit) of every per-layer metric, in output order.
PER_LAYER = [
    ("pipeline.evaluate.s", "s"),
    ("pipeline.evaluate.calls", "count"),
    ("pipeline.evaluate.rows", "rows"),
    ("pipeline.eval_share", "fraction"),
    ("pipeline.step_ms.p50", "ms"),
    ("pipeline.step_ms.p90", "ms"),
    ("pipeline.run_stage.self_s", "s"),
    ("pipeline.one_step_prune.s", "s"),
    ("model.forward.student.s", "s"),
    ("model.forward.student.calls", "count"),
    ("model.forward.eval.s", "s"),
    ("model.cross_entropy.s", "s"),
    ("model.forward.teacher.s", "s"),
    ("model.forward.teacher.calls", "count"),
    ("model.forward.teacher.rows", "rows"),
    ("model.forward.teacher_share", "fraction"),
    ("tensor.backward.s", "s"),
    ("tensor.backward.calls", "count"),
    ("tensor.matmul.s", "s"),
    ("tensor.matmul.calls", "count"),
    ("tensor.add.s", "s"),
    ("tensor.add.calls", "count"),
    ("tensor.layer_norm.s", "s"),
    ("tensor.layer_norm.calls", "count"),
    ("tensor.softmax_rows.s", "s"),
    ("tensor.softmax_rows.calls", "count"),
    ("tensor.gather_rows.s", "s"),
    ("tensor.gather_rows.calls", "count"),
    ("distillation.soft_cross_entropy.s", "s"),
    ("distillation.hidden_mse.s", "s"),
    ("distillation.teacher_rows_per_example", "ratio"),
    ("pruning.record_batch_scores.s", "s"),
    ("pruning.record_batch_scores.calls", "count"),
    ("pruning.select_prune_set.s", "s"),
    ("pruning.apply_surgery.s", "s"),
    ("pruning.apply_surgery.calls", "count"),
    ("pruning.units_removed", "count"),
    ("factorization.svd.s", "s"),
    ("factorization.svd.calls", "count"),
    ("factorization.svd.cells", "count"),
    ("factorization.svd_share", "fraction"),
    ("optim.step.s", "s"),
    ("optim.step.calls", "count"),
    ("optim.apply_surgery.s", "s"),
    ("data.iter_batches.wait_s", "s"),
    ("data.batches", "count"),
    ("data.load_task_dir.s", "s"),
    ("checkpoint.save.s", "s"),
    ("checkpoint.load.s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("metrics.write.s", "s"),
    ("metrics.records", "count"),
    ("trace.overhead_frac", "fraction"),
]

# Tensor ops are leaves of the span tree, so their inclusive and self time
# agree; self time is what the metric names.
_TENSOR_OPS = ("matmul", "add", "layer_norm", "softmax_rows", "gather_rows")


class Tracer:
    """Records spans while ``run`` is set; a plain pass-through otherwise."""

    def __init__(self):
        self.run: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent index, run]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[self.run][name] += amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on the current stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Trace ``owner.attr`` wherever rosita_mini looks it up.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``after(args, span_name)`` records counters once the
        call has returned, outside its span.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self.run is None:
                return original(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            idx = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, span_name)
            return result

        update_wrapper(traced, original)
        self._install(owner, attr, original, traced)

    def wrap_generator(self, owner, attr: str, name: str, item_counter: str) -> None:
        """Trace each ``next`` of a generator function as one ``name`` span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self.run is None:
                return original(*args, **kwargs)
            return self._traced_items(original(*args, **kwargs), name, item_counter)

        update_wrapper(traced, original)
        self._install(owner, attr, original, traced)

    def _traced_items(self, gen, name: str, item_counter: str):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.count(item_counter, 1)
            yield item

    def _install(self, owner, attr: str, original, traced) -> None:
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(module, key)
                       for mod_name, module in list(sys.modules.items())
                       if mod_name == "rosita_mini" or mod_name.startswith("rosita_mini.")
                       for key, value in list(vars(module).items()) if value is original]
        for target, key in targets:
            setattr(target, key, traced)

    # -- analysis --------------------------------------------------------

    def totals(self, runs) -> dict[str, list[float]]:
        """name -> [calls, inclusive s, self s] over the spans of ``runs``."""
        runs = set(runs)
        child_time = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if run in runs and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, parent, run) in enumerate(self.spans):
            if run in runs:
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child_time[idx]
        return out

    def step_intervals_ms(self, run: int) -> list[float]:
        """Gaps between consecutive metric records within one stage call."""
        by_stage: dict[int, list[float]] = defaultdict(list)
        for name, start, _end, parent, span_run in self.spans:
            if span_run == run and name == "metrics.write":
                by_stage[parent].append(start)
        return [1000.0 * (b - a) for starts in by_stage.values()
                for a, b in zip(starts, starts[1:])]

    def layer_metrics(self, run: int, setup_run: int, wall_s: float) -> dict[str, float]:
        """Per-layer values for one set-up plus one traced iteration."""
        tot = self.totals((run, setup_run))
        counters = defaultdict(float, self.counters[run])
        for key, value in self.counters[setup_run].items():
            counters[key] += value

        def incl(name):
            return tot[name][1] if name in tot else 0.0

        def calls(name):
            return tot[name][0] if name in tot else 0

        def self_s(name):
            return tot[name][2] if name in tot else 0.0

        steps = self.step_intervals_ms(run)
        stage_rows = counters["distillation.stage_rows"]
        values = {
            "pipeline.evaluate.s": incl("pipeline.evaluate"),
            "pipeline.evaluate.calls": calls("pipeline.evaluate"),
            "pipeline.evaluate.rows": counters["pipeline.evaluate.rows"],
            "pipeline.eval_share": incl("pipeline.evaluate") / wall_s,
            "pipeline.step_ms.p50": _percentile(steps, 50),
            "pipeline.step_ms.p90": _percentile(steps, 90),
            "pipeline.run_stage.self_s": self_s("pipeline.run_stage"),
            "pipeline.one_step_prune.s": incl("pipeline.one_step_prune"),
            "model.forward.student.s": incl("model.forward.student"),
            "model.forward.student.calls": calls("model.forward.student"),
            "model.forward.eval.s": incl("model.forward.eval"),
            "model.cross_entropy.s": incl("model.cross_entropy"),
            "model.forward.teacher.s": incl("model.forward.teacher"),
            "model.forward.teacher.calls": calls("model.forward.teacher"),
            "model.forward.teacher.rows": counters["model.forward.teacher.rows"],
            "model.forward.teacher_share": incl("model.forward.teacher") / wall_s,
            "tensor.backward.s": incl("tensor.backward"),
            "tensor.backward.calls": calls("tensor.backward"),
            "distillation.soft_cross_entropy.s": incl("distillation.soft_cross_entropy"),
            "distillation.hidden_mse.s": incl("distillation.hidden_mse"),
            "distillation.teacher_rows_per_example":
                counters["model.forward.teacher.rows"] / stage_rows if stage_rows else 0.0,
            "pruning.record_batch_scores.s": incl("pruning.record_batch_scores"),
            "pruning.record_batch_scores.calls": calls("pruning.record_batch_scores"),
            "pruning.select_prune_set.s": incl("pruning.select_prune_set"),
            "pruning.apply_surgery.s": incl("pruning.apply_surgery"),
            "pruning.apply_surgery.calls": calls("pruning.apply_surgery"),
            "pruning.units_removed": counters["pruning.units_removed"],
            "factorization.svd.s": incl("factorization.svd"),
            "factorization.svd.calls": calls("factorization.svd"),
            "factorization.svd.cells": counters["factorization.svd.cells"],
            "factorization.svd_share": incl("factorization.svd") / wall_s,
            "optim.step.s": incl("optim.step"),
            "optim.step.calls": calls("optim.step"),
            "optim.apply_surgery.s": incl("optim.apply_surgery"),
            "data.iter_batches.wait_s": incl("data.iter_batches.wait"),
            "data.batches": counters["data.batches"],
            "data.load_task_dir.s": incl("data.load_task_dir"),
            "checkpoint.save.s": incl("checkpoint.save"),
            "checkpoint.load.s": incl("checkpoint.load"),
            "checkpoint.bytes_written": counters["checkpoint.bytes_written"],
            "metrics.write.s": incl("metrics.write"),
            "metrics.records": calls("metrics.write"),
        }
        for op in _TENSOR_OPS:
            name = f"tensor.{op}"
            values[f"{name}.s"] = self_s(name)
            values[f"{name}.calls"] = calls(name)
        return values

    def write(self, path) -> None:
        """Write every span as gzip'd TSV: run, span, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("run\tspan\tparent\tname\tstart\tend\n")
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{run}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the per-layer metrics name."""
    from rosita_mini import (checkpoint, data, distillation, factorization, metrics,
                             model, optim, pipeline, pruning, tensor)

    def forward_kind(args):
        if tracer.inside("pipeline.evaluate"):
            return "model.forward.eval"
        if not any(p.requires_grad for p in args[0].params.values()):
            return "model.forward.teacher"
        return "model.forward.student"

    def after_forward(args, span_name):
        if span_name == "model.forward.teacher":
            tracer.count("model.forward.teacher.rows", len(args[1]))

    def after_run_stage(args, _span):
        stage, _student, teacher, datasets = args[:4]
        if teacher is not None:
            tracer.count("distillation.stage_rows", len(datasets[stage.dataset]))

    tracer.wrap(pipeline, "run_stage", "pipeline.run_stage", after_run_stage)
    tracer.wrap(pipeline, "evaluate", "pipeline.evaluate",
                lambda args, _span: tracer.count("pipeline.evaluate.rows", len(args[1])))
    tracer.wrap(pipeline, "one_step_prune", "pipeline.one_step_prune")
    tracer.wrap(model.Model, "forward", forward_kind, after_forward)
    tracer.wrap(model, "cross_entropy", "model.cross_entropy")
    tracer.wrap(tensor.Tensor, "backward", "tensor.backward")
    for op in _TENSOR_OPS:
        tracer.wrap(tensor, op, f"tensor.{op}")
    tracer.wrap(distillation, "soft_cross_entropy", "distillation.soft_cross_entropy")
    tracer.wrap(distillation, "hidden_mse", "distillation.hidden_mse")
    tracer.wrap(pruning, "record_batch_scores", "pruning.record_batch_scores")
    tracer.wrap(pruning, "select_prune_set", "pruning.select_prune_set")
    tracer.wrap(pruning, "apply_surgery", "pruning.apply_surgery",
                lambda args, _span: tracer.count("pruning.units_removed", len(args[1])))
    tracer.wrap(factorization, "svd", "factorization.svd",
                lambda args, _span: tracer.count("factorization.svd.cells",
                                              args[0].shape[0] * args[0].shape[1]))
    tracer.wrap(optim.Adam, "step", "optim.step")
    tracer.wrap(optim.Adam, "apply_surgery", "optim.apply_surgery")
    tracer.wrap_generator(data, "iter_batches", "data.iter_batches.wait", "data.batches")
    tracer.wrap(data, "load_task_dir", "data.load_task_dir")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save",
                lambda args, _span: tracer.count("checkpoint.bytes_written",
                                              os.path.getsize(args[0])))
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.wrap(metrics.MetricsWriter, "write", "metrics.write")
