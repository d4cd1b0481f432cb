"""Spans around the public functions of each setcast module.

The benchmark wraps the functions from outside the package: every attribute
of every loaded ``setcast`` module that is the original function object is
replaced, so ``from ... import`` aliases such as ``evaluation.stratified_folds``
are traced too.  A function that no longer exists is reported as missing.

Spans (name, start, end, parent span, op id) stay in memory; counts are
derived from them and from a few result hooks.  Self time is a span's
duration minus the durations of its direct children (calls nest, nothing
runs concurrently).
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rows(tracer, args, result):
    tracer.counts["dataset.rows_read"] += len(result)


def _bytes_written(tracer, args, result):
    tracer.counts["dataset.bytes_written"] += os.path.getsize(args[1])


def _kernel_bytes(tracer, args, result):
    tracer.counts["svm.kernel_matrix_bytes"] += result.size * 8


def _fit(tracer, args, result):
    tracer.counts["svm.n_support"] += len(result.coefficients)
    tracer.counts["svm.converged_fits"] += int(result.converged)
    tracer.kkt_max = max(tracer.kkt_max, float(result.kkt_violation))


# (span name, module, attribute, result hook).  "Class.method" patches the
# method on the class.  Several attributes may share one span name.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("dataset.load_raw_series", "dataset", "load_raw_series", _rows),
    ("dataset.build_training_table", "dataset", "build_training_table", None),
    ("dataset.save_samples", "dataset", "save_samples", _bytes_written),
    ("dataset.load_samples", "dataset", "load_samples", _rows),
    ("dataset.stratified_folds", "dataset", "stratified_folds", None),
    ("dataset.subset", "dataset", "Dataset.subset", None),
    ("naive_bayes.train", "naive_bayes", "train", None),
    ("naive_bayes.predict_distribution", "naive_bayes", "predict_distribution", None),
    ("naive_bayes.save_model", "naive_bayes", "save_model", None),
    ("naive_bayes.load_model", "naive_bayes", "load_model", None),
    ("svm.kernel_matrix", "svm", "kernel_matrix", _kernel_bytes),
    ("svm.train_smo", "svm", "train_smo", _fit),
    ("svm.hard_distribution", "svm", "hard_distribution", None),
    ("svm.decision_values", "svm", "decision_values", None),
    ("svm.save_model", "svm", "save_model", None),
    ("svm.load_model", "svm", "load_model", None),
    ("evaluation.cross_validate", "evaluation", "cross_validate", None),
    ("evaluation.records", "evaluation", "PredictionRecord.__init__", None),
    ("evaluation.evaluate", "evaluation", "evaluate", None),
    ("evaluation.render", "evaluation", "render_text", None),
    ("evaluation.render", "evaluation", "render_machine", None),
)
COUNTERS = ("dataset.rows_read", "dataset.bytes_written", "svm.kernel_matrix_bytes",
            "svm.n_support", "svm.converged_fits")
COUNTED = {"naive_bayes.train", "naive_bayes.predict_distribution", "svm.kernel_matrix",
           "svm.train_smo", "svm.hard_distribution", "svm.decision_values", "evaluation.records"}


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.kkt_max = 0.0
        self.op = None
        self.missing = []
        self._patches = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[sid] = (name, start, perf_counter(), parent, tracer.op)
                tracer.stack.pop()
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    if f"{name} counters" not in tracer.missing:
                        tracer.missing.append(f"{name} counters")
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "setcast" or key.startswith("setcast.")]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules.get(f"setcast.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method or attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, original, hook)
            if cls_name:
                self._patch(owner, method, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self) -> dict:
        """Self time per span name (``<name>_s``), call counts and counters."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = defaultdict(float)
        for (_, _, _, parent, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        self_time = defaultdict(float)
        calls = Counter()
        for sid, ((name, _, _, _, _), dur) in enumerate(zip(self.spans, durations)):
            self_time[name] += dur - child[sid]
            calls[name] += 1
        metrics = {f"{name}_s": self_time.get(name, 0.0) for name, *_ in TARGETS}
        metrics.update({f"{name}_calls": calls[name] for name in COUNTED})
        metrics.update({name: self.counts[name] for name in COUNTERS})
        metrics["svm.kkt_violation_max"] = self.kkt_max
        return metrics

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")
