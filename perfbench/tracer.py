"""Outside-in span recorder for one LOPO-CV run.

`Tracer.install` replaces the public functions that `evaluation.run_cv`
looks up at call time (module attributes and two model methods) with
wrappers that record a span per call: name, start, end and the index of
the enclosing span.  Counts come from arguments and return values, never
from timers, so two traced runs of the same inputs give identical counts.
The program itself is not modified; `uninstall` puts the originals back.

Run the traced CV with jobs=1 so that every wrapped call happens in this
process.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


def _count_load_image(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["core.load_image.mb"] += os.path.getsize(path) / 1e6


def _count_admitted(counts, args, kwargs, result):
    counts["patches.admitted"] += len(result)


def _count_rows(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += len(result)
    return count


def _count_balance(counts, args, kwargs, result):
    given = len(args[0] if args else kwargs["train"])
    counts["classify.balance.rows_kept"] += len(result)
    counts["classify.balance.rows_removed"] += given - len(result)


def _count_logistic(counts, args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    # One loss evaluation per entry of the trace, each a pass over all rows.
    counts["classify.train_logistic.row_epochs"] += len(X) * len(result.losses)
    counts["classify.train_logistic.input_mb"] = max(
        counts["classify.train_logistic.input_mb"], X.nbytes / 1e6)


def _count_forest(counts, args, kwargs, result):
    counts["forest.trees"] += result.n_trees
    counts["forest.nodes"] += sum(tree.n_nodes for tree in result.trees)


def _count_fused(counts, args, kwargs, result):
    counts["fusion.fuse.patches"] += result.n_patches


def _targets():
    """(owner, attribute, counter) for every wrapped layer boundary."""
    from clescreen import (classify, core, evaluation, features, forest,
                           fusion, patching, wholeimage)
    return [
        (evaluation, "run_cv", None),
        (core, "load_image", _count_load_image),
        (wholeimage, "rotate", None),
        (patching, "resize_half", None),
        (evaluation, "record_patch_coords", _count_admitted),
        (patching, "whiten_values", None),
        (features, "lbp_patch_matrix",
         _count_rows("features.lbp_patch_matrix.patches")),
        (features, "glcm_patch_matrix",
         _count_rows("features.glcm_patch_matrix.patches")),
        (classify, "balance_classes", _count_balance),
        (classify, "train_logistic", _count_logistic),
        (classify.LogisticModel, "predict_proba", None),
        (forest, "train_random_forest", _count_forest),
        (forest.RandomForestModel, "predict_proba", None),
        (fusion, "fuse", _count_fused),
        (evaluation, "roc_auc", None),
    ]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        module = owner.__module__.rsplit(".", 1)[-1]
        return f"{module}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for owner, attr, counter in _targets():
            name = _span_name(owner, attr)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, counter))
            self._originals.append((owner, attr, original))
            self.names.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer metrics: total seconds per wrapped function, the
        self time of run_cv (its span minus its direct children), and
        every count."""
        out = {f"{name}.s": 0.0 for name in self.names}
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[f"{name}.s"] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        out["evaluation.run_cv.self_s"] = sum(
            end - start - child_time[i]
            for i, (name, start, end, _p) in enumerate(self.spans)
            if name == "evaluation.run_cv")
        out.update(self.counts)
        return out
