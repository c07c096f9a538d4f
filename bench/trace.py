"""Tracing from outside the program: wrap copa's public functions.

Modules import functions by name, so each function is replaced in every
``copa`` module that holds it under that name, and methods are replaced
on their class.  Each wrapped call becomes a span (name, start, end,
parent id) kept in memory; calls made once per term or set pair are only
counted and timed in aggregate.  A span's self time is its duration
minus the time of the wrapped calls made inside it, so the self times of
one command sum to the command's span.

A wrapped name that the program no longer has is listed in ``absent``;
the run goes on without it.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter

import numpy as np

#: (module, attribute path, span name, aggregate only)
SPAN_TARGETS = (
    ("kb", "load_dataset", "kb.load_dataset", False),
    ("kb", "Dataset.without_motion", "kb.without_motion", False),
    ("textsim", "EmbeddingStore.from_file", "textsim.load", False),
    ("textsim", "WikiCorpus.from_file", "textsim.load", False),
    ("textsim", "TfIdfModel.from_wiki_corpus", "textsim.load", False),
    ("classifiers", "TopicSentenceCorpus.from_jsonl", "classifiers.load_sentences", False),
    ("textsim", "set_similarity", "textsim.set_similarity", True),
    ("textsim", "topic_related_titles", "textsim.topic_related_titles", True),
    ("features", "compute_features", "features.compute_features", True),
    ("features", "standardize", "features.standardize", False),
    ("classifiers", "train_ba", "classifiers.train_ba", False),
    ("classifiers", "predict_ba", "classifiers.predict_ba", False),
    ("classifiers", "predict_knn", "classifiers.predict_knn", False),
    ("classifiers", "ensemble", "classifiers.ensemble", False),
    ("classifiers", "train_nb", "classifiers.train_nb", False),
    ("classifiers", "predict_nb", "classifiers.predict_nb", False),
    ("classifiers", "train_feature_lr", "classifiers.train_feature_lr", False),
    ("classifiers", "predict_feature_lr", "classifiers.predict_feature_lr", False),
    ("classifiers", "train_w2v_lr", "classifiers.train_w2v_lr", False),
    ("classifiers", "predict_w2v", "classifiers.predict_w2v", False),
    ("evaluation", "leave_one_out", "evaluation.leave_one_out", False),
    ("evaluation", "pr_curve", "evaluation.pr_curve", False),
    ("evaluation", "p_at_1_curve", "evaluation.p_at_1_curve", False),
)

#: logreg_fit spans are named after the trainer that called them
FIT_CALLERS = {
    "classifiers.train_w2v_lr": "w2v",
    "classifiers.train_feature_lr": "feature_lr",
}

COMMANDS = ("eval", "match")


def _gradient_norm(X, y, w, b, lam) -> float:
    """Norm of the gradient of mean logistic loss + (lam/2)||w||^2 (bias
    unpenalized), computed here apart from the program's own solver."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    z = X @ w + float(b)
    p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    r = (p - y) / len(y)
    grad_w = X.T @ r + lam * w
    return math.sqrt(float(grad_w @ grad_w) + float(r.sum()) ** 2)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, copa_modules: dict):
        self.modules = copa_modules
        self.enabled = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.totals: Counter = Counter()  # name -> inclusive seconds
        self.selfs: Counter = Counter()  # name -> self seconds
        self.calls: Counter = Counter()
        self.fits: dict[str, Counter] = {}
        self.term_calls = 0
        self.term_keys: set = set()
        self.distinct_per_command: list[int] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float, end: float, keep_span: bool):
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        name = frame[1]
        self.calls[name] += 1
        self.totals[name] += duration
        self.selfs[name] += duration - frame[2]
        if keep_span:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None))

    def wrap(self, fn, name: str, aggregate: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, start, time.perf_counter(), not aggregate)

        return traced

    def wrap_fit(self, fn):
        """logreg_fit: a span named by its caller, an iteration count fed
        through ``on_step`` and a convergence test on the returned weights."""
        signature = inspect.signature(fn)
        counts_steps = "on_step" in signature.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            caller = self._stack[-1][1] if self._stack else ""
            kind = FIT_CALLERS.get(caller, "other")
            steps = [0]
            if counts_steps and kwargs.get("on_step") is None and len(args) < 6:
                def on_step(_iteration, _value):
                    steps[0] += 1
                kwargs["on_step"] = on_step
            frame = self._enter(f"classifiers.logreg_fit.{kind}")
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, start, time.perf_counter(), True)
            stats = self.fits.setdefault(kind, Counter())
            stats["calls"] += 1
            stats["iters"] += steps[0]
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            try:
                w, b = result
                norm = _gradient_norm(a["X"], a["y"], w, b, a["lam"])
            except (KeyError, TypeError, ValueError):
                stats["unchecked"] += 1
            else:
                stats["unconverged"] += norm >= a["tol"]
            return result

        return traced

    def wrap_term_similarity(self, fn):
        @functools.wraps(fn)
        def counted(kind, a, b, ctx):
            if self.enabled:
                self.term_calls += 1
                self.term_keys.add((kind, a, b) if a <= b else (kind, b, a))
            return fn(kind, a, b, ctx)

        return counted

    def end_command(self):
        self.distinct_per_command.append(len(self.term_keys))
        self.term_keys = set()

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, attr: str):
        for module in self.modules.values():
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self):
        for module_name, path, name, aggregate in SPAN_TARGETS:
            owner = self.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, aggregate))
                else:
                    wrapped = self.wrap(raw, name, aggregate)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._replace_everywhere(original, self.wrap(original, name, aggregate), path)

        fit = getattr(self.modules["classifiers"], "logreg_fit", None)
        if fit is None:
            self.absent.append("classifiers.logreg_fit")
        else:
            self._replace_everywhere(fit, self.wrap_fit(fit), "logreg_fit")
        sim = getattr(self.modules["textsim"], "term_similarity", None)
        if sim is None:
            self.absent.append("textsim.term_similarity")
        else:
            self._replace_everywhere(sim, self.wrap_term_similarity(sim), "term_similarity")

        group = self.modules["cli"].main
        for command in COMMANDS:
            cmd = group.commands.get(command)
            if cmd is None:
                self.absent.append(f"cli.{command}")
                continue
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(cmd.callback, f"cli.{command}")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, n_commands: int, folds_per_command: float) -> dict:
        """Per-layer metrics as means per traced command."""
        per = 1.0 / max(1, n_commands)
        out = {}

        def seconds(metric, name, self_time=False):
            table = self.selfs if self_time else self.totals
            out[metric] = table.get(name, 0.0) * per

        def count(metric, value):
            out[metric] = value * per

        seconds("kb.load_dataset.s", "kb.load_dataset")
        count("kb.without_motion.calls", self.calls.get("kb.without_motion", 0))
        seconds("kb.without_motion.s", "kb.without_motion")
        seconds("textsim.load.s", "textsim.load")
        seconds("classifiers.load_sentences.s", "classifiers.load_sentences")
        count("textsim.term_similarity.calls", self.term_calls)
        out["textsim.term_similarity.distinct"] = (
            sum(self.distinct_per_command) / len(self.distinct_per_command)
            if self.distinct_per_command else 0.0
        )
        for name in ("set_similarity", "topic_related_titles"):
            count(f"textsim.{name}.calls", self.calls.get(f"textsim.{name}", 0))
            seconds(f"textsim.{name}.s", f"textsim.{name}")
        count("features.compute_features.calls", self.calls.get("features.compute_features", 0))
        seconds("features.compute_features.self_s", "features.compute_features", True)
        seconds("features.standardize.s", "features.standardize")
        for name in ("train_ba", "predict_ba", "predict_knn", "ensemble", "train_nb",
                     "predict_nb", "predict_w2v"):
            seconds(f"classifiers.{name}.s", f"classifiers.{name}")
        for name in ("train_feature_lr", "predict_feature_lr", "train_w2v_lr"):
            seconds(f"classifiers.{name}.self_s", f"classifiers.{name}", True)
        for kind in ("w2v", "feature_lr"):
            stats = self.fits.get(kind, Counter())
            for key in ("calls", "iters", "unconverged", "unchecked"):
                count(f"classifiers.logreg_fit.{kind}.{key}", stats.get(key, 0))
            seconds(f"classifiers.logreg_fit.{kind}.s", f"classifiers.logreg_fit.{kind}")
        seconds("evaluation.leave_one_out.s", "evaluation.leave_one_out")
        seconds("evaluation.leave_one_out.self_s", "evaluation.leave_one_out", True)
        out["evaluation.folds"] = folds_per_command
        seconds("evaluation.pr_curve.s", "evaluation.pr_curve")
        seconds("evaluation.p_at_1_curve.s", "evaluation.p_at_1_curve")
        seconds("cli.eval.self_s", "cli.eval", True)
        seconds("cli.match.self_s", "cli.match", True)
        out["trace.self_sum_s"] = sum(self.selfs.values()) * per
        out["trace.spans"] = len(self.spans) * per
        out["trace.absent"] = float(len(self.absent))
        return out
