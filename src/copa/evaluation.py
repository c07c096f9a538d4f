"""Leave-one-motion-out evaluation, threshold-sweep curves and baselines.

``METHODS`` is the one method registry, a ``Method`` entry per method:
``method_inputs``, ``score_motion``, ``leave_one_out`` and the CLI's
store loading all read it.

The protocol builds each method's inputs once, derives the fold without
each motion by subtracting it, scores the held-out motion against its
eligible CoPAs, and collects the scores into per-method matrices.  Curves
sweep a fixed threshold grid over the matrices: pair-level
precision/recall, and per-motion precision-at-1 versus coverage.

Eligibility mirrors the published protocol: BA-k abstains below k
supporting motions per (CoPA, action); the topic methods (KNN, W2V, NB)
only ever score CoPAs flagged topic-related that contain at least
``topic_min_motions`` motions (measured once, on the full dataset); the
feature LR scores every CoPA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import classifiers as clf
from .classifiers import ScoreMatrix, ensemble
from .features import FeatureTable
from .kb import Dataset, Motion
from .textsim import DomainError, SimilarityContext, SimilarityKind


class FoldError(DomainError):
    """Training failed inside a leave-one-out fold; carries the held-out
    motion id for debugging."""


class DatasetTooSmall(DomainError):
    """The dataset lacks the motions or CoPAs an operation needs."""


def _require(ds: Dataset, min_motions: int, purpose: str) -> None:
    """DatasetTooSmall naming what ``purpose`` lacks: ``min_motions``
    motions, or any CoPA."""
    if len(ds.motions) < min_motions:
        noun = "motion" if min_motions == 1 else "motions"
        raise DatasetTooSmall(f"{purpose} needs at least {min_motions} {noun}, "
                              f"the dataset has {len(ds.motions)}")
    if not ds.copas:
        raise DatasetTooSmall(f"{purpose} needs at least one CoPA, the dataset has none")


class Method(NamedTuple):
    """One matching method, declared once: the ``SimilarityContext`` stores
    it cannot run without (``needs``) and those it reads when present
    (``optional``; tf-idf comes with ``wiki``); whether ``eval`` keeps only
    its ``topic_method_copas`` (``topic_only``); ``build(ds, config, ctx)``,
    its inputs from ``ds``, built once per command, whose
    ``without_motion(h)`` is the fold without motion h; and ``score(inputs,
    motion, config, ctx, columns)``, ``motion``'s row against every CoPA of
    the inputs' dataset (``copa_ids`` order, NaN for abstentions).
    ``inputs`` is ``build``'s result, against which ``motion`` is a new
    query, or its ``without_motion(motion.id)``; W2V and the feature LR
    train there.  ``columns`` is a boolean mask over ``copa_ids`` (``None``
    for every CoPA) whose unkept entries ``score_motion`` sets to NaN: W2V
    and NB skip their work there, the other methods ignore it."""

    needs: tuple[str, ...]
    optional: tuple[str, ...]
    topic_only: bool
    build: Callable
    score: Callable


def _feature_table(ds: Dataset, config: EvalConfig, ctx: SimilarityContext) -> FeatureTable:
    _require(ds, 1, "the lr method")
    return FeatureTable(ds, ctx)


def _score_w2v(table: clf.W2VTable, motion: Motion, config: EvalConfig,
               ctx: SimilarityContext, columns) -> np.ndarray:
    """W2V fits only the kept CoPAs whose blacklist does not veto the
    action, and none when the topic has no embedding: each fit reads only
    its own CoPA's labels, and ``predict_w2v`` fixes every other score."""
    if ctx.term_vector(SimilarityKind.EMBEDDING, motion.topic) is None:
        return np.full(len(table.counts.copa_ids), np.nan)
    fitted = ~table.counts.blacklisted(motion.action)
    if columns is not None:
        fitted &= columns
    fits = clf.train_w2v_lr(table, lam=config.l2_lambda, tol=config.tol,
                            max_iters=config.max_iters, columns=fitted,
                            workspace=table.workspace)
    return clf.predict_w2v(fits, table.counts, motion, ctx)


# classifiers' functions are looked up when called, so that patching the
# module (tests, the benchmark's tracer) reaches every method
METHODS = {
    "ba": Method((), (), False, lambda ds, config, ctx: clf.train_ba(ds, k=config.ba_k),
                 lambda model, motion, config, ctx, columns: clf.predict_ba(model, motion)),
    "knn": Method(("embeddings",), (), True, lambda ds, config, ctx: clf.KNNCandidates(ds, ctx),
                  lambda inputs, motion, config, ctx, columns: clf.predict_knn(
                      inputs, motion, ctx, threshold=config.knn_threshold,
                      min_neighbors=config.knn_min_neighbors, top=config.knn_top)),
    "w2v": Method(("embeddings",), (), True, lambda ds, config, ctx: clf.W2VTable(ds, ctx),
                  _score_w2v),
    "nb": Method(("sentences",), (), True,
                 lambda ds, config, ctx: clf.train_nb(ds, ctx.sentences, alpha=config.nb_alpha),
                 lambda model, motion, config, ctx, columns: clf.predict_nb(
                     model, motion, ctx.sentences, columns=columns)),
    "lr": Method((), ("embeddings", "alt_embeddings", "wiki"), False, _feature_table,
                 lambda table, motion, config, ctx, columns: clf.predict_feature_lr(
                     clf.train_feature_lr(table.values, table.labels, lam=config.l2_lambda,
                                          tol=config.tol, max_iters=config.max_iters,
                                          workspace=table.workspace),
                     table.query_rows(motion))),
}
KNOWN_METHODS = tuple(METHODS)


def default_threshold_grid(step: float = 0.01) -> tuple[float, ...]:
    """0 to 1 in ``step`` steps; ``step`` must lie in [1e-6, 1] and divide 1."""
    count = round(1.0 / step) if 1e-6 <= step <= 1.0 else 0
    if count == 0 or not math.isclose(count * step, 1.0, rel_tol=1e-9):
        raise ValueError(f"threshold_step must lie in [1e-6, 1] and divide 1, got {step!r}")
    return tuple(np.linspace(0.0, 1.0, count + 1))


@dataclass
class EvalConfig:
    """The methods to run and every method hyperparameter.  Each field is
    also a config key (``cli.AppConfig``) and is checked here, once."""

    methods: tuple[str, ...] = KNOWN_METHODS
    ba_k: int = 5
    knn_threshold: float = 0.5
    knn_min_neighbors: int = 3
    knn_top: int = 5
    nb_alpha: float = 1.0
    l2_lambda: float = 1e-3
    tol: float = 1e-6
    max_iters: int = 10000
    threshold_step: float = 0.01
    topic_min_motions: int = 10

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        checks = [
            (self.ba_k >= 1, "ba_k must be >= 1"),
            (0.0 <= self.knn_threshold <= 1.0, "knn_threshold must be in [0, 1]"),
            (self.knn_min_neighbors >= 1, "knn_min_neighbors must be >= 1"),
            (self.knn_top >= 1, "knn_top must be >= 1"),
            (self.nb_alpha > 0, "nb_alpha must be positive"),
            (self.l2_lambda >= 0, "l2_lambda must be non-negative"),
            (self.tol > 0, "tol must be positive"),
            (self.max_iters >= 1, "max_iters must be >= 1"),
            (self.topic_min_motions >= 0, "topic_min_motions must be >= 0"),
            (len(self.methods) > 0, "methods must not be empty"),
            (not unknown, f"unknown method {', '.join(map(repr, unknown))} in config"),
            (len(set(self.methods)) == len(self.methods),
             f"methods repeats a method: {', '.join(self.methods)}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        default_threshold_grid(self.threshold_step)  # raises on a bad step

    @property
    def thresholds(self) -> tuple[float, ...]:
        """The curves' threshold grid, 0 to 1 in ``threshold_step`` steps."""
        return default_threshold_grid(self.threshold_step)


def topic_method_copas(ds: Dataset, min_motions: int = 10) -> frozenset[str]:
    """CoPAs the topic-based methods are allowed to score."""
    return frozenset(
        c.id for c in ds.copas if c.topic_related and len(c.motion_ids) >= min_motions
    )


def leave_one_out(ds: Dataset, config: EvalConfig, ctx: SimilarityContext) -> dict[str, ScoreMatrix]:
    """One ScoreMatrix per requested method plus their ensemble.

    Each fold trains on all motions but one; the held-out motion is also
    withheld from the count features and from c_t (its topic is ignored),
    and same-topic training motions are dropped from KNN candidate sets.
    Each method's inputs are built once (a failure there is raised as
    is), and the fold without motion h is their ``without_motion(h)``.
    """
    _require(ds, 2, "leave-one-out")
    rows = {method: [] for method in config.methods}
    eligible = topic_method_copas(ds, config.topic_min_motions)
    topic_columns = np.array([cid in eligible for cid in ds.copa_ids], dtype=bool)
    columns = {method: topic_columns if METHODS[method].topic_only else None
               for method in config.methods}
    inputs = {method: method_inputs(method, ds, config, ctx) for method in config.methods}

    for held_out in ds.motions:
        try:
            for method in config.methods:
                fold = inputs[method].without_motion(held_out.id)
                rows[method].append(score_motion(method, fold, held_out, config, ctx,
                                                 columns[method]))
        except Exception as exc:
            raise FoldError(f"fold holding out {held_out.id!r}: {exc}") from exc

    matrices = {method: ScoreMatrix(ds.motion_ids, ds.copa_ids, rows[method])
                for method in config.methods}
    matrices["ensemble"] = ensemble(list(matrices.values()))
    return matrices


def method_inputs(method: str, ds: Dataset, config: EvalConfig, ctx: SimilarityContext):
    """``METHODS[method].build`` on ``ds``; ValueError for an unknown
    method or when ``ctx`` lacks a store the method needs."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    for store in METHODS[method].needs:
        if getattr(ctx, store) is None:
            raise ValueError(f"method {method!r} requires the {store!r} store")
    return METHODS[method].build(ds, config, ctx)


def score_motion(method: str, inputs, motion: Motion, config: EvalConfig,
                 ctx: SimilarityContext, columns: np.ndarray | None = None) -> np.ndarray:
    """``METHODS[method].score``: ``motion``'s row against ``inputs``, NaN
    outside the boolean mask ``columns`` over ``copa_ids`` (``None`` keeps
    every CoPA).  This is where ``eval`` applies the topic eligibility."""
    row = METHODS[method].score(inputs, motion, config, ctx, columns)
    if columns is not None:
        row[~columns] = np.nan
    return row


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


@dataclass(frozen=True)
class PAt1Point:
    threshold: float
    coverage: float
    p_at_1: float


def _included_columns(scores: ScoreMatrix, ds: Dataset, exclude_general: bool):
    """Score columns of the included CoPAs, sorted by copa id, and the
    matching mask of labelled pairs.  The matrix's ids must be the
    dataset's, in order."""
    if scores.motion_ids != ds.motion_ids or scores.copa_ids != ds.copa_ids:
        raise ValueError("the score matrix's ids are not the dataset's, in order")
    included = set(ds.included_copa_ids(exclude_general))
    cols = sorted((j for j, cid in enumerate(ds.copa_ids) if cid in included),
                  key=lambda j: ds.copa_ids[j])
    return scores.scores[:, cols], ds.label_counts.member[:, cols]


def _passing_counts(values: np.ndarray, hits: np.ndarray, grid) -> list[tuple[float, int, int]]:
    """(threshold, #values >= threshold, #hits among them) per threshold,
    from one sort of ``values``."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    hits_below = np.concatenate(([0], np.cumsum(hits[order])))
    grid = np.asarray(grid, dtype=float)
    first = np.searchsorted(ordered, grid, side="left")
    n, total_hits = len(ordered), int(hits_below[-1])
    return [
        (float(t), n - int(k), total_hits - int(hits_below[k])) for t, k in zip(grid, first)
    ]


def pr_curve(
    scores: ScoreMatrix,
    ds: Dataset,
    exclude_general: bool = False,
    thresholds: tuple[float, ...] | None = None,
) -> list[PRPoint]:
    """Pair-level precision and recall per threshold.

    A pair is predicted when its score is >= the threshold; abstentions
    never pass.  Recall's denominator is every labelled pair over the
    included CoPAs, regardless of which CoPAs the method could score.
    Thresholds with no predicted pair yield no point.
    """
    grid = thresholds if thresholds is not None else default_threshold_grid()
    values, labelled = _included_columns(scores, ds, exclude_general)
    n_truths = int(labelled.sum())
    scored = ~np.isnan(values)
    return [
        PRPoint(threshold=t, precision=tp / predicted, recall=tp / n_truths if n_truths else 0.0)
        for t, predicted, tp in _passing_counts(values[scored], labelled[scored], grid)
        if predicted
    ]


def p_at_1_curve(
    scores: ScoreMatrix,
    ds: Dataset,
    exclude_general: bool = False,
    thresholds: tuple[float, ...] | None = None,
) -> list[PAt1Point]:
    """Precision of each motion's top-scoring CoPA versus the fraction of
    motions with any score passing the threshold.  Argmax ties break by
    copa id; thresholds covering no motion yield no point."""
    grid = thresholds if thresholds is not None else default_threshold_grid()
    values, labelled = _included_columns(scores, ds, exclude_general)
    if values.shape[1] == 0:
        return []
    covered = ~np.isnan(values).all(axis=1)
    # columns are sorted by copa id, so argmax's first maximum is the tie-break
    pick = np.argmax(np.where(np.isnan(values), -np.inf, values), axis=1)
    rows = np.arange(len(pick))
    best = values[rows, pick][covered]
    hits = labelled[rows, pick][covered]
    return [
        PAt1Point(threshold=t, coverage=n / len(ds.motions), p_at_1=n_hits / n)
        for t, n, n_hits in _passing_counts(best, hits, grid)
        if n
    ]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LargestCopaBaseline:
    copa_id: str
    precision: float


def baseline_largest(ds: Dataset, exclude_general: bool = False) -> LargestCopaBaseline:
    """Precision of always (and only) predicting the single largest CoPA:
    its size over the number of motions.  Ties break by copa id."""
    if not ds.motions or not ds.copas:
        raise ValueError("baseline needs a non-empty dataset")
    candidates = [ds.copa(cid) for cid in ds.included_copa_ids(exclude_general)]
    if not candidates:
        raise ValueError("no CoPAs left after exclusion")
    largest = min(candidates, key=lambda c: (-len(c.motion_ids), c.id))
    return LargestCopaBaseline(
        copa_id=largest.id, precision=len(largest.motion_ids) / len(ds.motions)
    )
