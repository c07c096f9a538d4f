"""Leave-one-motion-out evaluation, threshold-sweep curves and baselines.

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

import numpy as np

from . import classifiers as clf
from .classifiers import ScoreMatrix, TopicSentenceCorpus, ensemble, matrix_entry
from .features import FeatureTable
from .kb import Dataset, Motion
from .textsim import SimilarityContext

KNOWN_METHODS = ("ba", "knn", "w2v", "nb", "lr")


class LengthMismatch(Exception):
    """Paired label lists differ in length."""


class FoldError(Exception):
    """Training failed inside a leave-one-out fold; carries the held-out
    motion id for debugging."""


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


def leave_one_out(
    ds: Dataset,
    config: EvalConfig,
    ctx: SimilarityContext,
    corpus: TopicSentenceCorpus | None = None,
) -> dict[str, ScoreMatrix]:
    """One ScoreMatrix per requested method plus their ensemble.

    Each fold trains on all motions but one; the held-out motion is also
    withheld from the count features and from c_t (its topic is ignored),
    and same-topic training motions are dropped from KNN candidate sets.
    Each method's inputs are built once (a failure there is raised as
    is), and the fold without motion h is their ``without_motion(h)``.
    """
    if len(ds.motions) < 2:
        raise ValueError("leave-one-out needs at least two motions")

    matrices = {
        method: ScoreMatrix(method, ds.motion_ids, ds.copa_ids) for method in config.methods
    }
    eligible = topic_method_copas(ds, config.topic_min_motions)
    ineligible = np.array([cid not in eligible for cid in ds.copa_ids], dtype=bool)
    inputs = {method: method_inputs(method, ds, config, ctx, corpus) for method in config.methods}

    for i, held_out in enumerate(ds.motions):
        try:
            for method in config.methods:
                fold = inputs[method].without_motion(held_out.id)
                row = score_motion(method, ds, fold, held_out, config, ctx, corpus)
                if method in ("knn", "w2v", "nb"):
                    row[ineligible] = np.nan
                matrices[method].scores[i] = row
        except Exception as exc:
            raise FoldError(f"fold holding out {held_out.id!r}: {exc}") from exc

    matrices["ensemble"] = ensemble(list(matrices.values()))
    return matrices


def method_inputs(method: str, ds: Dataset, config: EvalConfig, ctx: SimilarityContext,
                  corpus: TopicSentenceCorpus | None = None):
    """What ``method`` learns from ``ds``, built once per command.  Its
    ``without_motion(h)`` is the leave-one-out fold without motion h,
    derived by subtracting h; ``score_motion`` reads either."""
    if method == "ba":
        return clf.train_ba(ds, k=config.ba_k)
    if method == "knn":
        return clf.KNNCandidates(ds)
    if method == "w2v":
        return clf.W2VTable(ds, ctx)
    if method == "nb":
        return clf.train_nb(ds, corpus, alpha=config.nb_alpha)
    if method == "lr":
        return FeatureTable(ds, ctx)
    raise ValueError(f"unknown method {method!r}")


def score_motion(
    method: str,
    ds: Dataset,
    inputs,
    motion: Motion,
    config: EvalConfig,
    ctx: SimilarityContext,
    corpus: TopicSentenceCorpus | None = None,
) -> np.ndarray:
    """Scores of ``motion`` against every CoPA of ``ds`` under one method,
    in ``ds.copa_ids`` order with NaN for abstentions.

    ``inputs`` is ``method_inputs(method, ds, ...)``, against which
    ``motion`` is a new query, or its ``without_motion(motion.id)``, the
    leave-one-out fold that holds ``motion`` out.  W2V and the feature LR
    train on them here; the other methods only read them.
    """
    if method == "ba":
        scores = clf.predict_ba(inputs, motion)
    elif method == "knn":
        scores = clf.predict_knn(
            inputs.ds, motion, ctx, threshold=config.knn_threshold,
            min_neighbors=config.knn_min_neighbors, top=config.knn_top,
            exclude_topic=inputs.exclude_topic,
        )
    elif method == "w2v":
        model = clf.train_w2v_lr(inputs, lam=config.l2_lambda, tol=config.tol,
                                 max_iters=config.max_iters)
        scores = clf.predict_w2v(model, motion, ctx)
    elif method == "nb":
        scores = clf.predict_nb(inputs, motion, corpus)
    elif method == "lr":
        model = clf.train_feature_lr(inputs.values, inputs.labels, lam=config.l2_lambda,
                                     tol=config.tol, max_iters=config.max_iters)
        scores = clf.predict_feature_lr(model, inputs.query_rows(motion), ds.copa_ids)
    else:
        raise ValueError(f"unknown method {method!r}")
    return np.array([matrix_entry(scores[cid], cid) for cid in ds.copa_ids])


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
    matching mask of labelled pairs."""
    included = set(ds.included_copa_ids(exclude_general))
    cols = sorted(
        (j for j, cid in enumerate(scores.copa_ids) if cid in included),
        key=lambda j: scores.copa_ids[j],
    )
    labelled = np.array(
        [[(mid, scores.copa_ids[j]) in ds.labels for j in cols] for mid in scores.motion_ids],
        dtype=bool,
    ).reshape(len(scores.motion_ids), len(cols))
    return scores.scores[:, cols], labelled


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
    included = set(ds.included_copa_ids(exclude_general))
    n_truths = sum(1 for (_, c) in ds.labels if c in included)
    values, labelled = _included_columns(scores, ds, exclude_general)
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
# Baselines and agreement
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


def cohen_kappa(labels_a, labels_b) -> float:
    """Cohen's kappa for two binary annotation lists.

    Degenerate chance agreement (p_e = 1) returns 1.0 under perfect
    observed agreement and 0.0 otherwise.
    """
    a = [int(bool(x)) for x in labels_a]
    b = [int(bool(x)) for x in labels_b]
    if len(a) != len(b) or not a:
        raise LengthMismatch(f"{len(a)} vs {len(b)} labels")
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    pa = sum(a) / n
    pb = sum(b) / n
    expected = pa * pb + (1 - pa) * (1 - pb)
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)
