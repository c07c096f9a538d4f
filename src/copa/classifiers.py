"""Matching methods: per-CoPA scorers over motions, plus their ensemble.

Five methods are implemented: action statistics (BA-k), nearest
neighbours over topic similarity (KNN), logistic regression over topic
embeddings (W2V), Naive Bayes over retrieved topic sentences (NB), and
logistic regression over the engineered 17-feature vectors (LR).  The
ensemble takes, per CoPA, the maximum score any method produced.

Every scorer returns one row: a float array in ``copa_ids`` order, each
entry within [0, 1] or NaN where the method abstains for that CoPA, the
row a ``ScoreMatrix`` stores.  NaN never passes a decision threshold.
All training is deterministic: zero-initialized optimizers, no sampling,
ordered iteration.
"""

from __future__ import annotations

import copy
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .features import N_FEATURES, Standardizer, standardize
from .kb import Dataset, LabelCounts, Motion
from .textsim import (SimilarityContext, SimilarityKind, TopicSentenceCorpus, name_key,
                      similarity_block)

class DimensionMismatch(Exception):
    """Training inputs disagree in length or width."""


# ---------------------------------------------------------------------------
# Score matrices
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ScoreMatrix:
    """Scores of one method for every (motion, CoPA) pair.

    ``scores`` is a dense (motions x CoPAs) float array in the order of
    ``motion_ids`` and ``copa_ids``, one scorer's row per motion.  NaN
    means the method abstained; every other entry lies within [0, 1].
    """

    motion_ids: tuple[str, ...]
    copa_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        self._rows = {mid: i for i, mid in enumerate(self.motion_ids)}
        self._cols = {cid: j for j, cid in enumerate(self.copa_ids)}
        shape = (len(self.motion_ids), len(self.copa_ids))
        self.scores = np.array(self.scores, dtype=float)
        if self.scores.shape != shape:
            raise ValueError(f"score array of shape {self.scores.shape}, expected {shape}")
        if not np.all(np.isnan(self.scores) | ((self.scores >= 0.0) & (self.scores <= 1.0))):
            raise ValueError("scores outside [0, 1]")

    def get(self, motion_id: str, copa_id: str) -> float | None:
        """The pair's score; None where the method abstained."""
        value = float(self.scores[self._rows[motion_id], self._cols[copa_id]])
        return None if math.isnan(value) else value


def score_row(values, abstain=False) -> np.ndarray:
    """A scorer's row: ``values`` with NaN where ``abstain`` (a mask or one
    flag for the whole row).  Every other entry must lie within [0, 1]; a
    NaN or +-inf there is an error, never an abstention."""
    values = np.asarray(values, dtype=float)
    ok = ((values >= 0.0) & (values <= 1.0)) | abstain
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"score {values[j]} in column {j} outside [0, 1]")
    return np.where(abstain, np.nan, values)


def ensemble(matrices: list[ScoreMatrix]) -> ScoreMatrix:
    """Per-pair maximum over the inputs; abstains only where every input
    abstained.  All matrices must share one id space, in one order."""
    if not matrices:
        raise ValueError("ensemble needs at least one score matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.motion_ids != first.motion_ids or m.copa_ids != first.copa_ids:
            raise ValueError("ensemble inputs have inconsistent id spaces")
    combined = np.fmax.reduce([m.scores for m in matrices])
    return ScoreMatrix(first.motion_ids, first.copa_ids, combined)


# ---------------------------------------------------------------------------
# Logistic regression core
# ---------------------------------------------------------------------------


def sigmoid(z):
    """1 / (1 + exp(-z)) elementwise, from e = exp(-|z|) so that no exp
    overflows: 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere (NaN
    stays NaN).  A 0-d input gives a float."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def _objective_at(z, neg_signs, w, lam) -> float:
    """The fit's objective, the mean negative log-likelihood plus
    (lam/2)*||w||^2 (bias excluded from the penalty), from the margins
    ``z = X @ w + b`` and ``neg_signs = -(2y - 1)``."""
    return float(np.logaddexp(0.0, neg_signs * z).mean()) + 0.5 * lam * float(w @ w)


def _gradient_at(X, y, p, w, lam):
    """The objective's gradient ``(grad_w, grad_b)`` from the
    probabilities ``p = sigmoid(X @ w + b)``."""
    residual = (p - y) / len(y)
    return X.T @ residual + lam * w, float(residual.sum())


class LogRegFit(tuple):
    """The ``(weights, bias)`` pair of a fit, unpacked like any pair, plus
    how the descent ended: ``n_iters`` accepted steps, whether the final
    gradient norm ``grad_norm`` is below ``tol`` (``converged``)."""

    def __new__(cls, weights: np.ndarray, bias: float, n_iters: int, grad_norm: float, tol: float):
        fit = super().__new__(cls, (weights, bias))
        fit.n_iters = n_iters
        fit.grad_norm = grad_norm
        fit.converged = grad_norm < tol
        return fit


def logreg_fit(
    X,
    y,
    lam: float = 1e-3,
    tol: float = 1e-6,
    max_iters: int = 10000,
    on_step=None,
) -> LogRegFit:
    """Deterministic damped Newton from a zero start.

    Each step solves ``H dir = -g`` on ``θ = [w; b]``, the weights and
    the bias, with ``H = Aᵀ diag(p(1-p)/n) A`` for ``A = [X 1]`` plus
    ``lam`` on the weight diagonal, then backtracks until
    ``f(θ + t·dir) < f(θ)`` and ``f(θ + t·dir) <= f(θ) + 1e-4·t·gᵀdir``
    (Armijo).  Where the solve fails or its direction does not descend (a
    singular H, as with duplicate columns and ``lam = 0``), the step falls
    back to ``-g``.

    Stops when the gradient norm drops below ``tol``, when no step
    strictly lowers the objective at float precision, or after
    ``max_iters`` steps.  Returns (weights, bias) as a ``LogRegFit``; its
    ``converged`` is False only when one of the last two stops ended the
    fit above ``tol``, as on separable data with ``lam = 0``, whose
    optimum lies at infinity, or with a ``tol`` below what float
    precision reaches.

    ``on_step(iteration, objective)`` is called after every accepted
    step; the accepted objective values strictly decrease.

    Each iterate is one pass: the margins ``X @ w + b`` of the accepted
    line-search candidate are the next iterate's, and their sigmoid feeds
    both its gradient and its Hessian.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("X must be a 2-d array")
    if len(X) != len(y) or len(y) == 0:
        raise DimensionMismatch(f"{len(X)} rows vs {len(y)} labels")
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    ridge = np.diag(np.append(np.full(d, float(lam)), 0.0))
    neg_signs = -(2.0 * y - 1.0)

    theta = np.zeros(d + 1)
    z = X @ theta[:d] + theta[d]  # the margins of θ, carried over from the accepted candidate
    value = _objective_at(z, neg_signs, theta[:d], lam)
    n_iters = 0
    grad_sq = math.inf
    for iteration in range(max_iters + 1):
        p = sigmoid(z)
        grad_w, grad_b = _gradient_at(X, y, p, theta[:d], lam)
        grad = np.append(grad_w, grad_b)
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        # the pass after the last step only measures the final gradient
        if math.sqrt(grad_sq) < tol or iteration == max_iters:
            break
        hessian = (A.T * (p * (1.0 - p) / n)) @ A + ridge
        try:
            direction = np.linalg.solve(hessian, -grad)
        except np.linalg.LinAlgError:
            direction = None
        if direction is None or not (np.isfinite(direction).all() and grad @ direction < 0.0):
            direction = -grad
        slope = float(grad @ direction)
        step = 1.0
        while step > 1e-20:
            cand = theta + step * direction
            cand_z = X @ cand[:d] + cand[d]
            cand_value = _objective_at(cand_z, neg_signs, cand[:d], lam)
            if cand_value < value and cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no step lowers the objective at float precision
        theta, z, value = cand, cand_z, cand_value
        n_iters += 1
        if on_step is not None:
            on_step(iteration, value)
    return LogRegFit(theta[:d], float(theta[d]), n_iters, math.sqrt(grad_sq), tol)


# ---------------------------------------------------------------------------
# BA-k: action statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BAModel:
    """p(c, a), the share of the training motions with action a in CoPA
    c, from the label counts; abstains below a support of k members."""

    k: int
    counts: LabelCounts

    def without_motion(self, motion_id: str) -> "BAModel":
        return replace(self, counts=self.counts.without_motion(motion_id))


def train_ba(ds: Dataset, k: int = 5) -> BAModel:
    if k < 1:
        raise ValueError("k must be at least 1")
    return BAModel(k, ds.label_counts)


def predict_ba(model: BAModel, motion: Motion) -> np.ndarray:
    """p(c, action) per CoPA; abstains where fewer than k training
    motions back the estimate (and everywhere for unseen actions)."""
    total, support = model.counts.with_action(motion.action)
    # support >= k >= 1 means total > 0; with total 0 every entry abstains
    return score_row(support / max(total, 1), abstain=support < model.k)


# ---------------------------------------------------------------------------
# KNN over topic similarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KNNCandidates:
    """KNN's training motions: those of ``ds`` not on ``exclude_topic``
    (by ``name_key``).  The fold without motion h excludes h's topic, and
    with it h."""

    ds: Dataset
    exclude_topic: str | None = None

    def without_motion(self, motion_id: str) -> "KNNCandidates":
        return replace(self, exclude_topic=self.ds.motion(motion_id).topic)


def predict_knn(
    ds_train: Dataset,
    motion: Motion,
    ctx: SimilarityContext,
    threshold: float = 0.5,
    min_neighbors: int = 3,
    top: int = 5,
    exclude_topic: str | None = None,
) -> np.ndarray:
    """Fraction of the query topic's nearest training motions that belong
    to each CoPA.

    Candidates are training motions whose topic embedding similarity exceeds
    ``threshold``; with fewer than ``min_neighbors`` of them the method
    abstains entirely, otherwise the best ``top`` (ties broken by motion
    id) vote.  The similarities are one ``similarity_block`` row, each
    rounded to a multiple of SIMILARITY_STEP (2⁻⁴⁰), so candidates whose
    similarities differ by less than 2⁻⁴¹ may tie and fall to the motion
    id order.  ``exclude_topic`` drops training motions on that topic
    (``name_key``), used by leave-one-out evaluation.
    """
    topics = [m.topic for m in ds_train.motions]
    sims, present = similarity_block(SimilarityKind.EMBEDDING, [motion.topic], topics, ctx)
    ids = np.array(ds_train.motion_ids, dtype=object)
    eligible = present[0] & (sims[0] > threshold) & (ids != motion.id)
    if exclude_topic is not None:
        skip = name_key(exclude_topic)
        eligible &= np.array([name_key(t) != skip for t in topics], dtype=bool)
    candidates = np.flatnonzero(eligible)
    if len(candidates) < min_neighbors:
        return np.full(len(ds_train.copa_ids), np.nan)
    # similarity descending, then motion id (Python string order)
    chosen = candidates[np.lexsort((ids[candidates], -sims[0, candidates]))[:top]]
    votes = ds_train.label_counts.member[chosen].sum(axis=0)
    return score_row(votes / len(chosen))


# ---------------------------------------------------------------------------
# W2V: logistic regression over topic embeddings
# ---------------------------------------------------------------------------


class W2VTable:
    """W2V's training data, built once per dataset: the unit topic vector
    ``X`` of each motion whose topic has an embedding (the others are left
    out of training), at dataset row ``rows``, with its CoPA memberships
    ``labels`` (0/1), and the label counts the blacklist reads.  The fold
    ``without_motion(h)`` drops h's row and subtracts h from the counts."""

    def __init__(self, ds: Dataset, ctx: SimilarityContext):
        vectors = [ctx.term_vector(SimilarityKind.EMBEDDING, m.topic) for m in ds.motions]
        self.rows = np.array([i for i, v in enumerate(vectors) if v is not None], dtype=np.intp)
        shape = (len(self.rows), ctx.embeddings.dimension)
        self.X = np.array([vectors[i] for i in self.rows]).reshape(shape)
        self.counts = ds.label_counts
        self.labels = self.counts.member[self.rows].astype(float)

    def without_motion(self, motion_id: str) -> "W2VTable":
        fold = copy.copy(self)
        keep = self.rows != self.counts.rows[motion_id]
        fold.rows, fold.X, fold.labels = self.rows[keep], self.X[keep], self.labels[keep]
        fold.counts = self.counts.without_motion(motion_id)
        return fold


def train_w2v_lr(
    table: W2VTable,
    lam: float = 1e-3,
    tol: float = 1e-6,
    max_iters: int = 10000,
    columns: np.ndarray | None = None,
) -> list[LogRegFit | None]:
    """One-vs-rest logistic regression per CoPA over the table's unit
    topic vectors, in ``copa_ids`` order: a fit for each CoPA that the
    boolean mask ``columns`` keeps (``None`` keeps every CoPA), ``None``
    for the others; none at all when no training motion has an
    embedding."""
    if not len(table.X):
        return []
    keep = np.ones(table.labels.shape[1], dtype=bool) if columns is None else columns
    return [logreg_fit(table.X, table.labels[:, j], lam=lam, tol=tol, max_iters=max_iters)
            if kept else None for j, kept in enumerate(keep)]


def predict_w2v(fits: list[LogRegFit | None], counts: LabelCounts, motion: Motion,
                ctx: SimilarityContext) -> np.ndarray:
    """Each CoPA's fit's sigmoid of ``weights @ x + bias`` for the topic
    vector x; abstains when the topic has no embedding or there are no
    fits, 0 where the blacklist of ``counts`` vetoes the action, and
    abstains at the other CoPAs without a fit."""
    x = ctx.term_vector(SimilarityKind.EMBEDDING, motion.topic)
    if x is None or not fits:
        return np.full(len(counts.copa_ids), np.nan)
    fitted = np.array([fit is not None for fit in fits], dtype=bool)
    z = np.array([weights @ x + bias for weights, bias in (f for f in fits if f is not None)])
    scores = np.full(len(fits), np.nan)
    scores[fitted] = sigmoid(z)
    blacklisted = counts.blacklisted(motion.action)
    return score_row(np.where(blacklisted, 0.0, scores), abstain=~(fitted | blacklisted))


# ---------------------------------------------------------------------------
# NB: Naive Bayes over retrieved topic sentences
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"\w+")


def tokenize(sentence: str) -> list[str]:
    return _WORD_RE.findall(sentence.lower())


class _MotionCounts(NamedTuple):
    """One training motion's share of the NB word tables."""

    words: np.ndarray  # vocabulary columns of its topic's sentence words
    counts: np.ndarray  # occurrences of each
    sentences: int


@dataclass(eq=False)
class NBClassifier:
    """Naive Bayes for every CoPA at once, as integer count tables.

    A CoPA's positive class is the sentences of its members' topics, its
    negative class those of the other training motions.  Over the training
    motions the tables count each word (``totals``), each word among each
    CoPA's members (``positive``), and sentences in all and among each
    CoPA's members; the label counts give the memberships and the
    blacklist.  The vocabulary is the words with a positive total.
    """

    alpha: float
    vocab: dict[str, int]  # every word of the training set -> column
    motions: dict[str, _MotionCounts]
    totals: np.ndarray
    positive: np.ndarray
    sentences: int
    positive_sentences: np.ndarray
    counts: LabelCounts

    def _add(self, motion_id: str, sign: int) -> None:
        share = self.motions[motion_id]
        copas = self.counts.member[self.counts.rows[motion_id]]
        self.totals[share.words] += sign * share.counts
        self.positive[np.ix_(copas, share.words)] += sign * share.counts
        self.sentences += sign * share.sentences
        self.positive_sentences[copas] += sign * share.sentences

    def without_motion(self, motion_id: str) -> "NBClassifier":
        """The classifier that ``train_nb`` would build from its ``ds`` less
        motion ``motion_id`` and its labels: copies of the tables minus
        that motion's counts."""
        fold = replace(self, totals=self.totals.copy(), positive=self.positive.copy(),
                       positive_sentences=self.positive_sentences.copy(),
                       counts=self.counts.without_motion(motion_id))
        fold._add(motion_id, -1)
        return fold


def train_nb(ds: Dataset, corpus: TopicSentenceCorpus, alpha: float = 1.0) -> NBClassifier:
    """The count tables of ``ds``, each motion's sentences tokenized once."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    vocab: dict[str, int] = {}
    motions = {}
    for m in ds.motions:
        sents = corpus.get(m.topic)
        counts = Counter(w for s in sents for w in tokenize(s))
        motions[m.id] = _MotionCounts(
            words=np.array([vocab.setdefault(w, len(vocab)) for w in counts], dtype=np.intp),
            counts=np.array(list(counts.values()), dtype=np.int64),
            sentences=len(sents),
        )
    n_copas, n_words = len(ds.copas), len(vocab)
    clf = NBClassifier(
        alpha, vocab, motions, totals=np.zeros(n_words, dtype=np.int64),
        positive=np.zeros((n_copas, n_words), dtype=np.int64), sentences=0,
        positive_sentences=np.zeros(n_copas, dtype=np.int64), counts=ds.label_counts,
    )
    for mid in motions:
        clf._add(mid, 1)
    return clf


def predict_nb(clf: NBClassifier, motion: Motion, corpus: TopicSentenceCorpus,
               columns: np.ndarray | None = None) -> np.ndarray:
    """Mean per-sentence posterior over the topic's sentences for each CoPA
    that the boolean mask ``columns`` keeps (``None`` keeps every CoPA);
    abstains when the corpus has none, 0 where the blacklist vetoes the
    action, and abstains at the other CoPAs.

    Each CoPA's positive and negative classes get log-priors from the
    sentence counts and Laplace-smoothed unigram log-probabilities over
    the vocabulary (words with a positive total); a sentence's words
    outside it are skipped, and a sentence whose two log-posteriors are
    both -inf (no training sentences) scores 0.5.  Only the kept CoPAs
    that the blacklist does not veto are computed; each one's posterior
    reads only its own counts."""
    copa_ids = clf.counts.copa_ids
    sentences = [tokenize(s) for s in corpus.get(motion.topic)]
    if not sentences:
        return np.full(len(copa_ids), np.nan)
    blacklisted = clf.counts.blacklisted(motion.action)
    scored = ~blacklisted if columns is None else columns & ~blacklisted
    rows = np.flatnonzero(scored)
    vocab_cols = {w: j for tokens in sentences for w in tokens
                  if (j := clf.vocab.get(w)) is not None and clf.totals[j] > 0}
    known = {w: i for i, w in enumerate(vocab_cols)}  # query word -> log-table column
    cols = list(vocab_cols.values())
    n, alpha = clf.sentences, clf.alpha
    n_vocab = int(np.count_nonzero(clf.totals))
    n_words = int(clf.totals.sum())
    totals = clf.totals[cols].tolist()
    # scored-CoPA x query-word log tables and log-priors, with math.log
    shape = (len(rows), len(known))
    log_pos, log_neg = np.empty(shape), np.empty(shape)
    prior_pos, prior_neg = np.empty(len(rows)), np.empty(len(rows))
    positive = clf.positive[rows]
    for c, (pos_counts, pos_words, pos_sentences) in enumerate(zip(
        positive[:, cols].tolist(), positive.sum(axis=1).tolist(),
        clf.positive_sentences[rows].tolist(),
    )):
        denom_pos = pos_words + alpha * n_vocab
        denom_neg = (n_words - pos_words) + alpha * n_vocab
        prior_pos[c] = math.log(pos_sentences / n) if pos_sentences else -math.inf
        prior_neg[c] = math.log((n - pos_sentences) / n) if n - pos_sentences else -math.inf
        log_pos[c] = [math.log((k + alpha) / denom_pos) for k in pos_counts]
        log_neg[c] = [math.log((t - k + alpha) / denom_neg) for k, t in zip(pos_counts, totals)]
    total = np.zeros(len(rows))
    for tokens in sentences:
        lp, ln = prior_pos.copy(), prior_neg.copy()
        for w in tokens:
            if (i := known.get(w)) is not None:
                lp += log_pos[:, i]
                ln += log_neg[:, i]
        both_inf = (lp == -math.inf) & (ln == -math.inf)
        lp[both_inf] = ln[both_inf] = 0.0
        total += sigmoid(lp - ln)  # sigmoid of the log-odds: exact 0.5 under symmetry
    scores = np.where(blacklisted, 0.0, np.nan)
    scores[rows] = np.minimum(1.0, np.maximum(0.0, total / len(sentences)))
    return score_row(scores, abstain=~(scored | blacklisted))


# ---------------------------------------------------------------------------
# LR: logistic regression over engineered features
# ---------------------------------------------------------------------------


def train_feature_lr(
    values: np.ndarray,
    labels: np.ndarray,
    lam: float = 1e-3,
    tol: float = 1e-6,
    max_iters: int = 10000,
) -> tuple[Standardizer, LogRegFit]:
    """A single pair classifier over standardized 17-feature vectors: the
    standardizer and the fit over its outputs.

    ``values`` is a (motions x CoPAs x features) block of a
    ``FeatureTable`` (a whole table or a fold's training rows) and
    ``labels`` the matching (motions x CoPAs) 0/1 block; every pair is
    one training row, motion-major."""
    if len(values) == 0:
        raise DimensionMismatch("no training motions left")
    X = np.asarray(values, dtype=float).reshape(-1, N_FEATURES)
    scaler = standardize(X)
    fit = logreg_fit(scaler.transform(X), np.asarray(labels, dtype=float).reshape(-1),
                     lam=lam, tol=tol, max_iters=max_iters)
    return scaler, fit


def predict_feature_lr(model: tuple[Standardizer, LogRegFit], rows: np.ndarray) -> np.ndarray:
    """Sigmoid score per CoPA from one motion's (CoPAs x features) rows,
    standardized as one block, one 1-D ``weights @ x`` per row (a 2-D
    product need not round like it); this method never abstains."""
    scaler, (weights, bias) = model
    return score_row(sigmoid(np.array([weights @ x for x in scaler.transform(rows)]) + bias))
