"""Matching methods: per-CoPA scorers over motions, plus their ensemble.

Five methods are implemented: action statistics (BA-k), nearest
neighbours over topic similarity (KNN), logistic regression over topic
embeddings (W2V), Naive Bayes over retrieved topic sentences (NB), and
logistic regression over the engineered 17-feature vectors (LR).  The
ensemble takes, per CoPA, the maximum score any method produced.

Scores live in [0, 1]; ``None`` means the method abstains for that pair
(NaN once stored in a ``ScoreMatrix``) and never passes any decision
threshold.  All training is deterministic: zero-initialized optimizers,
no sampling, ordered iteration.
"""

from __future__ import annotations

import copy
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .features import N_FEATURES, Standardizer, standardize
from .kb import Dataset, LabelCounts, Motion
from .textsim import DomainError, SimilarityContext, SimilarityKind, read_lines, term_similarity

Score = float | None


class DimensionMismatch(Exception):
    """Training inputs disagree in length or width."""


# ---------------------------------------------------------------------------
# Score matrices
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ScoreMatrix:
    """Scores of one method for every (motion, CoPA) pair.

    ``scores`` is a dense (motions x CoPAs) float array in the order of
    ``motion_ids`` and ``copa_ids``.  NaN means the method abstained;
    every other entry lies within [0, 1].
    """

    method: str
    motion_ids: tuple[str, ...]
    copa_ids: tuple[str, ...]
    scores: np.ndarray | None = None

    def __post_init__(self):
        self._rows = {mid: i for i, mid in enumerate(self.motion_ids)}
        self._cols = {cid: j for j, cid in enumerate(self.copa_ids)}
        shape = (len(self.motion_ids), len(self.copa_ids))
        if self.scores is None:
            self.scores = np.full(shape, np.nan)
            return
        self.scores = np.array(self.scores, dtype=float)
        if self.scores.shape != shape:
            raise ValueError(f"score array of shape {self.scores.shape}, expected {shape}")
        if not np.all(np.isnan(self.scores) | ((self.scores >= 0.0) & (self.scores <= 1.0))):
            raise ValueError("scores outside [0, 1]")

    def get(self, motion_id: str, copa_id: str) -> Score:
        value = float(self.scores[self._rows[motion_id], self._cols[copa_id]])
        return None if math.isnan(value) else value

    def put(self, motion_id: str, copa_id: str, score: Score) -> None:
        self.scores[self._rows[motion_id], self._cols[copa_id]] = matrix_entry(score, copa_id)


def matrix_entry(score: Score, copa_id: str) -> float:
    """A scorer's value as a matrix entry: NaN for an abstention (None).
    Any other value must lie within [0, 1]; NaN and +-inf are errors, never
    abstentions."""
    if score is None:
        return math.nan
    score = float(score)
    if not (0.0 <= score <= 1.0):
        raise ValueError(f"score {score} for {copa_id!r} outside [0, 1]")
    return score


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
    return ScoreMatrix("ensemble", first.motion_ids, first.copa_ids, combined)


# ---------------------------------------------------------------------------
# Logistic regression core
# ---------------------------------------------------------------------------


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def logreg_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, lam: float) -> float:
    """Mean negative log-likelihood plus (lam/2)*||w||^2; bias excluded
    from the penalty."""
    z = X @ w + b
    signs = 2.0 * y - 1.0
    nll = float(np.logaddexp(0.0, -signs * z).mean())
    return nll + 0.5 * lam * float(w @ w)


def _logreg_gradient(X, y, w, b, lam):
    n = len(y)
    residual = (sigmoid(X @ w + b) - y) / n
    grad_w = X.T @ residual + lam * w
    grad_b = float(residual.sum())
    return grad_w, grad_b


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

    Each step solves ``H dir = -g`` on the (d+1)-dimensional system of
    weights and bias (bias last), with ``H = Aᵀ diag(p(1-p)/n) A`` for
    ``A = [X 1]`` plus ``lam`` on the weight diagonal, then backtracks
    until ``f(θ + t·dir) <= f(θ) + 1e-4·t·gᵀdir`` (Armijo).  Where the
    solve fails or its direction does not descend (a singular H, as with
    duplicate columns and ``lam = 0``), the step falls back to ``-g``.

    Stops when the gradient norm drops below ``tol``, when no step
    descends at float precision, or after ``max_iters`` steps.  Returns
    (weights, bias) as a ``LogRegFit``; its ``converged`` is False only
    when one of the last two stops ended the fit above ``tol``, as on
    separable data with ``lam = 0``, whose optimum lies at infinity.

    ``on_step(iteration, objective)`` is called after every accepted
    step; the accepted objective values never increase.
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

    w = np.zeros(d)
    b = 0.0
    value = logreg_objective(X, y, w, b, lam)
    n_iters = 0
    grad_sq = math.inf
    for iteration in range(max_iters + 1):
        grad_w, grad_b = _logreg_gradient(X, y, w, b, lam)
        grad = np.append(grad_w, grad_b)
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        # the pass after the last step only measures the final gradient
        if math.sqrt(grad_sq) < tol or iteration == max_iters:
            break
        p = sigmoid(X @ w + b)
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
            cand_w = w + step * direction[:d]
            cand_b = b + step * float(direction[d])
            cand_value = logreg_objective(X, y, cand_w, cand_b, lam)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no descent direction left at float precision
        assert cand_value <= value, "line search accepted an ascent step"
        w, b, value = cand_w, cand_b, cand_value
        n_iters += 1
        if on_step is not None:
            on_step(iteration, value)
    return LogRegFit(w, b, n_iters, math.sqrt(grad_sq), tol)


@dataclass
class LogRegModel:
    """A trained logistic regression scorer (optionally standardizing its
    inputs first).  ``n_iters``, ``converged`` and ``grad_norm`` say how
    its fit ended (None when not recorded)."""

    weights: np.ndarray
    bias: float
    standardizer: Standardizer | None = None
    n_iters: int | None = None
    converged: bool | None = None
    grad_norm: float | None = None

    @classmethod
    def from_fit(cls, fit: LogRegFit, standardizer: Standardizer | None) -> "LogRegModel":
        weights, bias = fit
        return cls(weights=weights, bias=bias, standardizer=standardizer,
                   n_iters=fit.n_iters, converged=fit.converged, grad_norm=fit.grad_norm)

    def score(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.standardizer is not None:
            x = self.standardizer.transform(x)
        return float(sigmoid(float(self.weights @ x) + self.bias))


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


def predict_ba(model: BAModel, motion: Motion) -> dict[str, Score]:
    """p(c, action) per CoPA; abstains where fewer than k training
    motions back the estimate (and everywhere for unseen actions)."""
    total, support = model.counts.with_action(motion.action)  # support >= k >= 1 means total > 0
    return {cid: n / total if n >= model.k else None
            for cid, n in zip(model.counts.copa_ids, support.tolist())}


# ---------------------------------------------------------------------------
# KNN over topic similarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KNNCandidates:
    """KNN's training motions: those of ``ds`` not on ``exclude_topic``.
    The fold without motion h excludes h's topic, and with it h."""

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
) -> dict[str, Score]:
    """Fraction of the query topic's nearest training motions that belong
    to each CoPA.

    Candidates are training motions whose topic embedding similarity exceeds
    ``threshold``; with fewer than ``min_neighbors`` of them the method
    abstains entirely, otherwise the best ``top`` (ties broken by motion
    id) vote.  ``exclude_topic`` drops same-topic training motions, used
    by leave-one-out evaluation.
    """
    skip = exclude_topic.lower() if exclude_topic is not None else None
    candidates: list[tuple[float, Motion]] = []
    for m in ds_train.motions:
        if m.id == motion.id:
            continue
        if skip is not None and m.topic.lower() == skip:
            continue
        sim = term_similarity(SimilarityKind.EMBEDDING, motion.topic, m.topic, ctx)
        if sim is not None and sim > threshold:
            candidates.append((sim, m))
    if len(candidates) < min_neighbors:
        return {cid: None for cid in ds_train.copa_ids}
    candidates.sort(key=lambda pair: (-pair[0], pair[1].id))
    neighbours = [m for _, m in candidates[:top]]
    scores: dict[str, Score] = {}
    for c in ds_train.copas:
        inside = sum(1 for m in neighbours if m.id in c.motion_ids)
        scores[c.id] = inside / len(neighbours)
    return scores


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
        if ctx.embeddings is None:
            raise ValueError("w2v training requires an embedding store")
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


@dataclass
class W2VClassifier:
    """A logistic regression per CoPA (none when no training motion has
    an embedding) and the label counts of the action blacklist."""

    per_copa: dict[str, LogRegModel]
    counts: LabelCounts


def train_w2v_lr(
    table: W2VTable,
    lam: float = 1e-3,
    tol: float = 1e-6,
    max_iters: int = 10000,
) -> W2VClassifier:
    """One-vs-rest logistic regression per CoPA over the table's unit
    topic vectors."""
    per_copa: dict[str, LogRegModel] = {}
    if len(table.X):
        for cid, y in zip(table.counts.copa_ids, table.labels.T):
            fit = logreg_fit(table.X, y, lam=lam, tol=tol, max_iters=max_iters)
            per_copa[cid] = LogRegModel.from_fit(fit, None)
    return W2VClassifier(per_copa=per_copa, counts=table.counts)


def predict_w2v(clf: W2VClassifier, motion: Motion, ctx: SimilarityContext) -> dict[str, Score]:
    """Each CoPA's model score of the topic vector; abstains when the
    topic has no embedding, 0 where the blacklist vetoes the action."""
    copa_ids = clf.counts.copa_ids
    x = ctx.term_vector(SimilarityKind.EMBEDDING, motion.topic)
    if x is None:
        return {cid: None for cid in copa_ids}
    scores: dict[str, Score] = {}
    for cid, vetoed in zip(copa_ids, clf.counts.blacklisted(motion.action)):
        model = clf.per_copa.get(cid)
        if model is None:
            scores[cid] = None
        elif vetoed:
            scores[cid] = 0.0
        else:
            scores[cid] = model.score(x)
    return scores


# ---------------------------------------------------------------------------
# NB: Naive Bayes over retrieved topic sentences
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"\w+")


def tokenize(sentence: str) -> list[str]:
    return _WORD_RE.findall(sentence.lower())


class TopicSentenceCorpus:
    """topic -> sentences mentioning that topic, loaded from JSON lines
    of {"topic": ..., "sentence": ...}.  Topics are case-insensitive;
    spellings that differ only in case share one sentence list."""

    def __init__(self, sentences: dict[str, list[str]]):
        self._sentences: dict[str, list[str]] = {}
        for topic, sents in sentences.items():
            for s in sents:
                if not s:
                    raise DomainError(f"empty sentence for topic {topic!r}")
            self._sentences.setdefault(topic.strip().lower(), []).extend(sents)

    def get(self, topic: str) -> list[str]:
        return self._sentences.get(topic.strip().lower(), [])

    @classmethod
    def from_jsonl(cls, path) -> "TopicSentenceCorpus":
        """Read JSON lines; a malformed line, or a record that is not an
        object with a string ``topic`` and a string ``sentence``, raises
        DomainError naming the file and line."""
        table: dict[str, list[str]] = {}
        for lineno, line in read_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
                raise DomainError(f"{path}:{lineno}: bad JSON line ({exc})") from None
            if not (isinstance(rec, dict) and isinstance(rec.get("topic"), str)
                    and isinstance(rec.get("sentence"), str)):
                raise DomainError(
                    f"{path}:{lineno}: record needs a string 'topic' and a string 'sentence'"
                )
            table.setdefault(rec["topic"], []).append(rec["sentence"])
        return cls(table)


@dataclass
class NBModel:
    """One CoPA's Naive Bayes log tables: the log-priors of its positive
    and negative sentence classes and their Laplace-smoothed unigram
    log-probabilities, over the training vocabulary or the part of it a
    query needs."""

    alpha: float
    log_prior_pos: float
    log_prior_neg: float
    log_prob_pos: dict[str, float]
    log_prob_neg: dict[str, float]

    def sentence_posterior(self, sentence: str) -> float:
        """P(positive | sentence); words outside the tables are skipped."""
        lp = self.log_prior_pos
        ln = self.log_prior_neg
        for w in tokenize(sentence):
            if w in self.log_prob_pos:
                lp += self.log_prob_pos[w]
                ln += self.log_prob_neg[w]
        if lp == -math.inf and ln == -math.inf:
            return 0.5
        # sigmoid of the log-odds: exact 0.5 under perfect symmetry
        return float(sigmoid(lp - ln))


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
        """The classifier of ``ds.without_motion(motion_id)`` for the ``ds``
        that ``train_nb`` built this one from: copies of the tables minus
        that motion's counts."""
        fold = replace(self, totals=self.totals.copy(), positive=self.positive.copy(),
                       positive_sentences=self.positive_sentences.copy(),
                       counts=self.counts.without_motion(motion_id))
        fold._add(motion_id, -1)
        return fold

    def copa_models(self, words) -> list[NBModel]:
        """Each CoPA's model, in ``copa_ids`` order, with log-probabilities
        for those of ``words`` that are in the vocabulary."""
        known = [w for w in words if (j := self.vocab.get(w)) is not None and self.totals[j] > 0]
        cols = [self.vocab[w] for w in known]
        totals = self.totals[cols].tolist()
        n_vocab = int(np.count_nonzero(self.totals))
        n_words = int(self.totals.sum())
        n, alpha = self.sentences, self.alpha
        models = []
        for pos_counts, pos_words, pos_sentences in zip(
            self.positive[:, cols].tolist(), self.positive.sum(axis=1).tolist(),
            self.positive_sentences.tolist(),
        ):
            denom_pos = pos_words + alpha * n_vocab
            denom_neg = (n_words - pos_words) + alpha * n_vocab
            models.append(NBModel(
                alpha=alpha,
                log_prior_pos=_log_or_neg_inf(pos_sentences / n if n else 0.0),
                log_prior_neg=_log_or_neg_inf((n - pos_sentences) / n if n else 0.0),
                log_prob_pos={w: math.log((k + alpha) / denom_pos)
                              for w, k in zip(known, pos_counts)},
                log_prob_neg={w: math.log((t - k + alpha) / denom_neg)
                              for w, k, t in zip(known, pos_counts, totals)},
            ))
        return models

    @property
    def per_copa(self) -> dict[str, NBModel]:
        """Each CoPA's model over the whole vocabulary."""
        return dict(zip(self.counts.copa_ids, self.copa_models(self.vocab)))


def _log_or_neg_inf(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def train_nb(ds: Dataset, corpus: TopicSentenceCorpus | None, alpha: float = 1.0) -> NBClassifier:
    """The count tables of ``ds``, each motion's sentences tokenized once."""
    if corpus is None:
        raise ValueError("nb training requires a sentence corpus")
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


def predict_nb(clf: NBClassifier, motion: Motion, corpus: TopicSentenceCorpus) -> dict[str, Score]:
    """Mean per-sentence posterior over the topic's sentences; abstains
    when the corpus has none, 0 where the blacklist vetoes the action."""
    sentences = corpus.get(motion.topic)
    if not sentences:
        return {cid: None for cid in clf.counts.copa_ids}
    blocked = clf.counts.blacklisted(motion.action)
    models = clf.copa_models({w for s in sentences for w in tokenize(s)})
    scores: dict[str, Score] = {}
    for cid, model, vetoed in zip(clf.counts.copa_ids, models, blocked):
        if vetoed:
            scores[cid] = 0.0
            continue
        posterior = sum(model.sentence_posterior(s) for s in sentences) / len(sentences)
        scores[cid] = min(1.0, max(0.0, posterior))
    return scores


# ---------------------------------------------------------------------------
# LR: logistic regression over engineered features
# ---------------------------------------------------------------------------


def train_feature_lr(
    values: np.ndarray,
    labels: np.ndarray,
    lam: float = 1e-3,
    tol: float = 1e-6,
    max_iters: int = 10000,
) -> LogRegModel:
    """A single pair classifier over standardized 17-feature vectors.

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
    return LogRegModel.from_fit(fit, scaler)


def predict_feature_lr(model: LogRegModel, rows: np.ndarray, copa_ids) -> dict[str, Score]:
    """Sigmoid score per CoPA from one motion's (CoPAs x features) rows,
    in ``copa_ids`` order; this method never abstains."""
    return {cid: model.score(x) for cid, x in zip(copa_ids, rows, strict=True)}
