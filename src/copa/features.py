"""The 17-dimensional (motion, CoPA) feature vector and its standardizer.

Twelve set-similarity features (four text-set pairs crossed with three
similarity measures, pair-major order), one average-idf feature, and four
count features over the label relation.  Every feature is total: ratios
with a zero denominator and similarities with no representable pair are 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .kb import Action, CoPA, Dataset, LabelCounts, Motion
from .textsim import (
    MAX_SET_PAIRS,
    DomainError,
    SimilarityContext,
    SimilarityKind,
    avg_idf_in_article,
    mean_similarity,
    name_key,
    similarity_block,
)

_PAIRS = ("mt_cm", "mt_ct", "mw_cm", "mw_ct")
_KINDS = (
    ("embed", SimilarityKind.EMBEDDING),
    ("embed_alt", SimilarityKind.EMBEDDING_ALT),
    ("tfidf", SimilarityKind.TFIDF),
)

#: Fixed feature order, the columns of every feature vector and table.
FEATURE_NAMES: tuple[str, ...] = tuple(
    f"sim_{pair}_{kind}" for pair in _PAIRS for kind, _ in _KINDS
) + (
    "avg_idf_manual_titles_in_topic_article",
    "action_share_of_all_motions",
    "action_copa_jaccard",
    "copa_share_of_action_motions",
    "action_share_of_copa_motions",
)

N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class MotionTextSets:
    """m_t: {action surface form, topic}; m_w: up to ten enriched titles."""

    m_t: frozenset[str]
    m_w: tuple[str, ...]


@dataclass(frozen=True)
class CopaTextSets:
    """c_m: the manual title list; c_t: member-motion topics."""

    c_m: tuple[str, ...]
    c_t: frozenset[str]


def motion_text_sets(motion: Motion, actions: dict[str, Action],
                     ctx: SimilarityContext) -> MotionTextSets:
    m_t = frozenset({actions[motion.action].surface, motion.topic})
    return MotionTextSets(m_t=m_t, m_w=ctx.related_titles(motion.topic))


def copa_text_sets(copa: CoPA, ds: Dataset) -> CopaTextSets:
    c_t = frozenset(ds.motion(mid).topic for mid in copa.motion_ids)
    return CopaTextSets(c_m=copa.manual_titles, c_t=c_t)


#: positions of the six similarity features that read c_t, m_t's three
#: kinds and then m_w's
_CT_FEATURES = np.array(
    [FEATURE_NAMES.index(f"sim_{pair}_{kind}") for pair in ("mt_ct", "mw_ct")
     for kind, _ in _KINDS]
)
#: positions of the twelve similarity features and of the four count features
_SIM_FEATURES = np.arange(len(_PAIRS) * len(_KINDS))
_IDF_FEATURE = FEATURE_NAMES.index("avg_idf_manual_titles_in_topic_article")
_COUNT_FEATURES = np.arange(N_FEATURES - 4, N_FEATURES)


def count_ratios(n_all, n_action, n_copa, n_inter) -> np.ndarray:
    """The four count features from the sizes |M_*|, |M_a|, |M_c| and
    |M_a ∩ M_c|; a ratio with a zero denominator is 0.  The sizes are
    integers or integer arrays that broadcast; the ratios stack on a new
    last axis."""
    n_all, n_action, n_copa, n_inter = np.broadcast_arrays(n_all, n_action, n_copa, n_inter)
    num = np.stack([n_action, n_inter, n_inter, n_inter], axis=-1)
    den = np.stack([n_all, n_action + n_copa - n_inter, n_action, n_copa], axis=-1)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def _count_values(counts: LabelCounts) -> np.ndarray:
    """The four count features of every motion of ``counts`` against
    every CoPA, over the motions it counts."""
    return count_ratios(counts.n_motions, counts.action_size[counts.action][:, None],
                        counts.copa_size[None, :], counts.copa_action.T[counts.action])


@dataclass(frozen=True)
class _SimilaritySums:
    """Exact sums of present pair similarities, and counts of present
    pairs, over motion-side and CoPA-side text sets: ``sums``/``counts``
    per (motion, CoPA) pair in feature order (motions x CoPAs x 12), and
    ``term_sums``/``term_counts`` of each motion's m_t and m_w against
    each single CoPA-side term (motions x terms x 6, in the c_t features'
    order).  ``ct`` is the (CoPAs x terms) incidence of the c_t sets and
    ``topic_columns`` the columns of the terms under each ``name_key``."""

    sums: np.ndarray
    counts: np.ndarray
    term_sums: np.ndarray
    term_counts: np.ndarray
    ct: np.ndarray
    topic_columns: dict[str, list[int]]


def _incidence(term_lists, index: dict[str, int]) -> np.ndarray:
    # multiplicities: c_m is a tuple that may repeat a title
    out = np.zeros((len(term_lists), len(index)))
    for i, terms in enumerate(term_lists):
        for term in terms:
            out[i, index[term]] += 1.0
    return out


def _similarity_sums(motions, ds: Dataset, ctx: SimilarityContext) -> _SimilaritySums:
    """The twelve similarity features of ``motions`` against every CoPA of
    ``ds`` as exact sums: per kind one ``similarity_block`` of all
    motion-side terms against all CoPA-side terms, then A @ sims @ B.T
    over the incidence matrices A and B of the text sets (with
    multiplicity), and the same over the masks of present pairs.  Every
    sum is a multiple of SIMILARITY_STEP of at most MAX_SET_PAIRS terms,
    so it is exact in any summation order: a set similarity does not
    depend on the order of either set, nor on the block its pairs were
    cut from.  A text-set pair of more than MAX_SET_PAIRS term pairs
    raises DomainError naming the CoPA."""
    m_sets = [motion_text_sets(m, ds.actions, ctx) for m in motions]
    c_sets = [copa_text_sets(c, ds) for c in ds.copas]
    rows = sorted({t for s in m_sets for t in (*s.m_t, *s.m_w)})
    cols = sorted({t for s in c_sets for t in (*s.c_m, *s.c_t)})
    row_index = {t: i for i, t in enumerate(rows)}
    term_index = {t: i for i, t in enumerate(cols)}
    motion_side = {
        "mt": _incidence([s.m_t for s in m_sets], row_index),
        "mw": _incidence([s.m_w for s in m_sets], row_index),
    }
    copa_side = {
        "cm": _incidence([s.c_m for s in c_sets], term_index),
        "ct": _incidence([s.c_t for s in c_sets], term_index),
    }
    for m_name, a in motion_side.items():
        for c_name, b in copa_side.items():
            pairs = np.outer(a.sum(axis=1), b.sum(axis=1))
            if (pairs > MAX_SET_PAIRS).any():
                i, j = np.argwhere(pairs > MAX_SET_PAIRS)[0]
                raise DomainError(
                    f"CoPA {ds.copas[j].id!r}: {int(pairs[i, j])} term pairs of "
                    f"{m_name} x {c_name} against motion {motions[i].id!r} exceed the "
                    f"exact-sum bound of {MAX_SET_PAIRS}"
                )

    shape = (len(motions), len(ds.copas), len(_SIM_FEATURES))
    sums, counts = np.zeros(shape), np.zeros(shape)
    term_shape = (len(motions), len(cols), len(_CT_FEATURES))
    term_sums, term_counts = np.zeros(term_shape), np.zeros(term_shape)
    for k, (kind_name, kind) in enumerate(_KINDS):
        sims, present = similarity_block(kind, rows, cols, ctx)
        for s, (m_name, a) in enumerate(motion_side.items()):
            row_sums, row_counts = a @ sims, a @ present
            term_sums[..., s * len(_KINDS) + k] = row_sums
            term_counts[..., s * len(_KINDS) + k] = row_counts
            for c_name, b in copa_side.items():
                f = FEATURE_NAMES.index(f"sim_{m_name}_{c_name}_{kind_name}")
                sums[..., f] = row_sums @ b.T
                counts[..., f] = row_counts @ b.T
    topic_columns: dict[str, list[int]] = {}
    for column, term in enumerate(cols):
        topic_columns.setdefault(name_key(term), []).append(column)
    return _SimilaritySums(sums, counts, term_sums, term_counts, copa_side["ct"] > 0, topic_columns)


def motion_features(motion: Motion, ds: Dataset, ctx: SimilarityContext) -> np.ndarray:
    """(CoPAs x features) array: the feature vector of the motion against
    every CoPA of ``ds`` in order, with no motion held out; for a query
    with a dataset motion's action and topic, that motion's rows of the
    ``FeatureTable``, bit for bit."""
    values = np.empty((len(ds.copas), N_FEATURES))
    sim = _similarity_sums([motion], ds, ctx)
    values[:, _SIM_FEATURES] = mean_similarity(sim.sums[0], sim.counts[0])
    values[:, _IDF_FEATURE] = [avg_idf_in_article(c.manual_titles, motion.topic, ctx.wiki, ctx.tfidf)
                               for c in ds.copas]
    counts = ds.label_counts
    n_action, n_inter = counts.with_action(motion.action)
    values[:, _COUNT_FEATURES] = count_ratios(counts.n_motions, n_action, counts.copa_size, n_inter)
    return values


class FeatureTable:
    """The feature vector of every (motion, CoPA) pair of a dataset, built
    once, from which each leave-one-out fold is derived.

    A set similarity is the mean of ``similarity_block`` over the present
    term pairs of its two text sets, with multiplicity, and 0 when no pair
    is present.  The twelve similarity features come from
    ``_similarity_sums``: exact sums and counts of pair similarities,
    divided once.  Holding out motion h changes only two things.  The c_t
    of a CoPA loses h's topic under every spelling with its ``name_key``
    (and h), which matters only to the CoPAs whose c_t holds such a topic:
    a fold subtracts those term columns from their c_t sums and counts,
    which is exact.  The count universes lose h: a fold reads the four
    count features from the dataset's ``LabelCounts`` minus h.
    Everything else is reused, so the fold ``without_motion(h)`` holds
    every pair's features computed afresh with h held out, bit for bit
    (the tests hold it to a per-pair computation in ``tests/oracles.py``):
    h's row dropped from ``values`` and ``labels``, as the training rows,
    and kept apart as the rows ``query_rows`` scores h from.  The table as
    built trains on every row and scores a new query from
    ``motion_features``.

    ``workspace`` is the ``FitWorkspace`` of the feature LR's fits: the
    table and every fold of it share it, so each fold's fit writes into
    the arrays the last one used, and it is freed with the table.
    """

    def __init__(self, ds: Dataset, ctx: SimilarityContext):
        self._ds = ds
        self._ctx = ctx
        self.holdout: str | None = None
        self.workspace = FitWorkspace()
        self.counts = ds.label_counts
        self.labels = self.counts.member.astype(float)
        sim = _similarity_sums(ds.motions, ds, ctx)
        self._sim = sim
        self.values = np.empty((len(ds.motions), len(ds.copas), N_FEATURES))
        self.values[..., _SIM_FEATURES] = mean_similarity(sim.sums, sim.counts)
        self.values[..., _IDF_FEATURE] = np.array(
            [[avg_idf_in_article(c.manual_titles, m.topic, ctx.wiki, ctx.tfidf) for c in ds.copas]
             for m in ds.motions]
        ).reshape(len(ds.motions), len(ds.copas))
        self.values[..., _COUNT_FEATURES] = _count_values(self.counts)

    def without_motion(self, motion_id: str) -> "FeatureTable":
        """The leave-one-out fold without ``motion_id``."""
        values = self.values.copy()
        sim = self._sim
        key = name_key(self._ds.motion(motion_id).topic)
        columns = np.array(sim.topic_columns.get(key, []), dtype=np.intp)
        for j in np.flatnonzero(sim.ct[:, columns].any(axis=1)):
            held = columns[sim.ct[j, columns]]
            values[:, j, _CT_FEATURES] = mean_similarity(
                sim.sums[:, j, _CT_FEATURES] - sim.term_sums[:, held].sum(axis=1),
                sim.counts[:, j, _CT_FEATURES] - sim.term_counts[:, held].sum(axis=1),
            )
        values[..., _COUNT_FEATURES] = _count_values(self.counts.without_motion(motion_id))
        h = self.counts.rows[motion_id]
        keep = np.arange(len(values)) != h
        fold = copy.copy(self)
        fold.values, fold.labels = values[keep], self.labels[keep]
        fold.holdout, fold._held_rows = motion_id, values[h]
        return fold

    def query_rows(self, motion: Motion) -> np.ndarray:
        """(CoPAs x features) rows of ``motion``: in a fold, the held-out
        motion's own; otherwise ``motion_features`` of a new query."""
        if motion.id == self.holdout:
            return self._held_rows
        return motion_features(motion, self._ds, self._ctx)


class FitWorkspace:
    """Scratch arrays for the logistic fits of one method's inputs.

    ``FeatureTable`` and ``classifiers.W2VTable`` each own one, which
    every fold of them shares and which is freed with them when the
    command ends.  ``array(name, shape)`` is the one array kept under
    ``name``: a fit of the shape the last fit had writes into the arrays
    that fit used, with ``out=``, instead of allocating its own.  So
    nothing a fit returns may be, or view, one of these arrays; the next
    fit overwrites them.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The float array kept under ``name``: the last one, with what was
        last written to it, when it has ``shape``; otherwise a new,
        uninitialized one in its place."""
        kept = self._arrays.get(name)
        if kept is None or kept.shape != shape:
            kept = np.empty(shape)
            self._arrays[name] = kept
        return kept


@dataclass(frozen=True)
class Standardizer:
    """Per-feature (x - mean) / stddev transform with population stddev.

    Features that are constant on the training set (stddev below 1e-9)
    are mapped to 0 for every input, so they contribute no gradient.
    """

    mean: np.ndarray
    scale: np.ndarray  # 1/stddev, or 0 for constant features

    def transform(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) * scale, written into ``out`` when given (a float
        array of x's shape) and returned."""
        shifted = np.subtract(np.asarray(x, dtype=float), self.mean, out=out)
        return np.multiply(shifted, self.scale, out=shifted)


STDDEV_FLOOR = 1e-9


def standardize(train_vectors) -> Standardizer:
    """Fit a Standardizer on training feature vectors (an array or a
    sequence of vectors)."""
    # C order, as stacking the rows gives: a column's mean and stddev sum
    # in another order over a block of another layout
    matrix = np.ascontiguousarray(train_vectors, dtype=float)
    if matrix.size == 0:
        raise DomainError("standardize() requires at least one vector")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    scale = np.where(std > STDDEV_FLOOR, 1.0 / np.where(std > STDDEV_FLOOR, std, 1.0), 0.0)
    return Standardizer(mean=mean, scale=scale)
