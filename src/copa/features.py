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

from .kb import ActionRegistry, CoPA, Dataset, LabelCounts, Motion
from .textsim import (
    MAX_SET_PAIRS,
    DomainError,
    SimilarityContext,
    SimilarityKind,
    avg_idf_in_article,
    mean_similarity,
    set_similarity,
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


class EmptyTrainingSet(Exception):
    """standardize() needs at least one vector."""


@dataclass(frozen=True)
class MotionTextSets:
    """m_t: {action surface form, topic}; m_w: up to ten enriched titles."""

    m_t: frozenset[str]
    m_w: tuple[str, ...]


@dataclass(frozen=True)
class CopaTextSets:
    """c_m: the manual title list; c_t: member-motion topics (minus the
    held-out motion's topic in leave-one-out mode)."""

    c_m: tuple[str, ...]
    c_t: frozenset[str]


def motion_text_sets(motion: Motion, actions: ActionRegistry, ctx: SimilarityContext) -> MotionTextSets:
    m_t = frozenset({actions.surface(motion.action), motion.topic})
    return MotionTextSets(m_t=m_t, m_w=ctx.related_titles(motion.topic))


def copa_text_sets(copa: CoPA, ds: Dataset, loo_holdout: str | None = None) -> CopaTextSets:
    c_t = {ds.motion(mid).topic for mid in copa.motion_ids}
    if loo_holdout is not None:  # the held-out motion's topic goes, and with it the motion
        c_t.discard(ds.motion(loo_holdout).topic)
    return CopaTextSets(c_m=copa.manual_titles, c_t=frozenset(c_t))


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


def _avg_idf(copa: CoPA, topic: str, ctx: SimilarityContext) -> float:
    if ctx.tfidf is None:
        return 0.0
    return avg_idf_in_article(copa.manual_titles, topic, ctx.wiki, ctx.tfidf)


def compute_features(
    motion: Motion,
    copa: CoPA,
    ds: Dataset,
    ctx: SimilarityContext,
    loo_holdout: str | None = None,
) -> np.ndarray:
    """Feature vector for one (motion, CoPA) pair, ordered as
    FEATURE_NAMES: the per-pair reference of ``FeatureTable``.

    When ``loo_holdout`` names a motion, that motion is excluded from the
    count universes (M_a, M_c, M_*) and its topic from c_t, so training
    folds never see the held-out motion.
    """
    m_sets = motion_text_sets(motion, ds.actions, ctx)
    c_sets = copa_text_sets(copa, ds, loo_holdout)

    text_pairs = {
        "mt_cm": (m_sets.m_t, c_sets.c_m),
        "mt_ct": (m_sets.m_t, c_sets.c_t),
        "mw_cm": (m_sets.m_w, c_sets.c_m),
        "mw_ct": (m_sets.m_w, c_sets.c_t),
    }
    values = [
        set_similarity(kind, *text_pairs[pair], ctx) for pair in _PAIRS for _, kind in _KINDS
    ]
    values.append(_avg_idf(copa, motion.topic, ctx))

    universe = [m for m in ds.motions if m.id != loo_holdout]
    m_all = {m.id for m in universe}
    m_a = {m.id for m in universe if m.action == motion.action}
    m_c = copa.motion_ids & m_all
    values.extend(count_ratios(len(m_all), len(m_a), len(m_c), len(m_a & m_c)))

    return np.array(values, dtype=float)


@dataclass(frozen=True)
class _SimilaritySums:
    """Exact sums of present pair similarities, and counts of present
    pairs, over motion-side and CoPA-side text sets: ``sums``/``counts``
    per (motion, CoPA) pair in feature order (motions x CoPAs x 12), and
    ``term_sums``/``term_counts`` of each motion's m_t and m_w against
    each single CoPA-side term (motions x terms x 6, in the c_t features'
    order).  ``ct`` is the (CoPAs x terms) incidence of the c_t sets and
    ``term_index`` the terms' columns."""

    sums: np.ndarray
    counts: np.ndarray
    term_sums: np.ndarray
    term_counts: np.ndarray
    ct: np.ndarray
    term_index: dict[str, int]


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
    over the incidence matrices A and B of the text sets.  Every sum is a
    multiple of SIMILARITY_STEP of at most MAX_SET_PAIRS terms, so it is
    exact in any summation order and equals ``set_similarity``'s."""
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
    return _SimilaritySums(sums, counts, term_sums, term_counts, copa_side["ct"] > 0, term_index)


def motion_features(motion: Motion, ds: Dataset, ctx: SimilarityContext) -> np.ndarray:
    """(CoPAs x features) array: ``compute_features`` of the motion against
    every CoPA of ``ds`` in order, with no holdout, bit for bit."""
    values = np.empty((len(ds.copas), N_FEATURES))
    sim = _similarity_sums([motion], ds, ctx)
    values[:, _SIM_FEATURES] = mean_similarity(sim.sums[0], sim.counts[0])
    values[:, _IDF_FEATURE] = [_avg_idf(c, motion.topic, ctx) for c in ds.copas]
    counts = ds.label_counts
    n_action, n_inter = counts.with_action(motion.action)
    values[:, _COUNT_FEATURES] = count_ratios(counts.n_motions, n_action, counts.copa_size, n_inter)
    return values


class FeatureTable:
    """``compute_features`` of every (motion, CoPA) pair of a dataset,
    built once, from which each leave-one-out fold is derived.

    The twelve similarity features come from ``_similarity_sums``: exact
    sums and counts of pair similarities, divided once.  Holding out
    motion h changes only two things.  The c_t of a CoPA loses h's topic
    (and h), which matters only to the CoPAs whose c_t holds that topic:
    a fold subtracts the topic's term column from their c_t sums and
    counts, which is exact.  The count universes lose h: a fold reads the
    four count features from the dataset's ``LabelCounts`` minus h.
    Everything else is reused, so the fold ``without_motion(h)`` holds
    ``compute_features(..., loo_holdout=h)`` of every pair, bit for bit:
    h's row dropped from ``values`` and ``labels``, as the training rows,
    and kept apart as the rows ``query_rows`` scores h from.  The table as
    built trains on every row and scores a new query from
    ``motion_features``.
    """

    def __init__(self, ds: Dataset, ctx: SimilarityContext):
        self._ds = ds
        self._ctx = ctx
        self.holdout: str | None = None
        self.counts = ds.label_counts
        self.labels = self.counts.member.astype(float)
        sim = _similarity_sums(ds.motions, ds, ctx)
        self._sim = sim
        self.values = np.empty((len(ds.motions), len(ds.copas), N_FEATURES))
        self.values[..., _SIM_FEATURES] = mean_similarity(sim.sums, sim.counts)
        self.values[..., _IDF_FEATURE] = [
            [_avg_idf(c, m.topic, ctx) for c in ds.copas] for m in ds.motions
        ]
        self.values[..., _COUNT_FEATURES] = _count_values(self.counts)

    def without_motion(self, motion_id: str) -> "FeatureTable":
        """The leave-one-out fold without ``motion_id``."""
        values = self.values.copy()
        sim = self._sim
        t = sim.term_index.get(self._ds.motion(motion_id).topic)
        if t is not None:
            for j in np.flatnonzero(sim.ct[:, t]):
                values[:, j, _CT_FEATURES] = mean_similarity(
                    sim.sums[:, j, _CT_FEATURES] - sim.term_sums[:, t],
                    sim.counts[:, j, _CT_FEATURES] - sim.term_counts[:, t],
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


@dataclass(frozen=True)
class Standardizer:
    """Per-feature (x - mean) / stddev transform with population stddev.

    Features that are constant on the training set (stddev below 1e-9)
    are mapped to 0 for every input, so they contribute no gradient.
    """

    mean: np.ndarray
    scale: np.ndarray  # 1/stddev, or 0 for constant features

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) * self.scale


STDDEV_FLOOR = 1e-9


def standardize(train_vectors) -> Standardizer:
    """Fit a Standardizer on training feature vectors."""
    matrix = np.asarray(list(train_vectors), dtype=float)
    if matrix.size == 0:
        raise EmptyTrainingSet("standardize() requires at least one vector")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    scale = np.where(std > STDDEV_FLOOR, 1.0 / np.where(std > STDDEV_FLOOR, std, 1.0), 0.0)
    return Standardizer(mean=mean, scale=scale)
