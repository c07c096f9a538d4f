"""The 17-dimensional (motion, CoPA) feature vector and its standardizer.

Twelve set-similarity features (four text-set pairs crossed with three
similarity measures, pair-major order), one average-idf feature, and four
count features over the label relation.  Every feature is total: ratios
with a zero denominator and similarities with no representable pair are 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kb import ActionRegistry, CoPA, Dataset, Motion
from .textsim import SimilarityContext, SimilarityKind, avg_idf_in_article, set_similarity

_PAIRS = ("mt_cm", "mt_ct", "mw_cm", "mw_ct")
_KINDS = (
    ("embed", SimilarityKind.EMBEDDING),
    ("embed_alt", SimilarityKind.EMBEDDING_ALT),
    ("tfidf", SimilarityKind.TFIDF),
)

#: Fixed feature order; model files record this string so that saved
#: weights stay interpretable if the order ever changes.
FEATURE_NAMES: tuple[str, ...] = tuple(
    f"sim_{pair}_{kind}" for pair in _PAIRS for kind, _ in _KINDS
) + (
    "avg_idf_manual_titles_in_topic_article",
    "action_share_of_all_motions",
    "action_copa_jaccard",
    "copa_share_of_action_motions",
    "action_share_of_copa_motions",
)

FEATURE_ORDERING = ",".join(FEATURE_NAMES)

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
    member_ids = copa.motion_ids
    holdout_topic = None
    if loo_holdout is not None:
        member_ids = member_ids - {loo_holdout}
        holdout_topic = ds.motion(loo_holdout).topic
    c_t = {ds.motion(mid).topic for mid in member_ids}
    if holdout_topic is not None:
        c_t.discard(holdout_topic)
    return CopaTextSets(c_m=copa.manual_titles, c_t=frozenset(c_t))


#: positions of the six similarity features that read c_t, in the order
#: ``_similarities`` of m_t and then of m_w returns them
_CT_FEATURES = np.array(
    [FEATURE_NAMES.index(f"sim_{pair}_{kind}") for pair in ("mt_ct", "mw_ct")
     for kind, _ in _KINDS]
)
#: positions of the four count features
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


def _similarities(side_a, side_b, ctx: SimilarityContext) -> list[float]:
    return [set_similarity(kind, side_a, side_b, ctx) for _, kind in _KINDS]


def compute_features(
    motion: Motion,
    copa: CoPA,
    ds: Dataset,
    ctx: SimilarityContext,
    loo_holdout: str | None = None,
) -> np.ndarray:
    """Feature vector for one (motion, CoPA) pair, ordered as
    FEATURE_NAMES.

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
    values = []
    for pair in _PAIRS:
        values.extend(_similarities(*text_pairs[pair], ctx))

    if ctx.tfidf is not None:
        values.append(avg_idf_in_article(c_sets.c_m, motion.topic, ctx.wiki, ctx.tfidf))
    else:
        values.append(0.0)

    universe = [m for m in ds.motions if m.id != loo_holdout]
    m_all = {m.id for m in universe}
    m_a = {m.id for m in universe if m.action == motion.action}
    m_c = copa.motion_ids & m_all
    values.extend(count_ratios(len(m_all), len(m_a), len(m_c), len(m_a & m_c)))

    return np.array(values, dtype=float)


def motion_features(motion: Motion, ds: Dataset, ctx: SimilarityContext) -> np.ndarray:
    """(CoPAs x features) array: ``compute_features`` of the motion against
    every CoPA of ``ds`` in order, with no holdout."""
    rows = [compute_features(motion, c, ds, ctx) for c in ds.copas]
    return np.array(rows, dtype=float).reshape(len(ds.copas), N_FEATURES)


class FeatureTable:
    """``compute_features`` of every (motion, CoPA) pair of a dataset,
    built once, from which each leave-one-out fold is derived.

    Holding out motion h changes only two things.  The c_t of a CoPA
    loses h's topic (and h), which matters only to the *affected* CoPAs:
    those with a member whose topic is h's.  The count universes lose h.
    So a fold recomputes the six c_t features of the affected CoPAs with
    the same ``set_similarity`` calls over the same sets, and the four
    count features from integer size tables minus h; everything else is
    reused.  ``fold_values(h)`` therefore equals ``compute_features(...,
    loo_holdout=h)`` for every pair, bit for bit.
    """

    def __init__(self, ds: Dataset, ctx: SimilarityContext):
        self._ds = ds
        self._ctx = ctx
        self.values = np.array([motion_features(m, ds, ctx) for m in ds.motions]).reshape(
            len(ds.motions), len(ds.copas), N_FEATURES
        )
        self.labels = np.array(
            [[(m.id, c.id) in ds.labels for c in ds.copas] for m in ds.motions], dtype=float
        ).reshape(len(ds.motions), len(ds.copas))
        self._rows = {m.id: i for i, m in enumerate(ds.motions)}
        self._motion_sets = [motion_text_sets(m, ds.actions, ctx) for m in ds.motions]
        self._copa_topics = [{ds.motion(mid).topic for mid in c.motion_ids} for c in ds.copas]
        actions = sorted({m.action for m in ds.motions})
        action_col = {a: k for k, a in enumerate(actions)}
        self._action = np.array([action_col[m.action] for m in ds.motions], dtype=np.int64)
        self._member = self.labels.astype(bool)
        self._copa_size = self._member.sum(axis=0)
        self._action_size = np.bincount(self._action, minlength=len(actions))
        # members of each CoPA per action: (CoPAs x actions)
        one_hot = np.eye(len(actions), dtype=np.int64)[self._action]
        self._copa_action_size = self._member.T.astype(np.int64) @ one_hot

    def fold_values(self, holdout: str) -> np.ndarray:
        """(motions x CoPAs x features) array of the fold without
        ``holdout``: every row, the held-out motion's own included, as
        ``compute_features(m, c, ds, ctx, loo_holdout=holdout)``."""
        h = self._rows[holdout]
        values = self.values.copy()
        topic = self._ds.motions[h].topic
        for j, copa in enumerate(self._ds.copas):
            if topic in self._copa_topics[j]:
                c_t = copa_text_sets(copa, self._ds, holdout).c_t
                for i, m_sets in enumerate(self._motion_sets):
                    sims = _similarities(m_sets.m_t, c_t, self._ctx)
                    sims += _similarities(m_sets.m_w, c_t, self._ctx)
                    values[i, j, _CT_FEATURES] = sims
        same_action = self._action == self._action[h]
        in_copa = self._member[h]
        n_action = self._action_size[self._action] - same_action
        n_copa = self._copa_size - in_copa
        n_inter = self._copa_action_size.T[self._action] - np.outer(same_action, in_copa)
        values[..., _COUNT_FEATURES] = count_ratios(
            len(self._ds.motions) - 1, n_action[:, None], n_copa[None, :], n_inter
        )
        return values

    def fold(self, holdout: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The leave-one-out fold without ``holdout``: the values and
        labels of every other motion (the training rows), and the
        held-out motion's own (CoPAs x features) rows."""
        h = self._rows[holdout]
        values = self.fold_values(holdout)
        keep = np.arange(len(values)) != h
        return values[keep], self.labels[keep], values[h]


def feature_dict(vector: np.ndarray) -> dict[str, float]:
    return dict(zip(FEATURE_NAMES, (float(v) for v in vector)))


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

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Standardizer":
        return cls(np.array(doc["mean"], dtype=float), np.array(doc["scale"], dtype=float))


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
