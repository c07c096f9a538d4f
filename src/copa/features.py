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


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


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
        side_a, side_b = text_pairs[pair]
        for _, kind in _KINDS:
            values.append(set_similarity(kind, side_a, side_b, ctx))

    if ctx.tfidf is not None:
        values.append(avg_idf_in_article(c_sets.c_m, motion.topic, ctx.wiki, ctx.tfidf))
    else:
        values.append(0.0)

    universe = [m for m in ds.motions if m.id != loo_holdout]
    m_all = {m.id for m in universe}
    m_a = {m.id for m in universe if m.action == motion.action}
    m_c = copa.motion_ids & m_all
    inter = len(m_a & m_c)
    values.append(_ratio(len(m_a), len(m_all)))
    values.append(_ratio(inter, len(m_a | m_c)))
    values.append(_ratio(inter, len(m_a)))
    values.append(_ratio(inter, len(m_c)))

    return np.array(values, dtype=float)


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
