"""Brute-force reference implementations used to check the library.

These deliberately re-derive every quantity from first principles
(explicit loops, exact integer arithmetic) and share no code with the
package internals they verify.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# --- embeddings / similarity -------------------------------------------------


def unit_topic_vector(store, term):
    vectors = [store.get(w) for w in term.split() if store.get(w) is not None]
    if not vectors:
        return None
    total = np.sum(vectors, axis=0)
    norm = float(np.linalg.norm(total))
    if norm == 0.0:
        return None
    return total / norm


def mapped_cosine(store, a, b):
    va = unit_topic_vector(store, a)
    vb = unit_topic_vector(store, b)
    if va is None or vb is None:
        return None
    cos = float(np.clip(np.dot(va, vb), -1.0, 1.0))
    return (cos + 1.0) / 2.0


def set_similarity_mean(pair_sims):
    known = [s for s in pair_sims if s is not None]
    return sum(known) / len(known) if known else 0.0


# --- KNN ---------------------------------------------------------------------


def knn_scores(ds_train, motion, store, threshold=0.5, min_neighbors=3, top=5,
               exclude_topic=None):
    """Sort/threshold/count reference for the nearest-neighbour scorer."""
    candidates = []
    for m in ds_train.motions:
        if m.id == motion.id:
            continue
        if exclude_topic is not None and m.topic.lower() == exclude_topic.lower():
            continue
        sim = mapped_cosine(store, motion.topic, m.topic)
        if sim is not None and sim > threshold:
            candidates.append((sim, m.id))
    if len(candidates) < min_neighbors:
        return {c.id: None for c in ds_train.copas}
    candidates.sort(key=lambda pair: (-pair[0], pair[1]))
    chosen = [mid for _, mid in candidates[:top]]
    out = {}
    for c in ds_train.copas:
        out[c.id] = sum(1 for mid in chosen if mid in c.motion_ids) / len(chosen)
    return out


# --- BA ----------------------------------------------------------------------


def ba_scores(ds_train, motion, k):
    total = sum(1 for m in ds_train.motions if m.action == motion.action)
    out = {}
    for c in ds_train.copas:
        inside = sum(
            1
            for mid in c.motion_ids
            if ds_train.motion(mid).action == motion.action
        )
        if total == 0 or inside < k:
            out[c.id] = None
        else:
            out[c.id] = inside / total
    return out


# --- blacklists --------------------------------------------------------------


def build_blacklist(ds):
    """{copa id: the registry actions that no member of the CoPA has}; W2V
    and NB force the score of such an action to 0."""
    all_actions = {a.id for a in ds.actions}
    return {
        c.id: all_actions - {ds.motion(mid).action for mid in c.motion_ids} for c in ds.copas
    }


# --- count features ----------------------------------------------------------


def count_features(motion, copa, ds, holdout=None):
    """(f14, f15, f16, f17) by direct set construction."""
    universe = [m for m in ds.motions if m.id != holdout]
    m_all = {m.id for m in universe}
    m_a = {m.id for m in universe if m.action == motion.action}
    m_c = {mid for mid in copa.motion_ids if mid in m_all}
    inter = m_a & m_c
    union = m_a | m_c

    def ratio(num, den):
        return num / den if den else 0.0

    return (
        ratio(len(m_a), len(m_all)),
        ratio(len(inter), len(union)),
        ratio(len(inter), len(m_a)),
        ratio(len(inter), len(m_c)),
    )


# --- hypergeometric ----------------------------------------------------------


def hypergeom_tail_exact(k, n, K, N) -> float:
    """P[X >= k] as an exact rational, via integer binomials."""
    total = Fraction(0)
    denom = math.comb(N, n)
    for i in range(k, min(n, K) + 1):
        if n - i > N - K:
            continue
        total += Fraction(math.comb(K, i) * math.comb(N - K, n - i), denom)
    return float(total)


def hypergeom_tail_by_draws(k, n, K, N) -> float:
    """Literal enumeration of every size-n draw (tiny N only)."""
    marked = set(range(K))
    hits = 0
    draws = 0
    for draw in itertools.combinations(range(N), n):
        draws += 1
        if sum(1 for item in draw if item in marked) >= k:
            hits += 1
    return hits / draws


# --- score matrices and curves -----------------------------------------------


def elementwise_max(entry_dicts):
    out = {}
    for entries in entry_dicts:
        for pair, score in entries.items():
            if pair not in out or score > out[pair]:
                out[pair] = score
    return out


def predicted_pairs(entries, threshold, included_copas):
    return {
        pair
        for pair, score in entries.items()
        if pair[1] in included_copas and score >= threshold
    }


def pr_points(entries, labels, included_copas, thresholds):
    truths = {(m, c) for (m, c) in labels if c in included_copas}
    points = []
    for t in thresholds:
        predicted = predicted_pairs(entries, t, included_copas)
        if not predicted:
            continue
        tp = len(predicted & truths)
        points.append((float(t), tp / len(predicted), tp / len(truths) if truths else 0.0))
    return points


def p_at_1_points(entries, labels, included_copas, motion_ids, thresholds):
    points = []
    for t in thresholds:
        covered = []
        for mid in motion_ids:
            scored = [
                (score, cid)
                for (m, cid), score in entries.items()
                if m == mid and cid in included_copas and score >= t
            ]
            if not scored:
                continue
            top_score = max(s for s, _ in scored)
            best_cid = min(cid for s, cid in scored if s == top_score)
            covered.append((mid, best_cid))
        if not covered:
            continue
        hits = sum(1 for mid, cid in covered if (mid, cid) in labels)
        points.append((float(t), len(covered) / len(motion_ids), hits / len(covered)))
    return points


# --- kappa -------------------------------------------------------------------


def kappa_from_confusion(a, b) -> float:
    n = len(a)
    both1 = sum(1 for x, y in zip(a, b) if x == 1 and y == 1)
    both0 = sum(1 for x, y in zip(a, b) if x == 0 and y == 0)
    p_o = (both1 + both0) / n
    pa = sum(a) / n
    pb = sum(b) / n
    p_e = pa * pb + (1 - pa) * (1 - pb)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1 - p_e)
