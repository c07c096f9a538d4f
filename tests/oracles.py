"""Reference implementations used to check the library, in two parts.

The brute-force references deliberately re-derive every quantity from
first principles (explicit loops, exact integer arithmetic) and share no
code with the package internals they verify.

The per-pair references, at the end, compute one term similarity, one
set similarity or one (motion, CoPA) feature vector at a time, and one
leave-one-out dataset by copying.  They read the package's term vectors
and its similarity kernel; the package itself computes these quantities
only in blocks and tables, and derives its folds by subtraction, and the
tests hold those to the references bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from copa import features, textsim
from copa.features import FEATURE_NAMES
from copa.textsim import MAX_SET_PAIRS, DomainError, SimilarityKind


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


def cosine_block_reference(va, vb, chunk_bytes=1 << 22):
    """(clip(u·v, -1, 1) + 1) / 2 of every pair of rows, unrounded, each dot
    product the pair's own ``np.sum(u * v)``: a reduction along the last
    axis of a broadcast product sums every pair alike, whatever the
    block's shape or chunk, and no BLAS reduction is involved."""
    u, v = np.array(va, dtype=float), np.array(vb, dtype=float)
    sims = np.empty((len(u), len(v)))
    step = max(1, chunk_bytes // max(1, v.nbytes))
    for lo in range(0, len(u), step):
        dots = np.sum(u[lo:lo + step, None, :] * v[None, :, :], axis=-1)
        sims[lo:lo + step] = (np.clip(dots, -1.0, 1.0) + 1.0) / 2.0
    return sims


class EmbeddingFileError(Exception):
    """The reference loader's rejection; its message is the one the
    library's DomainError must carry."""


def embedding_file_reference(path):
    """The embedding file grammar read one token at a time with ``float``:
    ({key: vector}, dimension), the later record winning on a key, or
    EmbeddingFileError.  Errors, first match wins: a file that starts with
    a UTF-8 byte-order mark; a line whose tokens are not all numbers, or
    whose count differs from the header's (or first record's) dimension;
    no header and no record; a header count other than the number of
    records; a dimension that is not positive; the first record in the
    file with a non-finite component or squared norm."""

    def is_int(token):
        try:
            int(token)
        except ValueError:
            return False
        return True

    count = dimension = None
    records = []  # (line number, key, vector) in file order
    seen_content = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and line.startswith("\ufeff"):
                raise EmbeddingFileError(f"{path}:1: starts with a UTF-8 byte-order mark")
            tokens = line.split()
            if not tokens:
                continue
            if not seen_content:
                seen_content = True
                if len(tokens) == 2 and is_int(tokens[0]) and is_int(tokens[1]):
                    count, dimension = int(tokens[0]), int(tokens[1])
                    continue
            values = []
            for token in tokens[1:]:
                try:
                    values.append(float(token))
                except ValueError:
                    raise EmbeddingFileError(f"{path}:{lineno}: non-numeric vector component")
            if dimension is None:
                dimension = len(values)
            if len(values) != dimension:
                raise EmbeddingFileError(
                    f"{path}:{lineno}: expected {dimension} components, got {len(values)}")
            records.append((lineno, tokens[0].strip().lower(), values))
    if dimension is None:
        raise EmbeddingFileError(f"{path}: empty embedding file")
    if count is not None and count != len(records):
        raise EmbeddingFileError(
            f"{path}: the header counts {count} records, the file has {len(records)}")
    if dimension <= 0:
        raise EmbeddingFileError(f"{path}: embedding dimension must be positive")
    table = {}
    for lineno, key, values in records:
        squared = 0.0
        for v in values:
            squared += v * v
        if not math.isfinite(squared):
            raise EmbeddingFileError(
                f"{path}:{lineno}: vector for {key!r} has a non-finite component or norm")
        table[key] = np.array(values, dtype=float)
    return table, dimension


def set_similarity_mean(pair_sims):
    known = [s for s in pair_sims if s is not None]
    return sum(known) / len(known) if known else 0.0


# --- KNN ---------------------------------------------------------------------


def knn_scores(ds_train, motion, store, threshold=0.5, min_neighbors=3, top=5,
               exclude_topic=None):
    """Sort/threshold/count reference for the nearest-neighbour scorer: one
    score per CoPA in dataset order, NaN where it abstains."""
    candidates = []
    for m in ds_train.motions:
        if m.id == motion.id:
            continue
        if exclude_topic is not None and m.topic.strip().lower() == exclude_topic.strip().lower():
            continue
        sim = mapped_cosine(store, motion.topic, m.topic)
        if sim is not None and sim > threshold:
            candidates.append((sim, m.id))
    if len(candidates) < min_neighbors:
        return np.array([math.nan for _ in ds_train.copas])
    candidates.sort(key=lambda pair: (-pair[0], pair[1]))
    chosen = [mid for _, mid in candidates[:top]]
    out = []
    for c in ds_train.copas:
        out.append(sum(1 for mid in chosen if mid in c.motion_ids) / len(chosen))
    return np.array(out)


# --- BA ----------------------------------------------------------------------


def ba_scores(ds_train, motion, k):
    """Counting reference for BA-k: one score per CoPA in dataset order,
    NaN where it abstains."""
    total = sum(1 for m in ds_train.motions if m.action == motion.action)
    out = []
    for c in ds_train.copas:
        inside = sum(
            1
            for mid in c.motion_ids
            if ds_train.motion(mid).action == motion.action
        )
        if total == 0 or inside < k:
            out.append(math.nan)
        else:
            out.append(inside / total)
    return np.array(out)


# --- logistic regression -----------------------------------------------------


def sigmoid_masked(z):
    """Sigmoid by boolean masks: 1 / (1 + exp(-z)) on z >= 0 and
    exp(z) / (1 + exp(z)) on the rest (NaN among them); a float for a
    0-d input."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def logreg_fit_reference(X, y, lam, tol, max_iters):
    """Damped Newton from a zero start that recomputes the margins
    ``X @ w + b`` for the gradient, for the Hessian and for every line
    search candidate, and the sigmoid for the gradient and the Hessian:
    the solver's loop written out, which ``classifiers.logreg_fit`` must
    match bit for bit.  Returns (weights, bias, accepted steps, final
    gradient norm, [(iteration, objective)] per accepted step, the number
    of steps that fell back to -g)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape

    def objective(w, b):
        z = X @ w + b
        signs = 2.0 * y - 1.0
        nll = float(np.logaddexp(0.0, -signs * z).mean())
        return nll + 0.5 * lam * float(w @ w)

    A = np.hstack([X, np.ones((n, 1))])
    ridge = np.diag(np.append(np.full(d, float(lam)), 0.0))
    w = np.zeros(d)
    b = 0.0
    value = objective(w, b)
    steps, fallbacks = [], 0
    grad_sq = math.inf
    for iteration in range(max_iters + 1):
        residual = (sigmoid_masked(X @ w + b) - y) / n
        grad_w = X.T @ residual + lam * w
        grad_b = float(residual.sum())
        grad = np.append(grad_w, grad_b)
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if math.sqrt(grad_sq) < tol or iteration == max_iters:
            break
        p = sigmoid_masked(X @ w + b)
        hessian = (A.T * (p * (1.0 - p) / n)) @ A + ridge
        try:
            direction = np.linalg.solve(hessian, -grad)
        except np.linalg.LinAlgError:
            direction = None
        if direction is None or not (np.isfinite(direction).all() and grad @ direction < 0.0):
            direction = -grad
            fallbacks += 1
        slope = float(grad @ direction)
        step = 1.0
        while step > 1e-20:
            cand_w = w + step * direction[:d]
            cand_b = b + step * float(direction[d])
            cand_value = objective(cand_w, cand_b)
            if cand_value < value and cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        w, b, value = cand_w, cand_b, cand_value
        steps.append((iteration, value))
    return w, b, len(steps), math.sqrt(grad_sq), steps, fallbacks


def w2v_row_reference(X, labels, blacklisted, x, fit, lam, tol, max_iters):
    """The W2V row of a query with unit topic vector ``x`` (None when its
    topic has none), one fit per CoPA: every label column of ``labels``
    (training rows x CoPAs) is fitted on the rows of ``X`` with ``fit``
    (``classifiers.logreg_fit``) and scored as sigmoid(weights . x + bias),
    then 0.0 where ``blacklisted``; NaN everywhere when x is None or ``X``
    has no rows."""
    n_copas = labels.shape[1]
    if x is None or len(X) == 0:
        return np.full(n_copas, math.nan)
    row = []
    for j in range(n_copas):
        weights, bias = fit(X, labels[:, j], lam=lam, tol=tol, max_iters=max_iters)
        row.append(0.0 if blacklisted[j] else sigmoid_masked(weights @ x + bias))
    return np.array(row)


# --- blacklists --------------------------------------------------------------


def build_blacklist(ds):
    """{copa id: the registry actions that no member of the CoPA has}; W2V
    and NB force the score of such an action to 0."""
    all_actions = set(ds.actions)
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


# --- per-pair references -----------------------------------------------------


def _left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _dict_cosine(a, b):
    """Cosine of two tf-idf vectors ({unit: weight}): the common units'
    products added left to right in sorted-unit order, so that
    cosine(a, b) == cosine(b, a) bit for bit; 0 when either norm is 0."""
    dot = _left_sum(a[t] * b[t] for t in sorted(a.keys() & b.keys()))
    na = math.sqrt(_left_sum(w * w for w in a.values()))
    nb = math.sqrt(_left_sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def term_similarity(kind, a, b, ctx):
    """Similarity of two terms in [0, 1], or None when either side is
    unrepresentable under the requested measure: the per-pair reference
    of ``similarity_block`` (embedding cosines through a BLAS ``np.dot``,
    not rounded)."""
    va = ctx.term_vector(kind, a)
    vb = ctx.term_vector(kind, b)
    if va is None or vb is None:
        return None
    if kind is SimilarityKind.TFIDF:
        return min(1.0, max(0.0, _dict_cosine(va, vb)))
    cos = float(np.clip(np.dot(va, vb), -1.0, 1.0))
    return (cos + 1.0) / 2.0


def set_similarity(kind, terms_a, terms_b, ctx):
    """Mean term similarity over all cross pairs (with multiplicity),
    skipping Absent pairs; 0 when either side is empty or every pair is
    Absent.  The sum of the pair's ``similarity_block`` is exact, so the
    mean does not depend on the order of either side, nor on whether the
    pairs were cut from a larger block.  More than MAX_SET_PAIRS pairs
    raise DomainError."""
    terms_a, terms_b = list(terms_a), list(terms_b)
    if len(terms_a) * len(terms_b) > MAX_SET_PAIRS:
        raise DomainError(
            f"{len(terms_a)} x {len(terms_b)} term pairs exceed the exact-sum bound "
            f"of {MAX_SET_PAIRS}"
        )
    sims, present = textsim.similarity_block(kind, terms_a, terms_b, ctx)
    return float(textsim.mean_similarity(sims.sum(), present.sum()))


def copa_text_sets(copa, ds, loo_holdout=None):
    """The CoPA's c_m and c_t; with ``loo_holdout``, c_t less every topic
    with the held-out motion's ``name_key``, and with it the motion."""
    sets = features.copa_text_sets(copa, ds)
    if loo_holdout is None:
        return sets
    held = textsim.name_key(ds.motion(loo_holdout).topic)
    return replace(sets, c_t=frozenset(t for t in sets.c_t if textsim.name_key(t) != held))


_KIND_OF = {"embed": SimilarityKind.EMBEDDING, "embed_alt": SimilarityKind.EMBEDDING_ALT,
            "tfidf": SimilarityKind.TFIDF}


def compute_features(motion, copa, ds, ctx, loo_holdout=None):
    """Feature vector for one (motion, CoPA) pair, ordered as
    FEATURE_NAMES: the per-pair reference of ``FeatureTable``.

    When ``loo_holdout`` names a motion, that motion is excluded from the
    count universes (M_a, M_c, M_*) and its topic from c_t, so training
    folds never see the held-out motion."""
    m_sets = features.motion_text_sets(motion, ds.actions, ctx)
    c_sets = copa_text_sets(copa, ds, loo_holdout)
    sets = {"mt": m_sets.m_t, "mw": m_sets.m_w, "cm": c_sets.c_m, "ct": c_sets.c_t}
    values = []
    for name in FEATURE_NAMES[:12]:  # sim_<motion side>_<CoPA side>_<kind>
        _, m_side, c_side, kind = name.split("_", 3)
        values.append(set_similarity(_KIND_OF[kind], sets[m_side], sets[c_side], ctx))
    values.append(textsim.avg_idf_in_article(copa.manual_titles, motion.topic, ctx.wiki, ctx.tfidf))
    values.extend(count_features(motion, copa, ds, loo_holdout))
    return np.array(values, dtype=float)


def without_motion(ds, motion_id):
    """A copy of ``ds`` with one motion (and its labels) removed: the
    reference that leave-one-out folds, derived by subtraction, are
    checked against."""
    if motion_id not in ds.motion_ids:
        raise KeyError(motion_id)
    return replace(
        ds,
        motions=tuple(m for m in ds.motions if m.id != motion_id),
        copas=tuple(replace(c, motion_ids=c.motion_ids - {motion_id}) for c in ds.copas),
        labels=frozenset(p for p in ds.labels if p[0] != motion_id),
        label_flags={p: v for p, v in ds.label_flags.items() if p[0] != motion_id},
    )
