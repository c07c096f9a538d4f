"""Similarity primitives: embeddings, tf-idf, and Wikipedia-title enrichment.

Everything here is pure and operates on stores that are immutable after
loading.  "Absent" similarity values are represented as ``None``; callers
that average over pairs simply skip them.

Cosine similarities over embeddings are affinely mapped from [-1, 1] to
[0, 1] so that all similarity features share one range; the map is
monotone, so rankings are unaffected.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(Exception):
    """An argument is outside the operation's documented domain."""


class UnknownTopic(Exception):
    """The corpus has no article record for the requested topic."""


def _norm(term: str) -> str:
    return term.strip().lower()


def read_lines(path):
    """(line number, line) pairs of a UTF-8 text file, numbered from 1;
    DomainError naming the file when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc})") from None


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


class EmbeddingStore:
    """word -> vector table with case-normalized lookup."""

    def __init__(self, table: dict[str, np.ndarray], dimension: int):
        if dimension <= 0:
            raise DomainError("embedding dimension must be positive")
        converted = {_norm(w): np.asarray(v, dtype=float) for w, v in table.items()}
        for word, vec in converted.items():
            if vec.shape != (dimension,):
                raise DomainError(f"vector for {word!r} has wrong dimension")
        # one vectorized pass: a check per vector made file loading ~40% slower;
        # a NaN or infinite component makes the squared norm non-finite too
        if converted:
            vectors = np.concatenate(list(converted.values())).reshape(len(converted), dimension)
            with np.errstate(over="ignore"):
                squared = np.einsum("ij,ij->i", vectors, vectors)
            if not np.isfinite(squared).all():
                word = list(converted)[int(np.argmin(np.isfinite(squared)))]
                raise DomainError(f"vector for {word!r} has a non-finite component or norm")
        self.dimension = dimension
        self._table = converted

    def __contains__(self, word: str) -> bool:
        return _norm(word) in self._table

    def __len__(self) -> int:
        return len(self._table)

    def get(self, word: str) -> np.ndarray | None:
        return self._table.get(_norm(word))

    @classmethod
    def from_file(cls, path) -> "EmbeddingStore":
        """Parse the textual format: one "word v1 v2 ... vd" record per
        line, with an optional "count dim" header line (auto-detected).
        Later records win on duplicate words."""
        table: dict[str, np.ndarray] = {}
        dimension = None
        first = True
        for lineno, line in read_lines(path):
            parts = line.split()
            if not parts:
                continue
            if first:
                first = False
                if len(parts) == 2 and all(_is_int(p) for p in parts):
                    dimension = int(parts[1])
                    continue
            word, values = parts[0], parts[1:]
            try:
                vec = np.array(values, dtype=float)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: non-numeric vector component") from None
            if dimension is None:
                dimension = len(vec)
            if len(vec) != dimension:
                raise DomainError(
                    f"{path}:{lineno}: expected {dimension} components, got {len(vec)}"
                )
            table[_norm(word)] = vec
        if dimension is None:
            raise DomainError(f"{path}: empty embedding file")
        try:
            return cls(table, dimension)
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def embed_term(store: EmbeddingStore, term: str) -> np.ndarray | None:
    """Unit vector for a term: known single word -> its normalized vector;
    multi-word -> normalized sum of the known word vectors; None when no
    word is known (or the sum cancels to zero exactly)."""
    vectors = [v for w in term.split() if (v := store.get(w)) is not None]
    if not vectors:
        return None
    with np.errstate(over="ignore"):
        total = np.sum(vectors, axis=0)
        length = float(np.linalg.norm(total))
    if not math.isfinite(length):
        raise DomainError(f"embedding of {term!r}: the norm of its word vectors' sum is not finite")
    if length == 0.0:
        return None
    return total / length


# ---------------------------------------------------------------------------
# Tf-Idf
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TfIdfModel:
    """Idf table over a document collection.

    idf(t) = ln(n_docs / df(t)); terms never seen get df = 1, hence
    ln(n_docs).  Natural log, no +1 smoothing inside the log.
    """

    idf_table: dict[str, float]
    n_docs: int

    def idf(self, term: str) -> float:
        return self.idf_table.get(_norm(term), math.log(self.n_docs) if self.n_docs > 0 else 0.0)

    @classmethod
    def from_documents(cls, documents) -> "TfIdfModel":
        """``documents`` is an iterable of term collections; each document
        contributes at most one df count per distinct term."""
        df: dict[str, int] = {}
        n_docs = 0
        for doc in documents:
            n_docs += 1
            for term in {_norm(t) for t in doc}:
                df[term] = df.get(term, 0) + 1
        if n_docs == 0:
            raise DomainError("tf-idf model needs at least one document")
        idf = {t: math.log(n_docs / d) for t, d in df.items()}
        return cls(idf, n_docs)

    @classmethod
    def from_wiki_corpus(cls, corpus: "WikiCorpus") -> "TfIdfModel":
        return cls.from_documents(rec.body_terms for rec in corpus.records())


# ---------------------------------------------------------------------------
# Wikipedia corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArticleRecord:
    link_counts: dict[str, int]
    body_terms: frozenset[str]


class WikiCorpus:
    """Pre-extracted per-topic article data plus a background link pool.

    ``link_counts`` are occurrences of linked titles inside one article;
    the background aggregates link counts over a pool of random articles
    (excluding the topic articles themselves).
    """

    def __init__(
        self,
        articles: dict[str, ArticleRecord],
        background_link_counts: dict[str, int],
        background_total_links: int,
    ):
        # counts must be plain ints: floats (NaN too), strings and bools fail
        if type(background_total_links) is not int or background_total_links < 0:
            raise DomainError("background total_links must be a non-negative integer")
        for title, count in background_link_counts.items():
            if type(count) is not int or count < 0 or count > background_total_links:
                raise DomainError(f"background count {count!r} for {title!r} out of range")
        for topic, rec in articles.items():
            for title, count in rec.link_counts.items():
                if type(count) is not int or count < 0:
                    raise DomainError(f"article {topic!r}: bad count {count!r} for {title!r}")
        self._articles = articles
        self.background_link_counts = background_link_counts
        self.background_total_links = background_total_links

    def has_article(self, topic: str) -> bool:
        return _norm(topic) in self._articles

    def article(self, topic: str) -> ArticleRecord:
        try:
            return self._articles[_norm(topic)]
        except KeyError:
            raise UnknownTopic(topic) from None

    def records(self):
        return self._articles.values()

    @classmethod
    def from_file(cls, path) -> "WikiCorpus":
        """Read the JSON corpus; malformed JSON, a record that is not an
        object or a link count that is not a non-negative integer raises
        DomainError."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except UnicodeDecodeError as exc:
                raise DomainError(f"{path}: not UTF-8 text ({exc})") from None
            except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
                raise DomainError(f"{path}: not valid JSON ({exc})") from None
        try:
            doc = _json_object(doc, "top level")
            articles = {}
            for topic, rec in _json_object(doc.get("articles", {}), "'articles'").items():
                rec = _json_object(rec, f"article {topic!r}")
                link_counts = _json_object(
                    rec.get("link_counts", {}), f"article {topic!r}: 'link_counts'"
                )
                articles[_norm(topic)] = ArticleRecord(
                    link_counts={_norm(t): c for t, c in link_counts.items()},
                    body_terms=frozenset(_norm(t) for t in rec.get("body_terms", [])),
                )
            background = _json_object(doc.get("background", {}), "'background'")
            link_counts = _json_object(
                background.get("link_counts", {}), "background 'link_counts'"
            )
            return cls(
                articles,
                {_norm(t): c for t, c in link_counts.items()},
                background.get("total_links", 0),
            )
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be an object")
    return value


# ---------------------------------------------------------------------------
# Hypergeometric upper tail
# ---------------------------------------------------------------------------


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pvalue(k: int, n: int, K: int, N: int) -> float:
    """P[X >= k] for X ~ Hypergeometric(N, K, n), i.e. the chance of at
    least k marked items in a size-n draw from a population of N items
    of which K are marked.  Summed in log space for stability.
    """
    if not (0 <= k <= n <= N and k <= K <= N):
        raise DomainError(f"invalid hypergeometric arguments k={k} n={n} K={K} N={N}")
    lo = max(k, n - (N - K))
    hi = min(n, K)
    if lo > hi:
        return 0.0
    log_denom = _log_comb(N, n)
    log_terms = [
        _log_comb(K, i) + _log_comb(N - K, n - i) - log_denom for i in range(lo, hi + 1)
    ]
    peak = max(log_terms)
    total = peak + math.log(sum(math.exp(t - peak) for t in log_terms))
    return min(1.0, math.exp(total))


# ---------------------------------------------------------------------------
# Term and set similarity
# ---------------------------------------------------------------------------


#: how many enriched titles stand for a topic (its m_w set)
RELATED_TITLE_CAP = 10


class SimilarityKind(enum.Enum):
    EMBEDDING = "embedding"
    EMBEDDING_ALT = "embedding_alt"
    TFIDF = "tfidf"


@dataclass
class SimilarityContext:
    """The stores a similarity computation may need.  Any of them may be
    None; similarities whose store is missing come back Absent.

    Term vectors and related titles are memoized per context (they are
    pure in the stores, and every kernel call and KNN fold reads them
    again); each memo is bounded by the distinct terms seen.  The scalar
    ``term_similarity`` memoizes its pairs too; only KNN calls it, since
    set similarities go through ``similarity_block``."""

    embeddings: EmbeddingStore | None = None
    alt_embeddings: EmbeddingStore | None = None
    tfidf: TfIdfModel | None = None
    wiki: WikiCorpus | None = None
    _term_cache: dict = field(default_factory=dict, repr=False)
    _vector_cache: dict = field(default_factory=dict, repr=False)
    _title_cache: dict = field(default_factory=dict, repr=False)

    def term_vector(self, kind: SimilarityKind, term: str):
        """The term's representation under ``kind``: its unit embedding
        from that kind's store, or its tf-idf vector; None when the store
        is missing or the term is unrepresentable."""
        key = (kind, term)
        if key not in self._vector_cache:
            if kind is SimilarityKind.TFIDF:
                vector = _tfidf_vector(term, self)
            elif kind in (SimilarityKind.EMBEDDING, SimilarityKind.EMBEDDING_ALT):
                store = self.embeddings if kind is SimilarityKind.EMBEDDING else self.alt_embeddings
                vector = None if store is None else embed_term(store, term)
            else:
                raise DomainError(f"unknown similarity kind {kind!r}")
            self._vector_cache[key] = vector
        return self._vector_cache[key]

    def related_titles(self, topic: str) -> tuple[str, ...]:
        """The topic's (at most) RELATED_TITLE_CAP enriched titles; empty
        without a corpus or when the corpus has no article for it."""
        key = topic.lower()
        if key not in self._title_cache:
            titles = ()
            if self.wiki is not None and self.wiki.has_article(topic):
                titles = tuple(topic_related_titles(topic, self.wiki, cap=RELATED_TITLE_CAP))
            self._title_cache[key] = titles
        return self._title_cache[key]


def _tfidf_vector(term: str, ctx: SimilarityContext) -> dict[str, float] | None:
    # A term is represented by its article body when the corpus has one,
    # otherwise by the tokens of the term string itself.
    if ctx.tfidf is None:
        return None
    if ctx.wiki is not None and ctx.wiki.has_article(term):
        units = ctx.wiki.article(term).body_terms
    else:
        units = term.split()
    vec = {_norm(u): ctx.tfidf.idf(u) for u in units}
    vec = {u: w for u, w in vec.items() if w != 0.0}
    return vec or None


def _tfidf_norm(vec: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in vec.values()))


def _dict_cosine(a: dict[str, float], b: dict[str, float]) -> float:
    # add the common keys' products one by one in sorted order, so that
    # cosine(a, b) == cosine(b, a) bit for bit and ``_tfidf_block``
    # reproduces it (``sum`` may compensate on newer Pythons)
    dot = 0.0
    for t in sorted(a.keys() & b.keys()):
        dot += a[t] * b[t]
    na = _tfidf_norm(a)
    nb = _tfidf_norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


_MISSING = object()


def term_similarity(kind: SimilarityKind, a: str, b: str, ctx: SimilarityContext) -> float | None:
    """Similarity of two terms in [0, 1], or None when either side is
    unrepresentable under the requested measure."""
    # symmetric cache key: sim(a, b) == sim(b, a) exactly, so share entries
    key = (kind, a, b) if a <= b else (kind, b, a)
    value = ctx._term_cache.get(key, _MISSING)
    if value is _MISSING:
        value = _term_similarity(kind, a, b, ctx)
        ctx._term_cache[key] = value
    return value


def _term_similarity(kind: SimilarityKind, a: str, b: str, ctx: SimilarityContext) -> float | None:
    va = ctx.term_vector(kind, a)
    vb = ctx.term_vector(kind, b)
    if va is None or vb is None:
        return None
    if kind is SimilarityKind.TFIDF:
        return min(1.0, max(0.0, _dict_cosine(va, vb)))
    cos = float(np.clip(np.dot(va, vb), -1.0, 1.0))
    return (cos + 1.0) / 2.0


#: Set similarities sum pair similarities rounded to multiples of this
#: step.  A sum of at most MAX_SET_PAIRS of them is a multiple of the step
#: below 2**13, exact in float64 (53-bit significand) at every partial
#: sum, so it does not depend on the summation order.
SIMILARITY_STEP = 2.0**-40

#: the most term pairs (with multiplicity) one set similarity may sum
MAX_SET_PAIRS = 2**13

#: bytes of one broadcast product in ``_cosine_block``
_CHUNK_BYTES = 1 << 22


def similarity_block(kind: SimilarityKind, terms_a, terms_b, ctx: SimilarityContext):
    """(sims, present): the similarities of every (a, b) term pair as a
    len(terms_a) x len(terms_b) array, each rounded to a multiple of
    SIMILARITY_STEP, and the mask of the pairs that are not Absent
    (their sims are 0).

    Each entry depends only on its own two terms, never on the block's
    shape or order: no BLAS reduction is involved.  Embedding entries are
    the mapped cosine of ``term_similarity`` with the dot product taken as
    ``np.sum(u * v)``; tf-idf entries are ``term_similarity`` exactly."""
    va = [ctx.term_vector(kind, t) for t in terms_a]
    vb = [ctx.term_vector(kind, t) for t in terms_b]
    present = np.outer(
        np.array([v is not None for v in va], dtype=bool),
        np.array([v is not None for v in vb], dtype=bool),
    )
    if not present.any():
        return np.zeros(present.shape), present
    if kind is SimilarityKind.TFIDF:
        sims = _tfidf_block(va, vb)
    else:
        sims = _cosine_block(va, vb)
    sims = np.rint(sims / SIMILARITY_STEP) * SIMILARITY_STEP
    sims[~present] = 0.0
    return sims, present


def _stack(vectors) -> np.ndarray:
    zero = np.zeros_like(next(v for v in vectors if v is not None))
    return np.array([zero if v is None else v for v in vectors])


def _cosine_block(va, vb) -> np.ndarray:
    # a reduction along the last axis of a broadcast product sums each
    # pair exactly as np.sum(u * v) does, whatever the block's shape
    u, v = _stack(va), _stack(vb)
    sims = np.empty((len(u), len(v)))
    step = max(1, _CHUNK_BYTES // max(1, v.nbytes))
    for lo in range(0, len(u), step):
        dots = np.sum(u[lo:lo + step, None, :] * v[None, :, :], axis=-1)
        sims[lo:lo + step] = (np.clip(dots, -1.0, 1.0) + 1.0) / 2.0
    return sims


def _tfidf_block(va, vb) -> np.ndarray:
    # ``_dict_cosine`` of every pair: each pair's products are added one
    # common unit at a time in sorted-unit order
    def postings(vectors):
        by_unit: dict[str, tuple[list, list]] = {}
        for i, vec in enumerate(vectors):
            for unit, weight in (vec or {}).items():
                rows, weights = by_unit.setdefault(unit, ([], []))
                rows.append(i)
                weights.append(weight)
        return by_unit

    pa, pb = postings(va), postings(vb)
    dots = np.zeros((len(va), len(vb)))
    for unit in sorted(pa.keys() & pb.keys()):
        (ia, wa), (ib, wb) = pa[unit], pb[unit]
        dots[np.ix_(ia, ib)] += np.multiply.outer(wa, wb)
    na = np.array([_tfidf_norm(v) if v else 0.0 for v in va])
    nb = np.array([_tfidf_norm(v) if v else 0.0 for v in vb])
    nonzero = np.outer(na != 0.0, nb != 0.0)
    cos = np.divide(dots, np.outer(na, nb), out=np.zeros(dots.shape), where=nonzero)
    return np.minimum(1.0, np.maximum(0.0, cos))


def mean_similarity(sums, counts):
    """Set similarities from exact sums of pair similarities and the counts
    of present pairs: sums / counts, and 0 where the count is 0."""
    sums = np.asarray(sums, dtype=float)
    return np.divide(sums, counts, out=np.zeros(sums.shape), where=np.asarray(counts) != 0)


def set_similarity(kind: SimilarityKind, terms_a, terms_b, ctx: SimilarityContext) -> float:
    """Mean term similarity over all cross pairs (with multiplicity),
    skipping Absent pairs; 0 when either side is empty or every pair is
    Absent.  The sum of the pair's ``similarity_block`` is exact, so the
    mean does not depend on the order of either side, nor on whether the
    pairs were cut from a larger block.  More than
    MAX_SET_PAIRS pairs raise DomainError."""
    terms_a, terms_b = list(terms_a), list(terms_b)
    if len(terms_a) * len(terms_b) > MAX_SET_PAIRS:
        raise DomainError(
            f"{len(terms_a)} x {len(terms_b)} term pairs exceed the exact-sum bound "
            f"of {MAX_SET_PAIRS}"
        )
    sims, present = similarity_block(kind, terms_a, terms_b, ctx)
    return float(mean_similarity(sims.sum(), present.sum()))


# ---------------------------------------------------------------------------
# Topic enrichment
# ---------------------------------------------------------------------------


def topic_related_titles(topic: str, corpus: WikiCorpus, cap: int = 10) -> list[str]:
    """The (at most) ``cap`` titles linked from the topic's article that
    are most enriched versus the background pool, ascending by
    hypergeometric p-value with lexicographic tie-breaks."""
    record = corpus.article(topic)  # raises UnknownTopic
    n = sum(record.link_counts.values())
    scored = []
    for title, count in record.link_counts.items():
        background = corpus.background_link_counts.get(title, 0)
        p = hypergeom_pvalue(
            k=count,
            n=n,
            K=count + background,
            N=n + corpus.background_total_links,
        )
        scored.append((p, title))
    scored.sort()
    return [title for _, title in scored[:cap]]


def avg_idf_in_article(copa_titles, topic: str, corpus: WikiCorpus | None, tfidf: TfIdfModel) -> float:
    """Mean idf of the CoPA's manual titles that occur in the topic's
    article body; 0 when the article is missing or nothing intersects."""
    if corpus is None or not corpus.has_article(topic):
        return 0.0
    body = corpus.article(topic).body_terms
    present = [t for t in copa_titles if _norm(t) in body]
    if not present:
        return 0.0
    return sum(tfidf.idf(t) for t in present) / len(present)
