"""The external stores and the similarity primitives over them.

The stores are word embeddings, a Wikipedia corpus (with tf-idf over its
article bodies) and a corpus of sentences per topic.  Each compares
names by ``name_key``, applied once where the store is built, so a store
built in code equals one read from a file.

Everything here is pure and operates on stores whose contents are fixed
once loaded (an embedding store converts a vector from its file's text on
its first read, and keeps it): the arrays a store or a context's memo
hands out are read-only.
A term with no representation under a measure makes its pairs
"Absent": ``similarity_block`` marks them in a mask, and set
similarities skip them.

Cosine similarities over embeddings are affinely mapped from [-1, 1] to
[0, 1] so that all similarity features share one range; the map is
monotone, so rankings are unaffected.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(Exception):
    """An argument is outside the operation's documented domain: the
    inputs cannot be used, and a command exits 4."""


def name_key(name: str) -> str:
    """What two names (words, titles, topics) must share to be one name:
    equal ignoring case and surrounding space.  A leave-one-out fold drops
    every topic with the held-out motion's key, from KNN's candidates and
    from each CoPA's c_t."""
    return name.strip().lower()


def _left_sum(values) -> float:
    """The floats added left to right from 0.0, as ``sum`` adds them before
    Python 3.12 (later ones compensate): the same bits on every version."""
    total = 0.0
    for value in values:
        total += value
    return total


def read_lines(path):
    """(line number, line) pairs of a UTF-8 text file, numbered from 1;
    DomainError naming the file when it is not UTF-8, and its line 1 when
    it starts with a byte-order mark (U+FEFF, which would join a word).
    The file is read once, front to back: a pipe reads as a file does."""
    with open(path, encoding="utf-8") as fh:
        try:
            line = fh.readline()
            if line.startswith("\ufeff"):
                raise DomainError(f"{path}:1: starts with a UTF-8 byte-order mark")
            if line:
                yield 1, line
                yield from enumerate(fh, start=2)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path):
    """The JSON document of a UTF-8 file, read whole; DomainError as from
    ``read_lines``, or naming the file when it is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            if text.startswith("\ufeff"):
                raise DomainError(f"{path}:1: starts with a UTF-8 byte-order mark")
            return json.loads(text)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc})") from None
        except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
            raise DomainError(f"{path}: not valid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


class EmbeddingStore:
    """word -> vector table with case-normalized lookup: the records'
    vectors in blocks of consecutive rows, and a ``name_key`` -> row index
    in which the later of two records with one key wins.  A block is a
    read-only (k, d) float matrix, or a ``_TextBlock`` of plain decimals
    whose rows are converted when first read; every vector handed out is
    read-only."""

    def __init__(self, table: dict[str, np.ndarray], dimension: int):
        if dimension <= 0:
            raise DomainError("embedding dimension must be positive")
        words = [name_key(w) for w in table]
        vectors = [np.asarray(v, dtype=float) for v in table.values()]
        for word, vec in zip(words, vectors):
            if vec.shape != (dimension,):
                raise DomainError(f"vector for {word!r} has wrong dimension")
        matrix = np.vstack(vectors) if vectors else np.empty((0, dimension))
        self._fill(words, [matrix], max(1, len(words)), dimension, lambda row: "")

    def _fill(self, words: list[str], blocks: list, block_lines: int, dimension: int, where):
        """The store's one constructor.  ``blocks`` hold the records'
        vectors in the order of ``words``, ``block_lines`` rows in each but
        the last; ``where(row)`` is the prefix of an error naming that
        record.  Only the matrices are checked for finite values: a
        ``_TextBlock`` cannot hold any other."""
        for index, block in enumerate(blocks):
            if not isinstance(block, np.ndarray):
                continue
            # one vectorized pass over every record, overridden ones too (a
            # check per vector made file loading ~40% slower); a NaN or
            # infinite component makes the squared norm non-finite too
            with np.errstate(over="ignore"):
                finite = np.isfinite(np.einsum("ij,ij->i", block, block))
            if not finite.all():
                row = index * block_lines + int(np.argmin(finite))
                raise DomainError(
                    f"{where(row)}vector for {words[row]!r} has a non-finite component or norm"
                )
            block.setflags(write=False)
        self.dimension = dimension
        self._blocks = blocks
        self._block_lines = block_lines
        self._rows = {word: row for row, word in enumerate(words)}

    def __contains__(self, word: str) -> bool:
        return name_key(word) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, word: str) -> np.ndarray | None:
        row = self._rows.get(name_key(word))
        if row is None:
            return None
        block, index = divmod(row, self._block_lines)
        return self._blocks[block][index]

    @classmethod
    def from_file(cls, path) -> "EmbeddingStore":
        """Parse the textual format: one "word v1 v2 ... vd" record per
        line, each value spelled as Python's ``float`` reads it, with an
        optional "count dim" header (detected on the first non-blank line
        only) whose count must equal the number of records.  Later records
        win on duplicate words; every record must be finite.  The file is
        read once, its records parsed in blocks of _BLOCK_LINES, each
        checked on one set of byte masks (``_Masks``): a block of plain
        decimals keeps its text, and each row of it is converted when
        first read; any other block is parsed here, token by token
        (``_parse_lines``).  Every error is raised here, none when a
        vector is read.

        Per line the loop only splits off the word and keeps it, the line
        number and the value field: the header is looked for before it,
        and ``_parse_block`` keys a block's words in one pass."""
        count = dimension = None
        words, lines, fields, blocks, masks = [], [], [], [], _Masks()
        records = read_lines(path)
        try:
            for lineno, line in records:
                tokens = line.split()
                if tokens:  # the first non-blank line
                    if len(tokens) == 2 and all(_is_int(t) for t in tokens):
                        count, dimension = int(tokens[0]), int(tokens[1])
                    else:
                        records = itertools.chain([(lineno, line)], records)
                    break
            for lineno, line in records:
                parts = line.split(None, 1)
                if parts:
                    words.append(parts[0])
                    lines.append(lineno)
                    fields.append(parts[1] if len(parts) == 2 else "")
                    if len(fields) == _BLOCK_LINES:
                        dimension = _parse_block(path, words, fields, lines, dimension,
                                                 blocks, masks)
        except DomainError:
            # not UTF-8: a bad line read before the undecodable bytes is the
            # error (a block's own error has left no fields pending)
            if fields:
                _parse_block(path, words, fields, lines, dimension, blocks, masks)
            raise
        if fields:
            dimension = _parse_block(path, words, fields, lines, dimension, blocks, masks)
        if dimension is None:
            raise DomainError(f"{path}: empty embedding file")
        if count is not None and count != len(words):
            raise DomainError(
                f"{path}: the header counts {count} records, the file has {len(words)}"
            )
        if dimension <= 0:
            raise DomainError(f"{path}: embedding dimension must be positive")
        store = cls.__new__(cls)
        store._fill(words, blocks, _BLOCK_LINES, dimension, lambda row: f"{path}:{lines[row]}: ")
        return store


#: records per block: a block of plain decimals keeps its text, and the
#: check that finds one writes a few byte masks of the block's size; of
#: 100, 250, 500 and 1,000, 250 gave a ``copa match`` process the lowest
#: peak RSS (1,000 added ~0.5 MB)
_BLOCK_LINES = 250

#: the longest plain decimal a ``_TextBlock`` holds: at most 98 integer
#: digits, so |x| < 10**98 and a squared norm of d < 10**108 of them is
#: finite
_PLAIN_TOKEN_BYTES = 100


class _TextBlock:
    """Records whose value fields are plain decimals (``_plain_block``):
    their ASCII text and the offset of each line end in it.  Row i's
    vector is ``float`` of its tokens, converted on its first read and
    kept, read-only."""

    __slots__ = ("_text", "_ends", "_vectors")

    def __init__(self, text: bytes, ends: np.ndarray):
        self._text, self._ends, self._vectors = text, ends, {}

    def __getitem__(self, row: int) -> np.ndarray:
        vector = self._vectors.get(row)
        if vector is None:
            start = int(self._ends[row - 1]) + 1 if row else 0
            tokens = self._text[start:int(self._ends[row])].split()
            vector = np.array([float(t) for t in tokens])
            vector.setflags(write=False)
            self._vectors[row] = vector
        return vector


class _Masks:
    """The byte masks ``_plain_block`` writes, one set for all the blocks
    of a file: three rows of booleans, reallocated at a block's length
    only when that block is longer than every one before it.  Masks
    allocated per block let glibc hand the heap's top back after each
    block and fault it in again for the next (~200 minor faults a block
    in a fresh process)."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = np.empty((3, 0), dtype=bool)

    def get(self, n: int) -> np.ndarray:
        """Three masks of n booleans, views of the set's first n columns."""
        if self._rows.shape[1] < n:
            self._rows = np.empty((3, n), dtype=bool)
        return self._rows[:, :n]


def _plain_block(fields: list[str], dimension: int | None, masks: _Masks):
    """(``_TextBlock``, d) of the value fields when each is d plain
    decimals, ``-?[0-9]+\\.[0-9]+`` of at most _PLAIN_TOKEN_BYTES bytes,
    split by single spaces and ended by a line end, d being ``dimension``
    or, when that is None, the first field's width; None otherwise.

    ``float`` reads every such token, to a finite value, so the block
    needs no parse and no finite check when it is loaded.  The test is a
    few vectorized passes over the block's bytes, written into ``masks``:
    - Call the bytes below "0" other than "-" the marks.  In order they
      must read ". " d - 1 times and then ".\\n", once per field.  This
      one comparison gives each token one dot, single spaces between
      tokens, d tokens a field and a line end ending each (a field holds
      one line end at most); with no byte above "9", every other byte is
      a digit or a minus.
    - Every mark follows a digit, and no dot comes first: a dot has a
      digit before it, and a token ends in a digit.
    - Every minus follows a separator or comes first: it starts a token,
      and it is not after a dot or a minus, so a dot has a digit after it
      (a dot followed by a mark fails the clause above).
    - No token is longer than _PLAIN_TOKEN_BYTES."""
    text = "".join(fields)
    if not (text.isascii() and text.endswith("\n")):
        return None
    d = fields[0].count(" ") + 1 if dimension is None else dimension
    text = text.encode("ascii")
    b = np.frombuffer(text, dtype=np.uint8)
    if b[0] == ord(".") or b.max() > ord("9"):
        return None
    nondigit, minus, mark = masks.get(len(b))
    np.less(b, ord("0"), out=nondigit)
    np.equal(b, ord("-"), out=minus)
    np.not_equal(nondigit, minus, out=mark)  # below "0" but not "-"
    marks = np.flatnonzero(mark)
    # the last byte is a mark, so a d of 0 or less fails here; and the
    # template below is never longer than the text
    if len(marks) != 2 * d * len(fields):
        return None
    if b[marks].tobytes() != (b". " * (d - 1) + b".\n") * len(fields):
        return None
    # a mark after a non-digit, then a minus after a byte other than a
    # separator (past the comparison, the bytes below "-" are separators)
    np.logical_and(nondigit[:-1], mark[1:], out=mark[1:])
    np.greater_equal(b[:-1], ord("-"), out=nondigit[:-1])
    np.logical_and(nondigit[:-1], minus[1:], out=minus[1:])
    if mark[1:].any() or minus[1:].any():
        return None
    seps = marks[1::2]
    # a token's length + 1 is its separator's distance from the one before
    # (from -1 for the first token)
    if np.diff(seps).max(initial=seps[0] + 1) > _PLAIN_TOKEN_BYTES + 1:
        return None
    return _TextBlock(text, seps[d - 1::d].copy()), d


def _parse_block(path, words, fields, lines, dimension, blocks, masks) -> int:
    """Parse ``fields``, the value fields of the last len(fields) records,
    into one block of len(fields) rows of d values, append it to
    ``blocks`` and return d; key those records' words, the end of
    ``words``, by ``name_key``.  ``fields`` is emptied first: none stay
    pending if the parse fails, and their text does not outlive it.  A
    block of plain decimals is kept as its text (``_plain_block``, on
    ``masks``); any other is parsed now by ``_parse_lines``."""
    pending = fields.copy()
    fields.clear()
    # one lower() for the block: a word holds no whitespace, so strip()
    # would keep it, and the line ends between the words keep each word's
    # lowering its own (a capital sigma reads a word's neighbours)
    words[-len(pending):] = "\n".join(words[-len(pending):]).lower().split("\n")
    plain = _plain_block(pending, dimension, masks)
    if plain is not None:
        blocks.append(plain[0])
        return plain[1]
    block = _parse_lines(path, pending, lines[-len(pending):], dimension)
    blocks.append(block)
    return block.shape[1]


def _parse_lines(path, fields: list[str], lines: list[int], dimension: int | None) -> np.ndarray:
    """The parse of a block that is not plain, ``float`` on each token:
    the fields' (len(fields), d) values, d being ``dimension`` or, when
    that is None, the first field's width; or DomainError naming the line
    of the first record that is not numeric or not of the dimension."""
    vectors = []
    for lineno, field in zip(lines, fields):
        try:
            vec = np.array(field.split(), dtype=float)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric vector component") from None
        if dimension is None:
            dimension = len(vec)
        if len(vec) != dimension:
            raise DomainError(
                f"{path}:{lineno}: expected {dimension} components, got {len(vec)}"
            )
        vectors.append(vec)
    return np.array(vectors)


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
        # one vector: np.sum's bits without its list-to-array copy (its
        # sum turns -0.0 into +0.0, as + 0.0 does); the length is
        # np.linalg.norm's, which is sqrt(x.dot(x)) for a 1-D array
        total = vectors[0] + 0.0 if len(vectors) == 1 else np.sum(vectors, axis=0)
        length = math.sqrt(total.dot(total))
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
    ln(n_docs).  Natural log, no +1 smoothing inside the log.  Terms are
    keyed by ``name_key`` (on duplicate keys the later value wins).
    """

    idf_table: dict[str, float]
    n_docs: int

    def __post_init__(self):
        object.__setattr__(self, "idf_table", {name_key(t): v for t, v in self.idf_table.items()})

    def idf(self, term: str) -> float:
        return self.idf_table.get(name_key(term), math.log(self.n_docs) if self.n_docs > 0 else 0.0)

    @classmethod
    def from_wiki_corpus(cls, corpus: "WikiCorpus") -> "TfIdfModel":
        """One document per article: its body terms, keyed by ``name_key``
        already, each counted once."""
        n_docs = len(corpus.records())
        if n_docs == 0:
            raise DomainError("tf-idf model needs at least one document")
        df: dict[str, int] = {}
        for rec in corpus.records():
            for term in rec.body_terms:
                df[term] = df.get(term, 0) + 1
        return cls({t: math.log(n_docs / d) for t, d in df.items()}, n_docs)


# ---------------------------------------------------------------------------
# Wikipedia corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArticleRecord:
    """One topic article: occurrences of each linked title and its body
    terms, both keyed by ``name_key`` (on duplicate keys the later count
    wins)."""

    link_counts: dict[str, int]
    body_terms: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "link_counts",
                           {name_key(t): c for t, c in self.link_counts.items()})
        object.__setattr__(self, "body_terms", frozenset(name_key(t) for t in self.body_terms))


class WikiCorpus:
    """Pre-extracted per-topic article data plus a background link pool.

    ``link_counts`` are occurrences of linked titles inside one article;
    the background aggregates link counts over a pool of random articles
    (excluding the topic articles themselves).  Article topics and
    background titles are keyed by ``name_key``, as the records key
    theirs: keys that differ only in case or surrounding space name one
    article (or title), the later record winning.
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
        background_link_counts = {name_key(t): c for t, c in background_link_counts.items()}
        for title, count in background_link_counts.items():
            if type(count) is not int or count < 0 or count > background_total_links:
                raise DomainError(f"background count {count!r} for {title!r} out of range")
        self._articles = {name_key(topic): rec for topic, rec in articles.items()}
        for topic, rec in self._articles.items():
            for title, count in rec.link_counts.items():
                if type(count) is not int or count < 0:
                    raise DomainError(f"article {topic!r}: bad count {count!r} for {title!r}")
        self.background_link_counts = background_link_counts
        self.background_total_links = background_total_links

    def article(self, topic: str) -> ArticleRecord | None:
        """The topic's article record; None when the corpus has none."""
        return self._articles.get(name_key(topic))

    def records(self):
        return self._articles.values()

    @classmethod
    def from_file(cls, path) -> "WikiCorpus":
        """Read the JSON corpus through ``read_json``; a record that is not an
        object, ``body_terms`` that are not a list of strings or a link
        count that is not a non-negative integer raises DomainError."""
        doc = read_json(path)
        try:
            doc = _json_object(doc, "top level")
            articles = {}
            for topic, rec in _json_object(doc.get("articles", {}), "'articles'").items():
                rec = _json_object(rec, f"article {topic!r}")
                link_counts = _json_object(
                    rec.get("link_counts", {}), f"article {topic!r}: 'link_counts'"
                )
                body_terms = rec.get("body_terms", [])
                if not isinstance(body_terms, list) or not all(
                    isinstance(t, str) for t in body_terms
                ):
                    raise DomainError(f"article {topic!r}: 'body_terms' must be a list of strings")
                articles[topic] = ArticleRecord(link_counts, body_terms)
            background = _json_object(doc.get("background", {}), "'background'")
            link_counts = _json_object(
                background.get("link_counts", {}), "background 'link_counts'"
            )
            return cls(articles, link_counts, background.get("total_links", 0))
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be an object")
    return value


# ---------------------------------------------------------------------------
# Topic sentences
# ---------------------------------------------------------------------------


class TopicSentenceCorpus:
    """topic -> sentences mentioning that topic, loaded from JSON lines
    of {"topic": ..., "sentence": ...}.  Topics are keyed by ``name_key``;
    spellings with one key share one sentence list."""

    def __init__(self, sentences: dict[str, list[str]]):
        self._sentences: dict[str, list[str]] = {}
        for topic, sents in sentences.items():
            for s in sents:
                if not s:
                    raise DomainError(f"empty sentence for topic {topic!r}")
            self._sentences.setdefault(name_key(topic), []).extend(sents)

    def get(self, topic: str) -> list[str]:
        return self._sentences.get(name_key(topic), [])

    @classmethod
    def from_jsonl(cls, path) -> "TopicSentenceCorpus":
        """Read JSON lines; a malformed line, or a record that is not an
        object with a string ``topic`` and a non-empty string
        ``sentence``, raises DomainError naming the file and line."""
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
            if not rec["sentence"]:
                raise DomainError(f"{path}:{lineno}: empty sentence for topic {rec['topic']!r}")
            table.setdefault(rec["topic"], []).append(rec["sentence"])
        return cls(table)


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
    total = peak + math.log(_left_sum(math.exp(t - peak) for t in log_terms))
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
    """The stores the methods read: the two embedding stores, tf-idf, the
    Wikipedia corpus and the topic sentences (read by NB only).  Any of
    them may be None; similarities whose store is missing come back Absent.

    Term vectors and related titles are memoized per context (they are
    pure in the stores, and every ``similarity_block`` call, one per KNN
    query, reads them again); each memo is bounded by the distinct terms
    seen.  No term pair is memoized."""

    embeddings: EmbeddingStore | None = None
    alt_embeddings: EmbeddingStore | None = None
    tfidf: TfIdfModel | None = None
    wiki: WikiCorpus | None = None
    sentences: TopicSentenceCorpus | None = None
    # not init fields: a context made by dataclasses.replace starts empty
    _vector_cache: dict = field(default_factory=dict, init=False, repr=False)
    _title_cache: dict = field(default_factory=dict, init=False, repr=False)

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
            if isinstance(vector, np.ndarray):
                vector.setflags(write=False)
            self._vector_cache[key] = vector
        return self._vector_cache[key]

    def related_titles(self, topic: str) -> tuple[str, ...]:
        """The topic's (at most) RELATED_TITLE_CAP enriched titles; empty
        without a corpus or when the corpus has no article for it."""
        key = name_key(topic)
        if key not in self._title_cache:
            self._title_cache[key] = () if self.wiki is None else tuple(
                topic_related_titles(topic, self.wiki, cap=RELATED_TITLE_CAP))
        return self._title_cache[key]


def _tfidf_vector(term: str, ctx: SimilarityContext) -> dict[str, float] | None:
    # A term is represented by its article body when the corpus has one,
    # otherwise by the tokens of the term string itself.  The body terms
    # are taken in sorted order: ``_tfidf_norm`` adds the squares in the
    # vector's order, and a frozenset's order follows the hash seed.
    if ctx.tfidf is None:
        return None
    record = None if ctx.wiki is None else ctx.wiki.article(term)
    units = term.split() if record is None else sorted(record.body_terms)
    vec = {name_key(u): ctx.tfidf.idf(u) for u in units}
    vec = {u: w for u, w in vec.items() if w != 0.0}
    return vec or None


def _tfidf_norm(vec: dict[str, float]) -> float:
    return math.sqrt(_left_sum(w * w for w in vec.values()))


#: Set similarities sum pair similarities rounded to multiples of this
#: step.  A sum of at most MAX_SET_PAIRS of them is a multiple of the step
#: below 2**13, exact in float64 (53-bit significand) at every partial
#: sum, so it does not depend on the summation order.
SIMILARITY_STEP = 2.0**-40

#: the most term pairs (with multiplicity) one set similarity may sum
MAX_SET_PAIRS = 2**13

#: bytes of one gathered (pairs, d) array when ``_cosine_block``
#: recomputes its guarded entries pair by pair
_CHUNK_BYTES = 1 << 22


def similarity_block(kind: SimilarityKind, terms_a, terms_b, ctx: SimilarityContext):
    """(sims, present): the similarities of every (a, b) term pair as a
    len(terms_a) x len(terms_b) array, each rounded to a multiple of
    SIMILARITY_STEP, and the mask of the pairs that are not Absent
    (their sims are 0).

    A pair is Absent when either term has no vector under ``kind``
    (``SimilarityContext.term_vector``).  Each entry depends only on its
    own two terms, never on the block's shape or order, the BLAS library
    or its thread count.  Embedding entries are the mapped cosine
    (clip(u·v, -1, 1) + 1) / 2 of the two unit vectors with the dot
    product taken as ``np.sum(u * v)``, rounded (``_cosine_block`` gets
    them from one BLAS product and a rounding guard); tf-idf entries are
    the cosine of the two tf-idf vectors clipped to [0, 1]
    (``_tfidf_block``), rounded.  Every similarity in the package goes
    through this kernel: the set similarities of the feature table and
    KNN's candidate row."""
    va = [ctx.term_vector(kind, t) for t in terms_a]
    vb = [ctx.term_vector(kind, t) for t in terms_b]
    present = np.outer(
        np.array([v is not None for v in va], dtype=bool),
        np.array([v is not None for v in vb], dtype=bool),
    )
    if not present.any():
        return np.zeros(present.shape), present
    if kind is SimilarityKind.TFIDF:
        sims = np.rint(_tfidf_block(va, vb) / SIMILARITY_STEP) * SIMILARITY_STEP
    else:
        sims = _cosine_block(va, vb)
    sims[~present] = 0.0
    return sims, present


def _stack(vectors) -> np.ndarray:
    zero = np.zeros_like(next(v for v in vectors if v is not None))
    return np.array([zero if v is None else v for v in vectors])


def _mapped(dots: np.ndarray) -> np.ndarray:
    return (np.clip(dots, -1.0, 1.0) + 1.0) / 2.0


def _pair_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``u`` with the same row of ``v``,
    each summed as ``np.sum(u[k] * v[k])`` sums it."""
    return np.sum(u * v, axis=-1)


def _rounding_margin(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2·(γ_d‖u_i‖‖v_j‖ + 2⁻⁵³) / SIMILARITY_STEP for every row pair, with
    γ_d = d·2⁻⁵³/(1 − d·2⁻⁵³): ``_cosine_block``'s guard band."""
    d = u.shape[1]
    gamma = d * 2.0**-53 / (1.0 - d * 2.0**-53)
    norms_u = np.sqrt(np.einsum("ij,ij->i", u, u))
    norms_v = np.sqrt(np.einsum("ij,ij->i", v, v))
    return 2.0 * (np.outer(gamma * norms_u, norms_v) + 2.0**-53) / SIMILARITY_STEP


def _cosine_block(va, vb) -> np.ndarray:
    """The mapped cosine (clip(u·v, -1, 1) + 1) / 2 of every pair, rounded
    to a multiple of SIMILARITY_STEP, bit for bit as when each dot product
    is the pair's own ``np.sum(u * v)``; a None vector is a zero row.

    The dot products come from one BLAS product ``u @ v.T``, whose
    summation order depends on the library, the block's shape and the
    thread count.  Any order of a length-d dot product lies within
    γ_d·Σ|u_k v_k| ≤ γ_d‖u‖‖v‖ of the exact value (γ_d = d·2⁻⁵³/(1 − d·2⁻⁵³),
    with or without fused multiply-adds), so BLAS's and ``np.sum``'s
    differ by at most 2γ_d‖u‖‖v‖.  The clip does not widen that and the
    halving halves it; rounding c + 1 adds at most 2⁻⁵⁴ per side after
    the halving.  Dividing by SIMILARITY_STEP, a power of two, is exact.
    So the two scaled values x = mapped / SIMILARITY_STEP differ by at
    most (γ_d‖u‖‖v‖ + 2⁻⁵³) / SIMILARITY_STEP, half of
    ``_rounding_margin``, and where BLAS's x is farther than the margin
    from every half-integer, ``np.rint`` rounds both alike.  Only the
    entries within it are recomputed as ``np.sum(u * v)``, pair by pair
    (a few percent of a block of unit vectors).  The margin's spare half
    covers the rounding of the margin and of the distance themselves and
    products that underflow."""
    u, v = _stack(va), _stack(vb)
    scaled = _mapped(u @ v.T) / SIMILARITY_STEP
    rounded = np.rint(scaled)
    # x is near a half-integer where |x - rint(x)|, which is exact, is near 0.5
    near = np.abs(scaled - rounded) >= 0.5 - _rounding_margin(u, v)
    rows, cols = np.nonzero(near)
    step = max(1, _CHUNK_BYTES // (u.itemsize * u.shape[1]))
    for lo in range(0, len(rows), step):
        i, j = rows[lo:lo + step], cols[lo:lo + step]
        rounded[i, j] = np.rint(_mapped(_pair_dots(u[i], v[j])) / SIMILARITY_STEP)
    return rounded * SIMILARITY_STEP


def _tfidf_block(va, vb) -> np.ndarray:
    # the cosine of every pair of tf-idf vectors, clipped to [0, 1]: each
    # pair's products are added one common unit at a time in sorted-unit
    # order, left to right, and divided by the product of the two
    # ``_tfidf_norm``s; 0 where either vector is None or has norm 0
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


# ---------------------------------------------------------------------------
# Topic enrichment
# ---------------------------------------------------------------------------


def topic_related_titles(topic: str, corpus: WikiCorpus, cap: int = 10) -> list[str]:
    """The (at most) ``cap`` titles linked from the topic's article that
    are most enriched versus the background pool, ascending by
    hypergeometric p-value with lexicographic tie-breaks; empty when the
    corpus has no article for the topic."""
    record = corpus.article(topic)
    if record is None:
        return []
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


def avg_idf_in_article(copa_titles, topic: str, corpus: WikiCorpus | None,
                       tfidf: TfIdfModel | None) -> float:
    """Mean idf of the CoPA's manual titles that occur in the topic's
    article body; 0 when the corpus, the tf-idf model or the article is
    missing, or when nothing intersects."""
    record = None if corpus is None or tfidf is None else corpus.article(topic)
    body = frozenset() if record is None else record.body_terms
    present = [t for t in copa_titles if name_key(t) in body]
    return _left_sum(tfidf.idf(t) for t in present) / len(present) if present else 0.0
