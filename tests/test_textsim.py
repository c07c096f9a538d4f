import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa.textsim import (
    MAX_SET_PAIRS,
    SIMILARITY_STEP,
    ArticleRecord,
    DomainError,
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    UnknownTopic,
    WikiCorpus,
    _cosine_block,
    _dict_cosine,
    _tfidf_block,
    avg_idf_in_article,
    embed_term,
    hypergeom_pvalue,
    set_similarity,
    similarity_block,
    term_similarity,
    topic_related_titles,
)
from helpers import load_bench_generator
from oracles import hypergeom_tail_by_draws, hypergeom_tail_exact, set_similarity_mean


@pytest.fixture()
def store():
    return EmbeddingStore(
        {
            "smoking": np.array([1.0, 0.0]),
            "renewable": np.array([3.0, 4.0]),
            "energy": np.array([0.0, 2.0]),
            "east": np.array([1.0, 0.0]),
            "north": np.array([0.0, 1.0]),
        },
        dimension=2,
    )


class TestEmbedTerm:
    def test_single_word_unit_norm(self, store):
        vec = embed_term(store, "renewable")
        assert vec is not None
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_multiword_sums_then_normalizes(self, store):
        vec = embed_term(store, "renewable energy")
        expected = np.array([3.0, 6.0])
        expected = expected / np.linalg.norm(expected)
        assert np.allclose(vec, expected, atol=1e-12)

    def test_unknown_word_absent(self, store):
        assert embed_term(store, "qzx") is None

    def test_partial_coverage_uses_known_words(self, store):
        vec = embed_term(store, "qzx energy")
        assert np.allclose(vec, [0.0, 1.0])

    def test_case_normalized(self, store):
        assert np.allclose(embed_term(store, "Smoking"), embed_term(store, "smoking"))


class TestEmbeddingFile:
    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nBar 4 5 6\n")
        s = EmbeddingStore.from_file(path)
        assert s.dimension == 3
        assert "bar" in s
        assert np.allclose(s.get("FOO"), [1, 2, 3])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 3 4\n")
        s = EmbeddingStore.from_file(path)
        assert s.dimension == 2

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1 2\nbar 3 4 5\n")
        with pytest.raises(DomainError):
            EmbeddingStore.from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(DomainError):
            EmbeddingStore.from_file(path)

    def test_non_finite_component_rejected(self, tmp_path):
        for bad in ("nan", "inf", "-inf", "1e200", "1e308"):
            path = tmp_path / "emb.txt"
            path.write_text(f"foo 1 2\nbar 3 {bad}\n")
            with pytest.raises(DomainError, match="'bar'"):
                EmbeddingStore.from_file(path)
        with pytest.raises(DomainError):
            EmbeddingStore({"a": [1.0, math.nan]}, 2)
        with pytest.raises(DomainError, match="'a'"):
            EmbeddingStore({"a": [1e200, 0.0]}, 2)

    def test_overflowing_sum_of_word_vectors_names_the_term(self):
        store = EmbeddingStore({"big": [1.2e154, 0.0], "huge": [1.2e154, 1.0]}, 2)
        assert embed_term(store, "big") is not None
        with pytest.raises(DomainError, match="'big huge'"):
            embed_term(store, "big huge")

    @staticmethod
    def _per_token_parse(path):
        """The loader's earlier parse: float() on each token."""
        table = {}
        with open(path, encoding="utf-8") as fh:
            lines = [line.split() for line in fh if line.split()]
        if len(lines[0]) == 2 and all(t.lstrip("-").isdigit() for t in lines[0]):
            lines = lines[1:]
        for parts in lines:
            table[parts[0].strip().lower()] = np.array([float(v) for v in parts[1:]], dtype=float)
        return table

    def _assert_parse_unchanged(self, path):
        store = EmbeddingStore.from_file(path)
        reference = self._per_token_parse(path)
        assert len(store) == len(reference)
        for word, vec in reference.items():
            assert np.array_equal(store.get(word), vec), word

    def test_parse_equals_per_token_floats_on_bundled_data(self, data_dir):
        for name in ("toy_embeddings.txt", "toy_embeddings_alt.txt"):
            self._assert_parse_unchanged(data_dir / name)

    def test_parse_equals_per_token_floats_on_generated_workload(self, tmp_path):
        generate = load_bench_generator()
        generate.write_workload(str(tmp_path), seed=3, n_motions=28, n_copas=37)
        for name in ("embeddings.txt", "embeddings_alt.txt"):
            self._assert_parse_unchanged(tmp_path / name)

    def test_unusual_number_spellings_parse_like_float(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("foo 1_0 +3 1e-3 -0.0\nbar .5 7. -2E2 0\n")
        self._assert_parse_unchanged(path)

    def test_non_numeric_token_names_the_line(self, tmp_path):
        for bad in ("abc", "0x10", "1,5"):
            path = tmp_path / "emb.txt"
            path.write_text(f"foo 1 2\nbar 3 {bad}\n")
            with pytest.raises(DomainError, match=r"emb.txt:2: non-numeric"):
                EmbeddingStore.from_file(path)

    def test_accepts_plain_lists(self):
        s = EmbeddingStore({"a": [1.0, 0.0], "b": [0.0, 2.0]}, 2)
        assert np.allclose(embed_term(s, "b"), [0.0, 1.0])
        with pytest.raises(DomainError):
            EmbeddingStore({"a": [1.0, 0.0, 0.0]}, 2)


class TestTermSimilarity:
    def test_self_similarity_is_one(self, store):
        ctx = SimilarityContext(embeddings=store)
        assert term_similarity(SimilarityKind.EMBEDDING, "smoking", "smoking", ctx) == 1.0

    def test_orthogonal_maps_to_half(self, store):
        ctx = SimilarityContext(embeddings=store)
        assert term_similarity(SimilarityKind.EMBEDDING, "east", "north", ctx) == 0.5

    def test_absent_when_unrepresentable(self, store):
        ctx = SimilarityContext(embeddings=store)
        assert term_similarity(SimilarityKind.EMBEDDING, "qzx", "smoking", ctx) is None

    def test_absent_without_store(self):
        ctx = SimilarityContext()
        assert term_similarity(SimilarityKind.EMBEDDING, "a", "b", ctx) is None
        assert term_similarity(SimilarityKind.TFIDF, "a", "b", ctx) is None

    def test_alt_kind_uses_alt_store(self, store):
        ctx = SimilarityContext(alt_embeddings=store)
        assert term_similarity(SimilarityKind.EMBEDDING, "east", "north", ctx) is None
        assert term_similarity(SimilarityKind.EMBEDDING_ALT, "east", "north", ctx) == 0.5

    def test_tfidf_shared_token_toy(self):
        # three documents, every token has df=2, so equal idf weights;
        # "a b" vs "a c" share exactly one of two equally-weighted tokens.
        tfidf = TfIdfModel.from_documents([["a", "b"], ["a", "c"], ["b", "c"]])
        ctx = SimilarityContext(tfidf=tfidf)
        got = term_similarity(SimilarityKind.TFIDF, "a b", "a c", ctx)
        idf = math.log(3 / 2)
        expected = (idf * idf) / (math.hypot(idf, idf) ** 2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_tfidf_uses_article_body_when_available(self):
        corpus = WikiCorpus(
            articles={
                "solar": ArticleRecord({}, frozenset({"sun", "panel"})),
                "lunar": ArticleRecord({}, frozenset({"moon", "panel"})),
            },
            background_link_counts={},
            background_total_links=0,
        )
        tfidf = TfIdfModel.from_wiki_corpus(corpus)
        ctx = SimilarityContext(tfidf=tfidf, wiki=corpus)
        # both article bodies contain "panel" (idf>0 tokens only: sun/moon)
        got = term_similarity(SimilarityKind.TFIDF, "solar", "lunar", ctx)
        # panel has df=2=n_docs -> idf 0, dropped; sun vs moon share nothing
        assert got == 0.0

    def test_symmetry_all_kinds(self, store):
        tfidf = TfIdfModel.from_documents([["a", "b"], ["b", "c"], ["a", "c", "d"]])
        ctx = SimilarityContext(embeddings=store, alt_embeddings=store, tfidf=tfidf)
        pairs = [("renewable energy", "smoking"), ("a b", "c d"), ("east", "north")]
        for kind in SimilarityKind:
            for a, b in pairs:
                assert term_similarity(kind, a, b, ctx) == term_similarity(kind, b, a, ctx)


class TestSetSimilarity:
    def test_singletons(self, store):
        ctx = SimilarityContext(embeddings=store)
        direct = term_similarity(SimilarityKind.EMBEDDING, "east", "north", ctx)
        assert set_similarity(SimilarityKind.EMBEDDING, {"east"}, {"north"}, ctx) == direct

    def test_empty_side_gives_zero(self, store):
        ctx = SimilarityContext(embeddings=store)
        assert set_similarity(SimilarityKind.EMBEDDING, set(), {"north"}, ctx) == 0.0

    def test_all_absent_gives_zero(self, store):
        ctx = SimilarityContext(embeddings=store)
        assert set_similarity(SimilarityKind.EMBEDDING, {"qzx"}, {"wxv"}, ctx) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(12)]
        table = {w: rng.normal(size=5) for w in words}
        store = EmbeddingStore(table, 5)
        ctx = SimilarityContext(embeddings=store)
        for _ in range(50):
            a = set(rng.choice(words, size=3, replace=False)) | ({"unknown"} if rng.random() < 0.3 else set())
            b = set(rng.choice(words, size=4, replace=False))
            got = set_similarity(SimilarityKind.EMBEDDING, a, b, ctx)
            sims = [
                term_similarity(SimilarityKind.EMBEDDING, x, y, ctx)
                for x in sorted(a)
                for y in sorted(b)
            ]
            assert got == pytest.approx(set_similarity_mean(sims), abs=1e-12)

    def test_symmetry(self, store):
        ctx = SimilarityContext(embeddings=store)
        a = {"east", "north", "smoking"}
        b = {"renewable", "energy"}
        assert set_similarity(SimilarityKind.EMBEDDING, a, b, ctx) == pytest.approx(
            set_similarity(SimilarityKind.EMBEDDING, b, a, ctx), abs=1e-12
        )

    def test_duplicate_element_shifts_mean_like_oracle(self, store):
        ctx = SimilarityContext(embeddings=store)
        a = ["east", "east", "smoking"]  # multiset input
        b = ["north", "renewable"]
        got = set_similarity(SimilarityKind.EMBEDDING, a, b, ctx)
        sims = [
            term_similarity(SimilarityKind.EMBEDDING, x, y, ctx)
            for x in sorted(a)
            for y in sorted(b)
        ]
        assert got == pytest.approx(set_similarity_mean(sims), abs=1e-12)


def _kernel_context():
    """All three kinds with partial coverage: words without a vector, an
    alt store over fewer words, and tf-idf vectors from article bodies
    for some terms and from the term's own tokens for the rest."""
    rng = np.random.default_rng(61)
    words = ["east", "north", "smoking", "renewable", "energy", "tax", "law"]
    corpus = WikiCorpus(
        articles={
            "smoking": ArticleRecord({}, frozenset({"health", "tax", "law"})),
            "tax": ArticleRecord({}, frozenset({"money", "law", "health"})),
            "renewable energy": ArticleRecord({}, frozenset({"sun", "wind", "money"})),
            "law": ArticleRecord({}, frozenset({"court"})),
        },
        background_link_counts={},
        background_total_links=0,
    )
    return SimilarityContext(
        embeddings=EmbeddingStore({w: rng.normal(size=6) for w in words[:6]}, 6),
        alt_embeddings=EmbeddingStore({w: rng.normal(size=3) for w in words[2:]}, 3),
        tfidf=TfIdfModel.from_wiki_corpus(corpus),
        wiki=corpus,
    )


KERNEL_CTX = _kernel_context()
#: single and multi-word terms, some with no vector under some kind
KERNEL_TERMS = ("east", "north", "smoking", "renewable energy", "tax", "law", "qzx",
                "east law", "tax qzx")
term_lists = st.lists(st.sampled_from(KERNEL_TERMS), max_size=6)  # repeats allowed


class TestSimilarityBlock:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(SimilarityKind)), a=term_lists, b=term_lists)
    def test_entries_equal_their_one_by_one_blocks(self, kind, a, b):
        sims, present = similarity_block(kind, a, b, KERNEL_CTX)
        assert sims.shape == present.shape == (len(a), len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                one, one_present = similarity_block(kind, [x], [y], KERNEL_CTX)
                assert np.array_equal(sims[i:i + 1, j:j + 1], one)
                assert present[i, j] == one_present[0, 0]
                exact = term_similarity(kind, x, y, KERNEL_CTX)
                assert present[i, j] == (exact is not None)
                if exact is None:
                    assert sims[i, j] == 0.0
                elif kind is SimilarityKind.TFIDF:
                    # the block's tf-idf arithmetic is _dict_cosine's
                    assert sims[i, j] == np.rint(exact / SIMILARITY_STEP) * SIMILARITY_STEP
                else:
                    assert sims[i, j] == pytest.approx(exact, abs=SIMILARITY_STEP)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(SimilarityKind)), a=term_lists, b=term_lists,
           data=st.data())
    def test_set_similarity_is_order_free(self, kind, a, b, data):
        got = set_similarity(kind, a, b, KERNEL_CTX)
        a2 = data.draw(st.permutations(a))
        b2 = data.draw(st.permutations(b))
        assert set_similarity(kind, a2, b2, KERNEL_CTX) == got
        assert set_similarity(kind, b2, a2, KERNEL_CTX) == got

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(SimilarityKind)), a=term_lists, b=term_lists)
    def test_set_similarity_matches_mean_oracle(self, kind, a, b):
        got = set_similarity(kind, a, b, KERNEL_CTX)
        sims = [term_similarity(kind, x, y, KERNEL_CTX) for x in a for y in b]
        assert got == pytest.approx(set_similarity_mean(sims), abs=1e-12)

    def test_cosine_entries_are_per_pair_sums(self):
        # before rounding: every entry is its own pair's np.sum(u * v), in
        # every chunk of the broadcast product (a BLAS product is not)
        rng = np.random.default_rng(62)
        u = [rng.normal(size=300) for _ in range(40)]
        v = [rng.normal(size=300) for _ in range(25)]
        got = _cosine_block(u * 30, v)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                assert got[i, j] == (np.clip(np.sum(a * b), -1.0, 1.0) + 1.0) / 2.0
        assert np.array_equal(got, np.tile(got[:40], (30, 1)))

    def test_tfidf_entries_are_dict_cosines(self):
        # before rounding, with many common units per pair, so that the
        # order in which their products are added shows
        rng = np.random.default_rng(63)
        units = [f"u{i:02d}" for i in range(20)]
        vectors = [
            {u: float(rng.uniform(0.1, 3.0)) for u in rng.choice(units, size=12, replace=False)}
            for _ in range(30)
        ]
        got = _tfidf_block(vectors, vectors)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert got[i, j] == min(1.0, max(0.0, _dict_cosine(a, b)))

    def test_pair_bound(self, store):
        ctx = SimilarityContext(embeddings=store)
        side = ["east"] * (MAX_SET_PAIRS // 2)
        assert set_similarity(SimilarityKind.EMBEDDING, ["north"] * 2, side, ctx) == 0.5
        with pytest.raises(DomainError, match="exact-sum bound"):
            set_similarity(SimilarityKind.EMBEDDING, ["north"] * 2, side + ["east"], ctx)


class TestHypergeom:
    def test_zero_k_is_one(self):
        assert hypergeom_pvalue(0, 5, 4, 10) == 1.0

    def test_degenerate_certainty(self):
        assert hypergeom_pvalue(5, 5, 5, 5) == 1.0

    def test_enumerated_example(self):
        got = hypergeom_pvalue(3, 5, 4, 10)
        assert got == pytest.approx(hypergeom_tail_by_draws(3, 5, 4, 10), abs=1e-9)
        assert got == pytest.approx(66 / 252, abs=1e-9)

    def test_matches_exact_enumeration_small_populations(self):
        for N in range(1, 13):
            for n in range(N + 1):
                for K in range(N + 1):
                    for k in range(min(n, K) + 1):
                        got = hypergeom_pvalue(k, n, K, N)
                        want = hypergeom_tail_exact(k, n, K, N)
                        assert got == pytest.approx(want, abs=1e-9), (k, n, K, N)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            N = int(rng.integers(1, 31))
            n = int(rng.integers(0, N + 1))
            K = int(rng.integers(0, N + 1))
            values = [hypergeom_pvalue(k, n, K, N) for k in range(min(n, K) + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "args", [(-1, 5, 4, 10), (6, 5, 4, 10), (3, 11, 4, 10), (5, 5, 4, 10), (3, 5, 11, 10)]
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            hypergeom_pvalue(*args)


def _toy_corpus(link_counts, background, total):
    return WikiCorpus(
        articles={"topic": ArticleRecord(link_counts, frozenset())},
        background_link_counts=background,
        background_total_links=total,
    )


class TestWikiFile:
    def _write(self, tmp_path, link_count, total_links=10):
        doc = {
            "articles": {"Topic": {"link_counts": {"A": link_count}, "body_terms": ["a"]}},
            "background": {"link_counts": {"a": 1}, "total_links": total_links},
        }
        path = tmp_path / "wiki.json"
        path.write_text(json.dumps(doc))
        return path

    def test_integer_counts_load(self, tmp_path):
        corpus = WikiCorpus.from_file(self._write(tmp_path, 3))
        assert corpus.article("topic").link_counts == {"a": 3}
        assert corpus.background_total_links == 10

    def test_non_integer_counts_rejected(self, tmp_path):
        for bad in ("many", math.nan, 2.5, None, [1], -1):
            with pytest.raises(DomainError, match="wiki.json: article 'topic'"):
                WikiCorpus.from_file(self._write(tmp_path, bad))
        with pytest.raises(DomainError, match="total_links"):
            WikiCorpus.from_file(self._write(tmp_path, 3, total_links="lots"))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "wiki.json"
        for raw in ('{"articles": {', '{"background": {"total_links": ' + "1" * 5000 + "}}",
                    "[" * 200_000):
            path.write_text(raw)
            with pytest.raises(DomainError, match="not valid JSON"):
                WikiCorpus.from_file(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"articles": ["nato"]}, "'articles' must be an object"),
            ({"articles": {"nato": []}}, "article 'nato' must be an object"),
            ({"articles": {"nato": {"link_counts": [["a", 1]]}}}, "article 'nato': 'link_counts'"),
            ({"articles": {}, "background": 7}, "'background' must be an object"),
        ],
    )
    def test_non_object_records_rejected(self, tmp_path, doc, message):
        path = tmp_path / "wiki.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=f"wiki.json: {message}"):
            WikiCorpus.from_file(path)


class TestTopicRelatedTitles:
    def test_single_link(self):
        corpus = _toy_corpus({"only": 2}, {"only": 5}, 20)
        assert topic_related_titles("topic", corpus) == ["only"]

    def test_unknown_topic(self):
        corpus = _toy_corpus({"x": 1}, {}, 10)
        with pytest.raises(UnknownTopic):
            topic_related_titles("nope", corpus)

    def test_ranked_by_enumeration_oracle(self):
        # 12 linked titles, background chosen so p-values are distinct
        link_counts = {f"t{i:02d}": 1 + i % 3 for i in range(12)}
        background = {f"t{i:02d}": (7 * i) % 5 for i in range(12)}
        corpus = _toy_corpus(link_counts, background, 8)
        n = sum(link_counts.values())
        want = sorted(
            (
                hypergeom_tail_exact(c, n, c + background[t], n + 8),
                t,
            )
            for t, c in link_counts.items()
        )
        got = topic_related_titles("topic", corpus, cap=10)
        assert got == [t for _, t in want[:10]]
        assert len(got) == 10

    def test_ties_break_lexicographically(self):
        corpus = _toy_corpus({"bbb": 2, "aaa": 2}, {"aaa": 3, "bbb": 3}, 12)
        assert topic_related_titles("topic", corpus) == ["aaa", "bbb"]

    def test_deterministic(self):
        corpus = _toy_corpus({f"t{i}": i % 4 + 1 for i in range(9)}, {}, 15)
        first = topic_related_titles("topic", corpus)
        assert first == topic_related_titles("topic", corpus)
        # ascending p-values
        n = sum(i % 4 + 1 for i in range(9))
        ps = [hypergeom_tail_exact(int(t[1:]) % 4 + 1, n, int(t[1:]) % 4 + 1, n + 15) for t in first]
        assert ps == sorted(ps)


class TestAvgIdf:
    def _fixture(self):
        docs = [["alpha", "beta"], ["alpha", "gamma"], ["delta"], ["alpha", "delta"]]
        tfidf = TfIdfModel.from_documents(docs)
        corpus = WikiCorpus(
            articles={"topic": ArticleRecord({}, frozenset({"alpha", "beta", "zeta"}))},
            background_link_counts={},
            background_total_links=0,
        )
        return tfidf, corpus

    def test_no_intersection_gives_zero(self):
        tfidf, corpus = self._fixture()
        assert avg_idf_in_article(["gamma", "delta"], "topic", corpus, tfidf) == 0.0

    def test_missing_article_gives_zero(self):
        tfidf, corpus = self._fixture()
        assert avg_idf_in_article(["alpha"], "elsewhere", corpus, tfidf) == 0.0

    def test_singleton_mean(self):
        tfidf, corpus = self._fixture()
        got = avg_idf_in_article(["beta"], "topic", corpus, tfidf)
        assert got == pytest.approx(math.log(4 / 1), abs=1e-12)

    def test_mean_of_present_titles(self):
        tfidf, corpus = self._fixture()
        # alpha (df=3) and beta (df=1) are in the article; gamma is not
        got = avg_idf_in_article(["alpha", "beta", "gamma"], "topic", corpus, tfidf)
        want = (math.log(4 / 3) + math.log(4 / 1)) / 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_unknown_title_idf_uses_full_log(self):
        tfidf, _ = self._fixture()
        assert tfidf.idf("zeta") == pytest.approx(math.log(4), abs=1e-12)


@given(st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_unit_norm_property(dim):
    rng = np.random.default_rng(dim)
    table = {f"w{i}": rng.normal(size=dim) for i in range(6)}
    store = EmbeddingStore(table, dim)
    vec = embed_term(store, "w0 w1 w2")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
