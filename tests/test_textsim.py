import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa import textsim
from copa.textsim import (
    MAX_SET_PAIRS,
    SIMILARITY_STEP,
    ArticleRecord,
    DomainError,
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    WikiCorpus,
    _cosine_block,
    _tfidf_block,
    avg_idf_in_article,
    embed_term,
    hypergeom_pvalue,
    similarity_block,
    topic_related_titles,
)
from helpers import EMBEDDING_TOKENS, load_bench_generator, load_from_fifo, tfidf_model
from oracles import (
    EmbeddingFileError,
    _dict_cosine,
    cosine_block_reference,
    embedding_file_reference,
    hypergeom_tail_by_draws,
    hypergeom_tail_exact,
    set_similarity,
    set_similarity_mean,
    term_similarity,
    unit_topic_vector,
)


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

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           words=st.lists(st.sampled_from(["w0", "w1", "w2", "zero", "qzx"]),
                          min_size=1, max_size=4))
    def test_equals_the_reference_bit_for_bit(self, dim, seed, words):
        # single words and multi-word terms over vectors with -0.0
        # components: the reference's sum turns each into +0.0
        rng = np.random.default_rng(seed)
        table = {}
        for word in ("w0", "w1", "w2"):
            vec = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            vec[rng.random(dim) < 0.4] = -0.0
            table[word] = vec
        table["zero"] = np.full(dim, -0.0)
        store = EmbeddingStore(table, dim)
        term = " ".join(words)
        got, want = embed_term(store, term), unit_topic_vector(store, term)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.tobytes() == want.tobytes()


def _mostly(valid, other):
    """``valid`` seven draws in eight, ``other`` otherwise."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 0 else valid)


#: what may separate two tokens: ``str.split`` splits on each
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\u2003", "\xa0"])
#: values that ``float`` reads, in spellings a plain block holds and others
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0.0", "+3", ".5", "7.", "-2E2", "1e-3"]),
)
#: what may stand in a record, valid or not: ``float`` reads the first
#: three spellings, an underscore and non-ASCII digits, but not the fourth
_TOKENS = st.sampled_from(["1_0", "\u0661", "\uff11", "#1"]) | EMBEDDING_TOKENS
#: words, among them two whose lowercasing is not byte by byte: a final
#: capital sigma, and a dotted capital I that lowers to two code points
_WORDS = st.sampled_from(["foo", "Foo", "FOO", "#foo", "#", "t0", "T0", "u1", "7",
                          "ΟΔΟΣ", "İstanbul"])


@st.composite
def _embedding_files(draw):
    """An embedding file's text: records of one width with numeric values
    or, in half the files, any records now and then; any separators, in
    about half the records one before the line end too (word2vec.c
    writes a space after each value); blank and whitespace-only lines,
    CRLF, LF or CR line ends, a header that may count right or wrong, and
    now and then a leading byte-order mark."""
    dimension = draw(st.integers(1, 3))
    noisy = draw(st.booleans())
    words = _mostly(_WORDS, _TOKENS) if noisy else _WORDS
    values = _mostly(_NUMBERS, _TOKENS) if noisy else _NUMBERS
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        width = draw(_mostly(st.just(dimension), st.integers(0, 4))) if noisy else dimension
        tokens = [draw(words)] + [draw(values) for _ in range(width)]
        lines.append(draw(st.sampled_from(["", " "])) + tokens[0]
                     + "".join(draw(_SEPARATORS) + t for t in tokens[1:])
                     + draw(st.just("") | _SEPARATORS))
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "\u2003\xa0"]), max_size=1))
    records = sum(1 for line in lines if line.split())
    count = draw(st.sampled_from([None, records, records, records, records + 1]))
    if count is not None:
        lines.insert(0, f"{count} {dimension}")
    if draw(st.booleans()):
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(_mostly(st.just(""), st.just("\ufeff")))
    return bom + end.join(lines) + draw(st.sampled_from([end, ""]))


EMBEDDING_FILES = _embedding_files()

#: plain decimals, now and then longer than the fast path takes
_PLAIN_NUMBERS = _mostly(st.from_regex(r"-?[0-9]{1,3}\.[0-9]{1,6}", fullmatch=True),
                         st.from_regex(r"-?[0-9]{40,70}\.[0-9]{1,60}", fullmatch=True))
#: what a mutation puts in: bytes of the grammar, and ASCII near it
_MUTANT_BYTES = st.sampled_from(list(b"09-. \n\t\r\x0b\x1c+eE_x#"))


@st.composite
def _mutated_plain_files(draw):
    """The bytes of a plain-decimal embedding file (records of one width,
    "\\n" line ends, now and then a header) with one byte replaced,
    inserted or deleted."""
    dimension = draw(st.integers(1, 3))
    lines = [" ".join([draw(st.sampled_from(["foo", "Foo", "t0", "u1"]))]
                      + [draw(_PLAIN_NUMBERS) for _ in range(dimension)])
             for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        lines.insert(0, f"{len(lines)} {dimension}")
    data = bytearray("".join(line + "\n" for line in lines).encode("ascii"))
    at = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        del data[at]
    else:
        data[at:at + (edit == "replace")] = bytes([draw(_MUTANT_BYTES)])
    return bytes(data)


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

    @pytest.mark.parametrize("text", ["foo 1 2\nbar 3 4\n", "2 2\nfoo 1 2\nbar 3 4\n", ""])
    def test_byte_order_mark_rejected(self, tmp_path, text):
        # kept, it would make the first word '\ufefffoo', or break the header
        path = tmp_path / "emb.txt"
        path.write_text("\ufeff" + text, encoding="utf-8")
        with pytest.raises(DomainError, match="emb.txt:1: starts with a UTF-8 byte-order mark"):
            EmbeddingStore.from_file(path)
        self._assert_loads_like_reference(path)

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
        # a record that a later one overrides is checked too, and named by its line
        path.write_text("foo 1 nan\nFoo 1 2\n")
        with pytest.raises(DomainError, match=r"emb.txt:1: vector for 'foo' has a non-finite"):
            EmbeddingStore.from_file(path)
        with pytest.raises(DomainError):
            EmbeddingStore({"a": [1.0, math.nan]}, 2)
        with pytest.raises(DomainError, match="'a'"):
            EmbeddingStore({"a": [1e200, 0.0]}, 2)
        with pytest.raises(DomainError, match="'a'"):
            EmbeddingStore({"a": [math.inf, 0.0], "A": [1.0, 0.0]}, 2)

    def test_header_count_must_equal_the_records(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("5 2\nfoo 1 2\n")
        with pytest.raises(DomainError, match="emb.txt: the header counts 5 records, the file has 1"):
            EmbeddingStore.from_file(path)
        # duplicates count as records; a header-only file of count 0 is an empty store
        path.write_text("2 2\nfoo 1 2\nFOO 3 4\n")
        store = EmbeddingStore.from_file(path)
        assert len(store) == 1 and np.array_equal(store.get("foo"), [3.0, 4.0])
        path.write_text("0 2\n")
        store = EmbeddingStore.from_file(path)
        assert len(store) == 0 and store.dimension == 2

    def test_overflowing_sum_of_word_vectors_names_the_term(self):
        store = EmbeddingStore({"big": [1.2e154, 0.0], "huge": [1.2e154, 1.0]}, 2)
        assert embed_term(store, "big") is not None
        with pytest.raises(DomainError, match="'big huge'"):
            embed_term(store, "big huge")

    @staticmethod
    def _assert_parse_unchanged(path):
        store = EmbeddingStore.from_file(path)
        reference, dimension = embedding_file_reference(path)
        assert store.dimension == dimension
        assert len(store) == len(reference)
        for word, vec in reference.items():
            assert store.get(word).tobytes() == vec.tobytes(), word

    def _assert_loads_like_reference(self, path):
        try:
            embedding_file_reference(path)
        except EmbeddingFileError as exc:
            with pytest.raises(DomainError) as raised:
                EmbeddingStore.from_file(path)
            assert str(raised.value) == str(exc)
        else:
            self._assert_parse_unchanged(path)

    @given(text=EMBEDDING_FILES, block=st.sampled_from([1, 2, 3, 1000]))
    @settings(max_examples=300, deadline=None)
    def test_any_file_loads_like_the_reference(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(textsim, "_BLOCK_LINES", block):
            self._assert_loads_like_reference(path)

    @given(data=_mutated_plain_files(), block=st.sampled_from([1, 2, 3, 250]))
    @settings(max_examples=300, deadline=None)
    def test_a_plain_file_with_one_byte_changed_loads_like_the_reference(
            self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(data)
        with mock.patch.object(textsim, "_BLOCK_LINES", block):
            self._assert_loads_like_reference(path)

    #: spellings next to the plain-decimal rule, -?[0-9]+\.[0-9]+ of at
    #: most 100 bytes split by single spaces: (value field, plain?)
    NEAR_PLAIN = [
        ("1.5 -2.25", True), ("-0.0 0.0", True), (".5 1.5", False),
        pytest.param("1.5 " + "9" * 98 + ".9", True, id="100-byte token"),
        ("1.5 .5", False), ("1.5 5.", False), ("1.5 -.5", False), ("1.5 --1.0", False),
        ("1.5 1.2.3", False), ("1.5 1.2.3.4", False), ("1.5 1.0-", False),
        ("1.5 1.2-5", False), ("1.5  -2.25", False), ("1.5\t-2.25", False),
        ("1.5 -2.25 ", False), ("1.5 1e5", False), ("1.5 2.5e5", False), ("1.5 2_0.5", False),
        pytest.param("1.5 " + "1" * 120 + ".5", False, id="120-digit integer part"),
        pytest.param("9" * 99 + ".9 1.5", False, id="101-byte first token"),
        pytest.param("1.5 1" + "0" * 200 + "." + "0" * 199, False,
                     id="400-digit 1e200, whose square overflows"),
    ]

    @pytest.mark.parametrize("field, plain", NEAR_PLAIN)
    def test_near_plain_spellings_load_like_the_reference(self, tmp_path, field, plain):
        path = tmp_path / "emb.txt"
        path.write_text(f"bar {field}\nfoo 0.5 -2.0\n")
        self._assert_loads_like_reference(path)
        assert (textsim._plain_block([field + "\n"], None, textsim._Masks()) is not None) == plain

    def test_plain_files_are_not_parsed_when_loaded(self, data_dir, tmp_path, monkeypatch):
        # a change that sent these files to the per-line parse would only
        # show as a slower benchmark
        def per_line(path, *block):
            raise AssertionError(f"{path}: a plain-decimal block was parsed when loaded")

        monkeypatch.setattr(textsim, "_parse_lines", per_line)
        generate = load_bench_generator()
        generate.write_workload(str(tmp_path), seed=1, n_motions=28, n_copas=37)
        for path in (data_dir / "toy_embeddings.txt", data_dir / "toy_embeddings_alt.txt",
                     tmp_path / "embeddings.txt", tmp_path / "embeddings_alt.txt"):
            self._assert_parse_unchanged(path)

    def test_later_shorter_blocks_reuse_the_masks_of_a_longer_one(self, tmp_path, monkeypatch):
        # blocks of two records: the first, longest block sizes the masks
        # that the others check their bytes on, and each leaves its marks
        # there; no byte of an earlier block may count in a later one, and
        # only the block that is not plain is parsed when loaded
        long = "1" * 60 + "." + "2" * 30
        records = [f"a {long} -{long}", f"b -{long} {long}",  # plain, long tokens
                   "c 0.5 -1.25", "d 3.0 4.5",  # plain
                   "e 123456789012345 -7", "f 0.5 7",  # not plain, longer than the next
                   "g -0.25 1.0", "h 8.5 9.75",  # plain
                   "i 1.5 -2.5"]  # plain, the last block
        path = tmp_path / "emb.txt"
        path.write_text("".join(r + "\n" for r in records))
        parsed, parse_lines = [], textsim._parse_lines

        def counted(path, fields, *args):
            parsed.append(list(fields))
            return parse_lines(path, fields, *args)

        monkeypatch.setattr(textsim, "_parse_lines", counted)
        with mock.patch.object(textsim, "_BLOCK_LINES", 2):
            self._assert_loads_like_reference(path)
        assert parsed == [["123456789012345 -7\n", "0.5 7\n"]]

    def test_a_plain_row_is_converted_when_first_read(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1.5 -2.25\nbar 0.5 4.0\nFOO 3.0 0.25\n")
        converted = []

        def counted(token):
            converted.append(token)
            return float(token)

        monkeypatch.setattr(textsim, "float", counted, raising=False)
        with mock.patch.object(textsim, "_BLOCK_LINES", 2):
            store = EmbeddingStore.from_file(path)
        assert len(store) == 2 and converted == []
        foo = store.get("Foo")
        assert foo.tolist() == [3.0, 0.25] and converted == [b"3.0", b"0.25"]
        assert store.get("foo") is foo and len(converted) == 2
        with pytest.raises(ValueError):
            foo[0] = 1.0
        assert store.get("bar").tolist() == [0.5, 4.0] and converted[2:] == [b"0.5", b"4.0"]
        assert store.get("qzx") is None and len(converted) == 4

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_named_pipe_loads_like_a_file(self, tmp_path):
        text = "2 2\nfoo 1.5 -2.25\nbar 1e3 4\n"
        store = load_from_fifo(tmp_path, "emb", text.encode(), EmbeddingStore.from_file)
        assert store.get("foo").tolist() == [1.5, -2.25] and store.get("bar").tolist() == [1e3, 4.0]
        with pytest.raises(DomainError, match="bom:1: starts with a UTF-8 byte-order mark"):
            load_from_fifo(tmp_path, "bom", ("\ufeff" + text).encode(), EmbeddingStore.from_file)

    def test_bad_line_in_a_later_block_is_named(self, tmp_path):
        path = tmp_path / "emb.txt"
        records = [f"w{i} {i}.5 -{i}e-3" for i in range(2500)]
        path.write_text("\n".join(records) + "\n")
        self._assert_parse_unchanged(path)
        for lineno, bad, message in ((2400, "w 1 x", "non-numeric"),
                                     (1999, "w 1 2 3", "expected 2 components, got 3"),
                                     (2001, "w", "expected 2 components, got 0"),
                                     (2500, "w 1 1e999", "vector for 'w' has a non-finite")):
            lines = records[:lineno - 1] + [bad] + records[lineno:]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DomainError, match=f"emb.txt:{lineno}: {message}"):
                EmbeddingStore.from_file(path)
            self._assert_loads_like_reference(path)

    def test_bad_line_before_bytes_that_are_not_utf8_is_named(self, tmp_path):
        # in blocks of 1000 the loader meets the undecodable bytes before it
        # parses the block holding the bad line, and parses that block
        # first; in smaller ones the bad line's block is parsed earlier
        path = tmp_path / "emb.txt"
        good = "".join(f"w{i} 1 2\n" for i in range(3, 1000))
        path.write_bytes(b"foo 1 2\nbar 1 x\n" + good.encode() + b"\xff\n")
        for block in (1, 2, 3, 1000):
            with mock.patch.object(textsim, "_BLOCK_LINES", block):
                with pytest.raises(DomainError, match=r"emb.txt:2: non-numeric"):
                    EmbeddingStore.from_file(path)

    @pytest.mark.parametrize("block", [1, 1000])
    @pytest.mark.parametrize("text", ["foo 1_0 2\nbar 3 4\n", "foo 1 2\nbar 3 x\n",
                                      "foo 1 2\nbar 3 4 5\n", "foo 1 2\nbar\n",
                                      "2 2\nfoo 1.5 2.5 3.5 4.5\nbar\n",
                                      "2 2\nfoo 1 2\nbar \u0661 4\n", "1 0\nfoo 1.5\n"])
    def test_a_file_the_per_line_parse_reads_is_read_once(self, tmp_path, monkeypatch,
                                                          text, block):
        # a block that is not plain is parsed from the lines already read,
        # never from a second read of the file
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        reads, read_lines = [], textsim.read_lines

        def counted(p):
            reads.append(p)
            return read_lines(p)

        monkeypatch.setattr(textsim, "read_lines", counted)
        with mock.patch.object(textsim, "_BLOCK_LINES", block):
            self._assert_loads_like_reference(path)
        assert reads == [path]

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
        for bad in ("abc", "0x10", "1,5", "4 #5"):
            path = tmp_path / "emb.txt"
            path.write_text(f"foo 1 2\nbar 3 {bad}\n")
            with pytest.raises(DomainError, match=r"emb.txt:2: non-numeric"):
                EmbeddingStore.from_file(path)

    def test_accepts_plain_lists(self):
        s = EmbeddingStore({"a": [1.0, 0.0], "b": [0.0, 2.0]}, 2)
        assert np.allclose(embed_term(s, "b"), [0.0, 1.0])
        with pytest.raises(DomainError):
            EmbeddingStore({"a": [1.0, 0.0, 0.0]}, 2)

    def test_stored_and_memoized_vectors_are_read_only(self, store, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 3 4\n")
        for s, word in ((store, "smoking"), (EmbeddingStore.from_file(path), "a")):
            with pytest.raises(ValueError):
                s.get(word)[0] = 5.0
        ctx = SimilarityContext(embeddings=store)
        vector = ctx.term_vector(SimilarityKind.EMBEDDING, "energy")
        with pytest.raises(ValueError):
            vector *= 0
        assert term_similarity(SimilarityKind.EMBEDDING, "energy", "energy", ctx) == 1.0
        assert store.get("smoking").tolist() == [1.0, 0.0]


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
        tfidf = tfidf_model([["a", "b"], ["a", "c"], ["b", "c"]])
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

    def test_tfidf_norms_do_not_depend_on_the_hash_seed(self, tmp_path):
        # an article's body terms are a frozenset, whose order follows the
        # interpreter's hash seed, and a norm adds its squares in its
        # vector's order: the vector takes the terms in sorted order
        load_bench_generator().write_workload(str(tmp_path), seed=1, n_motions=28, n_copas=37)
        script = (
            "import json, pathlib\n"
            "from copa.textsim import SimilarityContext, SimilarityKind, TfIdfModel, WikiCorpus,"
            " _tfidf_norm\n"
            "wiki = WikiCorpus.from_file('wiki.json')\n"
            "ctx = SimilarityContext(tfidf=TfIdfModel.from_wiki_corpus(wiki), wiki=wiki)\n"
            "for topic in sorted(json.loads(pathlib.Path('wiki.json').read_text())['articles']):\n"
            "    print(topic, _tfidf_norm(ctx.term_vector(SimilarityKind.TFIDF, topic)).hex())\n"
        )
        src = str(Path(textsim.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                                 if p)}
            result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                    capture_output=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count(b"\n") == 19
        assert outputs[0] == outputs[1] == outputs[2]

    def test_a_replaced_context_forgets_the_removed_stores(self, store):
        corpus = _toy_corpus({"health": 2}, {"health": 1}, 10)
        ctx = SimilarityContext(embeddings=store, wiki=corpus)
        assert ctx.term_vector(SimilarityKind.EMBEDDING, "east") is not None
        assert ctx.related_titles("topic") == ("health",)
        bare = dataclasses.replace(ctx, embeddings=None, wiki=None)
        assert bare.term_vector(SimilarityKind.EMBEDDING, "east") is None
        assert bare.related_titles("topic") == ()

    def test_symmetry_all_kinds(self, store):
        tfidf = tfidf_model([["a", "b"], ["b", "c"], ["a", "c", "d"]])
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


def _half_step_cosine(rng) -> float:
    """A cosine c whose mapped (c + 1) / 2 is exactly a half-step,
    (k + 1/2)·SIMILARITY_STEP; c is exact in float64."""
    return (2 * int(rng.integers(0, 2**40)) + 1) * SIMILARITY_STEP - 1.0


@st.composite
def _cosine_rows(draw):
    """Two lists of vectors in one dimension d (1-300), pairwise: random
    directions of random magnitudes, a near-duplicate and a near-antipodal
    pair, pairs built with a mapped cosine within ~1e-15 of a half-step
    (scaled by powers of two, which keeps their dot product) and one pair
    exactly on a half-step in any summation order."""
    d = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit():
        x = rng.normal(size=d)
        return x / np.linalg.norm(x)

    u, v = [], []
    for _ in range(draw(st.integers(0, 8))):
        u.append(unit() * 10.0 ** rng.uniform(-2, 1))
        v.append(unit() * 10.0 ** rng.uniform(-2, 1))
    for sign in (1.0, -1.0):
        a = unit()
        u.append(a)
        v.append(sign * a + rng.normal(size=d) * 10.0 ** rng.uniform(-12, -6))
    for _ in range(draw(st.integers(1, 8))):
        a, c = unit(), _half_step_cosine(rng)
        b = c * a
        if d > 1:
            w = unit()
            w -= (w @ a) * a
            b += math.sqrt(1.0 - c * c) * w / np.linalg.norm(w)
        scale = 2.0 ** int(rng.integers(-4, 5))
        u.append(a * scale)
        v.append(b / scale)
    c = _half_step_cosine(rng)
    a, b = np.zeros(d), np.zeros(d)
    a[0], b[0] = 1.0, c
    if d > 1:
        b[d - 1] = math.sqrt(1.0 - c * c)
    u.append(a)
    v.append(b)
    return u, v


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
        # every entry is its own pair's np.sum(u * v), mapped and rounded, in
        # every chunk; these vectors are far from unit, so the guard
        # recomputes every entry
        rng = np.random.default_rng(62)
        u = [rng.normal(size=300) for _ in range(40)]
        v = [rng.normal(size=300) for _ in range(25)]
        reference = cosine_block_reference(u * 30, v)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                assert reference[i, j] == (np.clip(np.sum(a * b), -1.0, 1.0) + 1.0) / 2.0
        got = _cosine_block(u * 30, v)
        want = np.rint(reference / SIMILARITY_STEP) * SIMILARITY_STEP
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, np.tile(got[:40], (30, 1)))

    @settings(max_examples=100, deadline=None)
    @given(rows=_cosine_rows())
    def test_guarded_cosines_equal_the_reference(self, rows):
        u, v = rows
        want = np.rint(cosine_block_reference(u, v) / SIMILARITY_STEP) * SIMILARITY_STEP
        with mock.patch.object(textsim, "_pair_dots", wraps=textsim._pair_dots) as spy:
            got = _cosine_block(u, v)
        assert got.tobytes() == want.tobytes()
        # the pair exactly on a half-step is among the recomputed ones
        assert sum(len(call.args[0]) for call in spy.call_args_list) >= 1
        # every entry recomputed, three pairs per chunk
        with mock.patch.object(textsim, "_rounding_margin", lambda u, v: np.inf), \
                mock.patch.object(textsim, "_CHUNK_BYTES", 3 * 8 * len(u[0])):
            assert _cosine_block(u, v).tobytes() == want.tobytes()

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


class TestWikiCorpus:
    def test_article_keys_built_in_code_are_case_insensitive(self):
        early = ArticleRecord({"tar": 1}, frozenset({"tar"}))
        late = ArticleRecord({"health": 2, "tax": 1}, frozenset({"health"}))
        corpus = WikiCorpus({" Smoking": early, "Smoking": late}, {"health": 1}, 10)
        for spelling in ("Smoking", "smoking", " SMOKING "):
            assert corpus.article(spelling) is late  # the later record wins
        assert list(corpus.records()) == [late]
        ctx = SimilarityContext(wiki=corpus)
        assert ctx.related_titles("Smoking") == ("health", "tax")
        assert ctx.related_titles("Smoking") == tuple(topic_related_titles("smoking", corpus))

    def test_names_built_in_code_equal_names_read_from_file(self, tmp_path):
        # link titles, body terms and background titles are keyed by
        # name_key whether the corpus is built in code or read from a file
        links, body = {"Health": 2, "x": 1}, ["Health"]
        path = tmp_path / "wiki.json"
        path.write_text(json.dumps({
            "articles": {"topic": {"link_counts": links, "body_terms": body}},
            "background": {"link_counts": {"health": 1}, "total_links": 10},
        }))
        tfidf = TfIdfModel({"health": 2.0}, 5)
        corpora = [WikiCorpus({"topic": ArticleRecord(links, frozenset(body))}, background, 10)
                   for background in ({"health": 1}, {" Health": 1})]
        for corpus in (*corpora, WikiCorpus.from_file(path)):
            assert corpus.background_link_counts == {"health": 1}
            assert avg_idf_in_article(["health"], "topic", corpus, tfidf) == 2.0
            assert topic_related_titles("topic", corpus) == ["health", "x"]


class TestTopicRelatedTitles:
    def test_single_link(self):
        corpus = _toy_corpus({"only": 2}, {"only": 5}, 20)
        assert topic_related_titles("topic", corpus) == ["only"]

    def test_unknown_topic(self):
        corpus = _toy_corpus({"x": 1}, {}, 10)
        assert corpus.article("nope") is None
        assert topic_related_titles("nope", corpus) == []
        assert SimilarityContext(wiki=corpus).related_titles("nope") == ()

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
        tfidf = tfidf_model(docs)
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

    def test_missing_corpus_or_model_gives_zero(self):
        tfidf, corpus = self._fixture()
        assert avg_idf_in_article(["alpha"], "topic", corpus, None) == 0.0
        assert avg_idf_in_article(["alpha"], "topic", None, tfidf) == 0.0

    def test_idfs_are_added_left_to_right(self):
        # the builtin sum compensates on Python >= 3.12, where it gives 1.0
        titles = [f"t{i}" for i in range(10)]
        tfidf = TfIdfModel({t: 0.1 for t in titles}, 5)
        corpus = WikiCorpus({"topic": ArticleRecord({}, frozenset(titles))}, {}, 0)
        assert avg_idf_in_article(titles, "topic", corpus, tfidf) == 0.9999999999999999 / 10

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

    def test_wiki_idf_is_the_idf_of_its_body_term_documents(self):
        corpus = WikiCorpus(
            articles={"a": ArticleRecord({}, frozenset({"Alpha", " beta"})),
                      "b": ArticleRecord({}, frozenset({"alpha", "Gamma "}))},
            background_link_counts={}, background_total_links=0)
        tfidf = TfIdfModel.from_wiki_corpus(corpus)
        want = tfidf_model([["Alpha", " beta"], ["alpha", "Gamma "]])
        assert tfidf == want
        assert tfidf.idf_table == {"alpha": 0.0, "beta": math.log(2), "gamma": math.log(2)}

    def test_idf_keys_built_in_code_are_normalized(self):
        # as a WikiCorpus record keys its body terms; the later of two spellings wins
        assert TfIdfModel({"Health": 2.0}, 5).idf("Health") == 2.0
        tfidf = TfIdfModel({"Health": 2.0, " health ": 3.0}, 5)
        assert tfidf.idf_table == {"health": 3.0}
        assert tfidf.idf("HEALTH") == 3.0


@given(st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_unit_norm_property(dim):
    rng = np.random.default_rng(dim)
    table = {f"w{i}": rng.normal(size=dim) for i in range(6)}
    store = EmbeddingStore(table, dim)
    vec = embed_term(store, "w0 w1 w2")
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
