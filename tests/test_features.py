import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa.features import (
    FEATURE_NAMES,
    EmptyTrainingSet,
    FeatureTable,
    motion_text_sets,
    standardize,
)
from copa.kb import Motion, load_dataset
from copa.textsim import (
    ArticleRecord,
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    WikiCorpus,
)
from helpers import build_dataset, random_dataset, random_embeddings, topic_words
from oracles import (
    compute_features,
    copa_text_sets,
    count_features,
    set_similarity,
    set_similarity_mean,
    term_similarity,
)

IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}
COUNT_SLICE = slice(IDX["action_share_of_all_motions"], None)

EMPTY_CTX = SimilarityContext()


def test_feature_vector_is_17_dimensional():
    assert len(FEATURE_NAMES) == 17
    # pair-major, similarity-kind-minor ordering of the 12 sim features
    assert FEATURE_NAMES[:6] == (
        "sim_mt_cm_embed",
        "sim_mt_cm_embed_alt",
        "sim_mt_cm_tfidf",
        "sim_mt_ct_embed",
        "sim_mt_ct_embed_alt",
        "sim_mt_ct_tfidf",
    )


def _toy_ds():
    # |M_*| = 10, |M_a| = 4 (ban), |M_c| = 5, |M_a ∩ M_c| = 2
    motions = [(f"m{i}", "ban" if i < 4 else "legalize", f"t{i}") for i in range(10)]
    labels = [("m0", "c"), ("m1", "c"), ("m4", "c"), ("m5", "c"), ("m6", "c")]
    return build_dataset(motions, [("c", "theme")], labels)


class TestCountFeatures:
    def test_counting_example(self):
        ds = _toy_ds()
        vec = compute_features(ds.motion("m0"), ds.copa("c"), ds, EMPTY_CTX)
        assert vec[IDX["action_share_of_all_motions"]] == pytest.approx(0.4)
        assert vec[IDX["action_copa_jaccard"]] == pytest.approx(2 / 7)
        assert vec[IDX["copa_share_of_action_motions"]] == pytest.approx(0.5)
        assert vec[IDX["action_share_of_copa_motions"]] == pytest.approx(0.4)

    def test_empty_copa_after_holdout(self):
        ds = build_dataset(
            motions=[("m1", "ban", "a"), ("m2", "ban", "b")],
            copas=[("c", "theme")],
            labels=[("m1", "c")],
        )
        vec = compute_features(ds.motion("m2"), ds.copa("c"), ds, EMPTY_CTX, loo_holdout="m1")
        assert vec[IDX["action_copa_jaccard"]] == 0.0
        assert vec[IDX["copa_share_of_action_motions"]] == 0.0
        assert vec[IDX["action_share_of_copa_motions"]] == 0.0

    def test_saturated_ratios(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(5)]
        labels = [(f"m{i}", "c") for i in range(5)]
        ds = build_dataset(motions, [("c", "theme")], labels)
        vec = compute_features(ds.motion("m0"), ds.copa("c"), ds, EMPTY_CTX)
        assert list(vec[COUNT_SLICE]) == [1.0, 1.0, 1.0, 1.0]

    def test_matches_counting_oracle_with_and_without_holdout(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            ds = random_dataset(rng)
            for m in ds.motions[:4]:
                for c in ds.copas:
                    for holdout in (None, ds.motions[0].id):
                        got = compute_features(m, c, ds, EMPTY_CTX, loo_holdout=holdout)
                        assert tuple(got[COUNT_SLICE]) == count_features(m, c, ds, holdout)

    def test_loo_shrinks_copa_denominator(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            ds = random_dataset(rng)
            for c in ds.copas:
                for mid in c.motion_ids:
                    m = ds.motion(mid)
                    vec = compute_features(m, c, ds, EMPTY_CTX, loo_holdout=mid)
                    _, _, _, f17 = count_features(m, c, ds, holdout=mid)
                    assert vec[IDX["action_share_of_copa_motions"]] == f17
                    # denominator is |M_c| - 1 because mid was a member
                    members_left = len(c.motion_ids) - 1
                    if members_left:
                        inter = vec[IDX["action_share_of_copa_motions"]] * members_left
                        assert abs(inter - round(inter)) < 1e-9

    def test_jaccard_bounded_by_containments(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            ds = random_dataset(rng)
            m = ds.motions[int(rng.integers(0, len(ds.motions)))]
            c = ds.copas[int(rng.integers(0, len(ds.copas)))]
            vec = compute_features(m, c, ds, EMPTY_CTX)
            f15 = vec[IDX["action_copa_jaccard"]]
            f16 = vec[IDX["copa_share_of_action_motions"]]
            f17 = vec[IDX["action_share_of_copa_motions"]]
            assert f15 <= min(f16, f17) + 1e-12


class TestTextSets:
    def test_m_t_uses_surface_form(self):
        ds = build_dataset(
            motions=[("m1", "ban", "smoking")], copas=[("c", "x")], labels=[]
        )
        sets = motion_text_sets(ds.motion("m1"), ds.actions, EMPTY_CTX)
        assert sets.m_t == {"ban", "smoking"}
        assert sets.m_w == ()

    def test_m_w_empty_without_article(self):
        corpus = WikiCorpus({}, {}, 0)
        ds = build_dataset(motions=[("m1", "ban", "smoking")], copas=[("c", "x")], labels=[])
        ctx = SimilarityContext(wiki=corpus)
        sets = motion_text_sets(ds.motion("m1"), ds.actions, ctx)
        assert sets.m_w == ()

    def test_m_w_capped_at_ten(self):
        corpus = WikiCorpus(
            articles={"smoking": ArticleRecord({f"t{i:02d}": 1 for i in range(14)}, frozenset())},
            background_link_counts={},
            background_total_links=5,
        )
        ds = build_dataset(motions=[("m1", "ban", "smoking")], copas=[("c", "x")], labels=[])
        sets = motion_text_sets(ds.motion("m1"), ds.actions, SimilarityContext(wiki=corpus))
        assert len(sets.m_w) == 10

    def test_c_t_excludes_heldout_topic_entirely(self):
        # two member motions share the topic "shared"; holding out one of
        # them removes the topic string from c_t, not just the motion
        ds = build_dataset(
            motions=[("m1", "ban", "shared"), ("m2", "legalize", "shared"), ("m3", "ban", "other")],
            copas=[("c", "x")],
            labels=[("m1", "c"), ("m2", "c"), ("m3", "c")],
        )
        sets = copa_text_sets(ds.copa("c"), ds, loo_holdout="m1")
        assert sets.c_t == {"other"}
        full = copa_text_sets(ds.copa("c"), ds)
        assert full.c_t == {"shared", "other"}

    def test_c_t_excludes_heldout_topic_in_any_case(self):
        # "smoking" and " smoking " are the held-out "Smoking" under
        # name_key: they leave c_t
        sets = copa_text_sets(_CASE_DS.copa("c1"), _CASE_DS, loo_holdout="m0")
        assert sets.c_t == {"tax"}
        assert copa_text_sets(_CASE_DS.copa("c1"), _CASE_DS, loo_holdout="m2").c_t == {
            "Smoking", "smoking", " smoking "
        }


#: three members of c1 whose topics differ only in case or surrounding space
_CASE_DS = build_dataset(
    motions=[("m0", "ban", "Smoking"), ("m1", "legalize", "smoking"), ("m2", "ban", "tax"),
             ("m3", "subsidize", "alcohol"), ("m4", "subsidize", " smoking ")],
    copas=[("c1", "one", True, ("health",)), ("c2", "two", True, ("money",))],
    labels=[("m0", "c1"), ("m1", "c1"), ("m2", "c1"), ("m3", "c2"), ("m1", "c2"), ("m4", "c1")],
)


class TestSimilarityFeatures:
    def test_deterministic_and_pure(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng)
        store = random_embeddings(rng, topic_words(ds))
        ctx = SimilarityContext(embeddings=store)
        m, c = ds.motions[0], ds.copas[0]
        first = compute_features(m, c, ds, ctx)
        second = compute_features(m, c, ds, ctx)
        assert np.array_equal(first, second)

    def test_similarity_features_in_unit_range(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            ds = random_dataset(rng)
            store = random_embeddings(rng, topic_words(ds))
            ctx = SimilarityContext(embeddings=store, alt_embeddings=store)
            vec = compute_features(ds.motions[0], ds.copas[0], ds, ctx)
            sims = vec[:12]
            assert np.all(sims >= 0.0) and np.all(sims <= 1.0)


class TestStandardizer:
    def test_single_vector_maps_to_zero(self):
        vec = np.arange(17, dtype=float)
        scaler = standardize([vec])
        assert np.allclose(scaler.transform(vec), 0.0)

    def test_two_point_case(self):
        a = np.zeros(17)
        b = np.zeros(17)
        b[13] = 2.0
        scaler = standardize([a, b])
        assert scaler.transform(a)[13] == pytest.approx(-1.0)
        assert scaler.transform(b)[13] == pytest.approx(1.0)

    def test_moments_recovered(self):
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(50, 17)) * rng.uniform(0.5, 3.0, size=17)
        scaler = standardize(vectors)
        transformed = scaler.transform(vectors)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero_even_off_train(self):
        vectors = np.ones((5, 3))
        vectors[:, 1] = np.arange(5)
        scaler = standardize(vectors)
        probe = np.array([99.0, 2.0, 99.0])
        out = scaler.transform(probe)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            standardize([])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 17),
           spread=st.integers(-3, 3), layout=st.sampled_from(["C", "F", "strided"]))
    def test_an_array_standardizes_as_the_list_of_its_rows(self, seed, n, d, spread, layout):
        # the column sums run in one order whatever the block's memory layout
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(n, 2 * d)) * 10.0 ** spread
        block[:, 1] = 7.0  # a constant feature
        array = {"C": np.ascontiguousarray(block[:, :d]), "F": np.asfortranarray(block[:, :d]),
                 "strided": block[:, ::2]}[layout]
        got, want = standardize(array), standardize(list(array))
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.scale, want.scale)


# ---------------------------------------------------------------------------
# The feature table and its leave-one-out folds
# ---------------------------------------------------------------------------


def _reference(ds, ctx, holdout=None):
    """compute_features of every pair, motion-major: the table's reference."""
    return np.array(
        [[compute_features(m, c, ds, ctx, loo_holdout=holdout) for c in ds.copas]
         for m in ds.motions]
    ).reshape(len(ds.motions), len(ds.copas), len(FEATURE_NAMES))


def _assert_table_exact(ds, ctx):
    table = FeatureTable(ds, ctx)
    assert np.array_equal(table.values, _reference(ds, ctx))
    for h, held in enumerate(ds.motions):
        expected = _reference(ds, ctx, holdout=held.id)
        fold = table.without_motion(held.id)
        keep = [i for i in range(len(ds.motions)) if i != h]
        assert np.array_equal(fold.values, expected[keep]), held.id
        assert np.array_equal(fold.labels, table.labels[keep])
        assert np.array_equal(fold.query_rows(held), expected[h])
        # a new query with the held-out motion's action and topic, scored
        # against the table as built, has that motion's unheld rows
        query = Motion("@query", held.action, held.topic)
        assert np.array_equal(table.query_rows(query), table.values[h]), held.id


def _full_context(ds, rng):
    words = topic_words(ds) | {"freedom", "health", "money"}
    articles = {
        m.topic: ArticleRecord(
            {"freedom": 3, "health": 1, f"{m.topic} law": 2}, frozenset({"freedom", m.topic})
        )
        for m in ds.motions[::2]
    }
    wiki = WikiCorpus(articles, {"freedom": 5, "health": 2}, 40)
    return SimilarityContext(
        embeddings=random_embeddings(rng, words),
        alt_embeddings=random_embeddings(rng, words, dim=5),
        tfidf=TfIdfModel.from_wiki_corpus(wiki),
        wiki=wiki,
    )


class TestFeatureTable:
    def test_folds_equal_compute_features_on_sample_data(self, data_dir):
        ds = load_dataset(data_dir / "sample_dataset.json")
        wiki = WikiCorpus.from_file(data_dir / "wiki_corpus.json")
        ctx = SimilarityContext(
            embeddings=EmbeddingStore.from_file(data_dir / "toy_embeddings.txt"),
            alt_embeddings=EmbeddingStore.from_file(data_dir / "toy_embeddings_alt.txt"),
            tfidf=TfIdfModel.from_wiki_corpus(wiki),
            wiki=wiki,
        )
        _assert_table_exact(ds, ctx)

    def test_shared_topic_and_only_member(self):
        # x shares h's topic without sharing its CoPAs (c3), and h is c2's
        # only member: both CoPAs change c_t when h is held out
        ds = build_dataset(
            motions=[
                ("h", "ban", "smoking"),
                ("x", "subsidize", "smoking"),
                ("y", "ban", "alcohol"),
                ("z", "legalize", "gambling"),
            ],
            copas=[
                ("c1", "one", True, ("health", "freedom")),
                ("c2", "two", True, ("money",)),
                ("c3", "three", False, ()),
            ],
            labels=[("h", "c1"), ("y", "c1"), ("h", "c2"), ("x", "c3"), ("z", "c3")],
        )
        ctx = _full_context(ds, np.random.default_rng(51))
        table = FeatureTable(ds, ctx)
        fold = table.without_motion("h")  # h is row 0
        fold_values = np.concatenate([fold.query_rows(ds.motion("h"))[None], fold.values])
        changed = fold_values != table.values
        ct = [IDX[name] for name in FEATURE_NAMES if "_ct_" in name]
        assert changed[:, :, ct].any(axis=(0, 2)).tolist() == [True, True, True]
        _assert_table_exact(ds, ctx)

    def test_fold_drops_case_variants_of_the_held_out_topic(self):
        ctx = _full_context(_CASE_DS, np.random.default_rng(54))
        _assert_table_exact(_CASE_DS, ctx)
        held = _CASE_DS.motion("m0")
        rows = FeatureTable(_CASE_DS, ctx).without_motion("m0").query_rows(held)
        sets = motion_text_sets(held, _CASE_DS.actions, ctx)
        assert sets.m_w  # the article keyed "Smoking" is found
        for name, kind in (("embed", SimilarityKind.EMBEDDING),
                           ("embed_alt", SimilarityKind.EMBEDDING_ALT),
                           ("tfidf", SimilarityKind.TFIDF)):
            assert rows[0, IDX[f"sim_mt_ct_{name}"]] == set_similarity(kind, sets.m_t, ["tax"], ctx)
            assert rows[0, IDX[f"sim_mw_ct_{name}"]] == set_similarity(kind, sets.m_w, ["tax"], ctx)

    def test_random_datasets_with_shared_topics(self):
        rng = np.random.default_rng(52)
        for _ in range(15):
            ds = random_dataset(rng, max_motions=12, max_copas=4, distinct_topics=False)
            _assert_table_exact(ds, _full_context(ds, rng))

    def test_repeated_manual_title_counts_twice(self):
        ds = build_dataset(
            motions=[("h", "ban", "smoking"), ("x", "subsidize", "alcohol")],
            copas=[
                ("c1", "one", True, ("health", "health", "freedom")),
                ("c2", "two", True, ("health", "freedom")),
            ],
            labels=[("h", "c1"), ("x", "c2")],
        )
        ctx = _full_context(ds, np.random.default_rng(53))
        _assert_table_exact(ds, ctx)
        table = FeatureTable(ds, ctx)
        m_t = motion_text_sets(ds.motions[0], ds.actions, ctx).m_t
        f = IDX["sim_mt_cm_embed"]
        for j, titles in enumerate((("health", "health", "freedom"), ("health", "freedom"))):
            sims = [term_similarity(SimilarityKind.EMBEDDING, x, y, ctx)
                    for x in m_t for y in titles]
            assert table.values[0, j, f] == pytest.approx(set_similarity_mean(sims), abs=1e-12)
        assert table.values[0, 0, f] != pytest.approx(table.values[0, 1, f], abs=1e-6)

    def test_labels_follow_the_dataset(self):
        ds = _toy_ds()
        table = FeatureTable(ds, EMPTY_CTX)
        assert table.labels.shape == (10, 1)
        assert [mid for mid, row in zip(ds.motion_ids, table.labels) if row[0] == 1.0] == [
            "m0", "m1", "m4", "m5", "m6"
        ]
