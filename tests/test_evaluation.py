import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa import classifiers as clfmod
from copa.classifiers import TopicSentenceCorpus
from copa.cli import AppConfig
from copa.evaluation import (
    METHODS,
    DatasetTooSmall,
    EvalConfig,
    FoldError,
    baseline_largest,
    default_threshold_grid,
    leave_one_out,
    method_inputs,
    p_at_1_curve,
    pr_curve,
    score_motion,
    topic_method_copas,
)
from copa.kb import Motion
from copa.textsim import (
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    WikiCorpus,
)
from helpers import (
    build_dataset,
    matrix_entries,
    random_dataset,
    random_embeddings,
    score_matrix,
    topic_words,
)
from oracles import (
    ba_scores,
    build_blacklist,
    knn_scores,
    p_at_1_points,
    pr_points,
    predicted_pairs,
    w2v_row_reference,
    without_motion,
)
from test_classifiers import _reference_scores as nb_row_reference

GRID = default_threshold_grid()


def _random_matrix(rng, motions, copas, density=0.7):
    entries = {
        (m, c): float(rng.random())
        for m in motions
        for c in copas
        if rng.random() < density
    }
    return score_matrix(motions, copas, entries)


# ---------------------------------------------------------------------------
# Leave-one-out protocol
# ---------------------------------------------------------------------------


class TestLeaveOneOut:
    def test_three_motions_make_three_folds_of_two(self):
        ds = build_dataset(
            [("m1", "ban", "a"), ("m2", "ban", "b"), ("m3", "legalize", "c")],
            [("c1", "one")],
            [("m1", "c1"), ("m2", "c1")],
        )
        config = EvalConfig(methods=("ba",), ba_k=1)
        out = leave_one_out(ds, config, SimilarityContext())
        ba = out["ba"]
        # each fold trains on the other two motions; recompute per fold
        for i, m in enumerate(ds.motions):
            fold = without_motion(ds, m.id)
            assert len(fold.motions) == 2
            assert np.array_equal(ba.scores[i], ba_scores(fold, m, k=1), equal_nan=True)

    def test_ba_abstains_when_fold_support_below_k(self):
        # three ban motions in c1: every fold leaves n(c1, ban) = 2 = k - 1
        ds = build_dataset(
            [("m1", "ban", "a"), ("m2", "ban", "b"), ("m3", "ban", "c")],
            [("c1", "one")],
            [("m1", "c1"), ("m2", "c1"), ("m3", "c1")],
        )
        config = EvalConfig(methods=("ba",), ba_k=3)
        out = leave_one_out(ds, config, SimilarityContext())
        assert matrix_entries(out["ba"]) == {}

    def test_knn_folds_match_per_fold_oracle(self):
        rng = np.random.default_rng(91)
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(10)]
        labels = [(f"m{i}", "c1") for i in range(5)] + [(f"m{i}", "c2") for i in range(4, 10)]
        ds = build_dataset(
            motions,
            [("c1", "one", True, ("x",)), ("c2", "two", True, ("y",))],
            labels,
        )
        store = random_embeddings(rng, topic_words(ds))
        ctx = SimilarityContext(embeddings=store)
        config = EvalConfig(methods=("knn",), knn_min_neighbors=2, topic_min_motions=2)
        out = leave_one_out(ds, config, ctx)
        for i, m in enumerate(ds.motions):
            fold = without_motion(ds, m.id)
            want = knn_scores(fold, m, store, min_neighbors=2, top=5,
                              exclude_topic=m.topic)
            assert np.array_equal(out["knn"].scores[i], want, equal_nan=True)

    def test_knn_folds_drop_the_held_out_topic_in_any_spelling(self):
        # "smoking", "smoking " and "Smoking" are one topic (name_key): none
        # of them is a KNN candidate in another's fold, so every fold abstains
        ds = build_dataset(
            [("m0", "ban", "smoking"), ("m1", "legalize", "smoking "),
             ("m2", "subsidize", "Smoking"), ("m3", "ban", "tax")],
            [("c1", "one", True, ("x",)), ("c2", "two", True, ("y",))],
            [("m1", "c1"), ("m2", "c1"), ("m3", "c2")],
        )
        store = EmbeddingStore({"smoking": np.array([1.0, 0.0]), "tax": np.array([0.0, 1.0])}, 2)
        config = EvalConfig(methods=("knn",), knn_min_neighbors=1, topic_min_motions=1)
        out = leave_one_out(ds, config, SimilarityContext(embeddings=store))
        assert np.isnan(out["knn"].scores).all()

    def test_topic_eligibility_filters_small_or_untagged_copas(self):
        rng = np.random.default_rng(92)
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(6)]
        labels = [(f"m{i}", "big") for i in range(6)] + [("m0", "small"), ("m1", "plain")]
        ds = build_dataset(
            motions,
            [("big", "Big", True, ("x",)), ("small", "Small", True, ("y",)),
             ("plain", "Plain", False, ())],
            labels,
        )
        assert topic_method_copas(ds, 3) == {"big"}
        store = random_embeddings(rng, topic_words(ds))
        config = EvalConfig(methods=("knn",), knn_min_neighbors=1, topic_min_motions=3)
        out = leave_one_out(ds, config, SimilarityContext(embeddings=store))
        scored_copas = {cid for (_, cid) in matrix_entries(out["knn"])}
        assert scored_copas <= {"big"}
        assert scored_copas  # the big CoPA does receive scores

    def test_ensemble_matrix_is_union_of_methods(self):
        rng = np.random.default_rng(93)
        motions = [(f"m{i}", ("ban", "legalize")[i % 2], f"t{i}") for i in range(8)]
        labels = [(f"m{i}", "c1") for i in range(0, 8, 2)] + [(f"m{i}", "c2") for i in range(1, 8, 2)]
        ds = build_dataset(
            motions, [("c1", "one", True, ("x",)), ("c2", "two", True, ("y",))], labels
        )
        store = random_embeddings(rng, topic_words(ds))
        config = EvalConfig(methods=("ba", "knn"), ba_k=1, knn_min_neighbors=1,
                            topic_min_motions=1)
        out = leave_one_out(ds, config, SimilarityContext(embeddings=store))
        included = set(ds.copa_ids)
        for t in default_threshold_grid():
            union = predicted_pairs(matrix_entries(out["ba"]), t, included) | predicted_pairs(
                matrix_entries(out["knn"]), t, included
            )
            assert predicted_pairs(matrix_entries(out["ensemble"]), t, included) == union

    def test_all_methods_smoke_and_determinism(self):
        rng = np.random.default_rng(94)
        motions = [(f"m{i}", ("ban", "legalize")[i % 2], f"t{i}") for i in range(6)]
        labels = [(f"m{i}", "c1") for i in range(3)] + [(f"m{i}", "c2") for i in range(3, 6)]
        ds = build_dataset(
            motions, [("c1", "one", True, ("x",)), ("c2", "two", True, ("y",))], labels
        )
        store = random_embeddings(rng, topic_words(ds))
        corpus = TopicSentenceCorpus({f"t{i}": [f"sentence about t{i} stuff"] for i in range(6)})
        ctx = SimilarityContext(embeddings=store, alt_embeddings=store, sentences=corpus)
        config = EvalConfig(
            methods=("ba", "knn", "w2v", "nb", "lr"),
            ba_k=1, knn_min_neighbors=1, topic_min_motions=1,
            tol=1e-4, max_iters=200,
        )
        first = leave_one_out(ds, config, ctx)
        second = leave_one_out(ds, config, ctx)
        for name in first:
            assert matrix_entries(first[name]) == matrix_entries(second[name])
        assert set(first) == {"ba", "knn", "w2v", "nb", "lr", "ensemble"}

    def test_fold_errors_carry_fold_id(self, monkeypatch):
        ds = build_dataset(
            [("m1", "ban", "a"), ("m2", "ban", "b")], [("c1", "one", True, ("x",))],
            [("m1", "c1"), ("m2", "c1")],
        )

        def broken(model, motion):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(clfmod, "predict_ba", broken)
        config = EvalConfig(methods=("ba",), topic_min_motions=1)
        with pytest.raises(FoldError, match="m1"):
            leave_one_out(ds, config, SimilarityContext())

    def test_w2v_needs_embeddings_before_the_first_fold(self):
        ds = build_dataset(
            [("m1", "ban", "a"), ("m2", "ban", "b")], [("c1", "one", True, ("x",))],
            [("m1", "c1"), ("m2", "c1")],
        )
        config = EvalConfig(methods=("w2v",), topic_min_motions=1)
        with pytest.raises(ValueError, match="method 'w2v' requires the 'embeddings' store"):
            leave_one_out(ds, config, SimilarityContext())  # no embeddings

    def test_needs_two_motions(self):
        ds = build_dataset([("m1", "ban", "a")], [("c1", "one")], [])
        with pytest.raises(DatasetTooSmall, match="leave-one-out needs at least 2 motions"):
            leave_one_out(ds, EvalConfig(methods=("ba",)), SimilarityContext())

    def test_nb_requires_corpus(self):
        ds = build_dataset(
            [("m1", "ban", "a"), ("m2", "ban", "b")], [("c1", "one")], []
        )
        with pytest.raises(ValueError, match="method 'nb' requires the 'sentences' store"):
            leave_one_out(ds, EvalConfig(methods=("nb",)), SimilarityContext())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_folds_equal_scoring_against_the_fold_dataset(self, seed):
        """Every fold derived by subtraction scores its held-out motion as
        the match path scores a new query against ``ds.without_motion``:
        BA, W2V and NB exactly, after the same eligibility mask, and KNN as
        the brute-force oracle on that fold without the held-out topic."""
        rng = np.random.default_rng(seed)
        ds, store, corpus = _fold_fixture(rng)
        ctx = SimilarityContext(embeddings=store, sentences=corpus)
        # the planted cases a fold must follow
        assert ds.motion("m0").topic == ds.motion("m1").topic
        assert "promote" not in {m.action for m in ds.motions}
        assert ctx.term_vector(SimilarityKind.EMBEDDING, "silent") is None
        assert "limit" not in build_blacklist(ds)["solo"]
        assert "limit" in build_blacklist(without_motion(ds, "m2"))["solo"]

        config = EvalConfig(methods=("ba", "knn", "w2v", "nb"), ba_k=int(rng.integers(1, 3)),
                            knn_min_neighbors=1, topic_min_motions=1)
        out = leave_one_out(ds, config, ctx)
        assert out["w2v"].get("m2", "solo") == 0.0 and out["nb"].get("m2", "solo") == 0.0
        eligible = topic_method_copas(ds, config.topic_min_motions)
        ineligible = np.array([cid not in eligible for cid in ds.copa_ids])
        for i, m in enumerate(ds.motions):
            fold = without_motion(ds, m.id)
            for method in ("ba", "w2v", "nb"):
                inputs = method_inputs(method, fold, config, ctx)
                want = score_motion(method, inputs, m, config, ctx)
                if method != "ba":
                    want[ineligible] = np.nan
                assert np.array_equal(out[method].scores[i], want, equal_nan=True), (method, m.id)
            want = knn_scores(fold, m, store, min_neighbors=1, top=5, exclude_topic=m.topic)
            want[ineligible] = np.nan
            assert np.array_equal(out["knn"].scores[i], want, equal_nan=True), ("knn", m.id)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_w2v_and_nb_rows_equal_their_every_column_references(self, seed):
        """W2V and NB skip the CoPAs a row does not keep and those whose
        blacklist vetoes the action, yet every row, of a new query or of a
        fold, with every CoPA kept or a random mask, is bit for bit the
        one-fit-per-CoPA W2V reference and the per-CoPA tokenizing NB
        reference, NaN outside the mask."""
        rng = np.random.default_rng(seed)
        ds, store, corpus = _fold_fixture(rng)
        config = EvalConfig(methods=("w2v", "nb"), topic_min_motions=1)
        masks = (None, rng.random(len(ds.copa_ids)) < 0.5)
        # a store of m2's topic alone: m2's fold has a W2V table with no rows
        lone = EmbeddingStore({"private": store.get("private")}, store.dimension)
        queries = [Motion("q", action, topic) for action in ("limit", "promote", "ban")
                   for topic in ("shared", "private", "silent")]
        assert all(build_blacklist(ds)[c.id] >= {"promote"} for c in ds.copas)
        for embeddings in (store, lone):
            ctx = SimilarityContext(embeddings=embeddings, sentences=corpus)
            inputs = {method: method_inputs(method, ds, config, ctx) for method in ("w2v", "nb")}
            cases = [(ds, q, lambda method: inputs[method]) for q in queries]
            cases += [(without_motion(ds, m.id), m,
                       lambda method, mid=m.id: inputs[method].without_motion(mid))
                      for m in ds.motions]
            for train, motion, fold_inputs in cases:
                vector = {m.id: ctx.term_vector(SimilarityKind.EMBEDDING, m.topic)
                          for m in [*train.motions, motion]}
                embedded = [m for m in train.motions if vector[m.id] is not None]
                blacklist = build_blacklist(train)
                dim = store.dimension
                w2v = w2v_row_reference(
                    np.array([vector[m.id] for m in embedded]).reshape(len(embedded), dim),
                    np.array([[m.id in c.motion_ids for c in train.copas] for m in embedded],
                             dtype=float).reshape(len(embedded), len(train.copas)),
                    [motion.action in blacklist[c.id] for c in train.copas], vector[motion.id],
                    clfmod.logreg_fit, config.l2_lambda, config.tol, config.max_iters)
                nb = nb_row_reference(train, corpus, motion, config.nb_alpha)
                for mask in masks:
                    for method, reference in (("w2v", w2v), ("nb", nb)):
                        want = reference.copy()
                        if mask is not None:
                            want[~mask] = np.nan
                        got = score_motion(method, fold_inputs(method), motion, config, ctx, mask)
                        assert np.array_equal(got, want, equal_nan=True), (method, motion)

    def test_w2v_fits_only_kept_columns_the_blacklist_does_not_veto(self, monkeypatch):
        """The fit count of a ``w2v`` eval and of new queries: a fold fits
        its eligible CoPAs whose fold blacklist does not veto the held-out
        action, none when the held-out topic has no embedding or no other
        motion's has; a new query fits every CoPA that does not veto its
        action, none for a topic without an embedding."""
        fits = []
        logreg_fit = clfmod.logreg_fit

        def counting(*args, **kwargs):
            fits.append(1)
            return logreg_fit(*args, **kwargs)

        monkeypatch.setattr(clfmod, "logreg_fit", counting)
        skipped_ineligible = False
        for seed in range(6):
            ds, store, corpus = _fold_fixture(np.random.default_rng(seed))
            ctx = SimilarityContext(embeddings=store)
            embedded = {m.id for m in ds.motions
                        if ctx.term_vector(SimilarityKind.EMBEDDING, m.topic) is not None}
            for min_motions in (1, 2, 3):
                config = EvalConfig(methods=("w2v",), topic_min_motions=min_motions)
                eligible = topic_method_copas(ds, min_motions)
                skipped_ineligible |= len(eligible) < len(ds.copas)
                want = sum(
                    sum(c.id in eligible and m.action not in blacklist[c.id] for c in ds.copas)
                    for m in ds.motions if m.id in embedded and embedded - {m.id}
                    for blacklist in [build_blacklist(without_motion(ds, m.id))]
                )
                fits.clear()
                leave_one_out(ds, config, ctx)
                assert len(fits) == want, (seed, min_motions)

            table = method_inputs("w2v", ds, config, ctx)
            blacklist = build_blacklist(ds)
            for action in ("limit", "promote", "ban"):
                for topic in ("shared", "silent"):
                    fits.clear()
                    score_motion("w2v", table, Motion("q", action, topic), config, ctx)
                    want = 0 if topic == "silent" else sum(
                        action not in blacklist[c.id] for c in ds.copas)
                    assert len(fits) == want, (seed, action, topic)
        assert skipped_ineligible


# ---------------------------------------------------------------------------
# The method registry
# ---------------------------------------------------------------------------

SAMPLE_QUERIES = (("subsidize", "solar energy"), ("disband", "NATO"), ("ban", "smoking"))


def _sample_stores(data_dir):
    """Every store of the sample config, by ``SimilarityContext`` field."""
    wiki = WikiCorpus.from_file(data_dir / "wiki_corpus.json")
    return {
        "embeddings": EmbeddingStore.from_file(data_dir / "toy_embeddings.txt"),
        "alt_embeddings": EmbeddingStore.from_file(data_dir / "toy_embeddings_alt.txt"),
        "tfidf": TfIdfModel.from_wiki_corpus(wiki),
        "wiki": wiki,
        "sentences": TopicSentenceCorpus.from_jsonl(data_dir / "sentence_corpus.jsonl"),
    }


class TestMethodRegistry:
    """Each ``METHODS`` entry declares every store its method reads: a
    context of only those stores scores as the full one does, and a
    context without a store the entry needs is refused before any fold."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_declared_stores_score_as_every_store(self, data_dir, sample_dataset, method):
        config = AppConfig.load(str(data_dir / "config.json"), env={})
        stores = _sample_stores(data_dir)
        entry = METHODS[method]
        declared = set(entry.needs + entry.optional)
        if "wiki" in declared:
            declared.add("tfidf")  # tf-idf comes with the wiki corpus
        assert declared <= set(stores)

        def rows(ctx):
            inputs = method_inputs(method, sample_dataset, config, ctx)
            return [score_motion(method, inputs, Motion("query", action, topic), config, ctx)
                    for action, topic in SAMPLE_QUERIES]

        only = rows(SimilarityContext(**{s: stores[s] for s in declared}))
        full = rows(SimilarityContext(**stores))
        for want, got in zip(full, only, strict=True):
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("method, store", [
        (method, store) for method, entry in METHODS.items() for store in entry.needs
    ])
    def test_a_missing_needed_store_is_refused(self, data_dir, sample_dataset, method, store):
        config = AppConfig.load(str(data_dir / "config.json"), env={})
        stores = {s: v for s, v in _sample_stores(data_dir).items() if s != store}
        message = f"method '{method}' requires the '{store}' store"
        with pytest.raises(ValueError, match=message):
            method_inputs(method, sample_dataset, config, SimilarityContext(**stores))
        with pytest.raises(ValueError, match=message):
            leave_one_out(sample_dataset, EvalConfig(methods=(method,)),
                          SimilarityContext(**stores))

    def test_needed_stores(self):
        """Pins the stores the parametrization above iterates over."""
        needs = {method: entry.needs for method, entry in METHODS.items()}
        assert needs == {"ba": (), "knn": ("embeddings",), "w2v": ("embeddings",),
                         "nb": ("sentences",), "lr": ()}


def _fold_fixture(rng):
    """A random dataset, embedding store and sentence corpus with planted
    cases: motions m0 and m1 share a topic, no motion has the registry
    action "promote", m3's topic has no embedding and no sentences, and m2
    is CoPA "solo"'s only member with the action "limit", which m4 in CoPA
    "c0" also has, so both blacklists of "solo" flip in m2's fold."""
    n = int(rng.integers(5, 10))
    topics = ["shared", "shared", "private", "silent"]
    topics += [str(rng.choice(["shared", "t4", "t5", "t6"])) for _ in range(n - 4)]
    actions = [str(rng.choice(["ban", "legalize", "subsidize"])) for _ in range(n)]
    actions[2] = actions[4] = "limit"
    motions = [(f"m{i}", actions[i], topics[i]) for i in range(n)]
    copas = [("solo", "solo theme", True, ("x",))]
    copas += [(f"c{j}", f"theme {j}", True, ("y",)) for j in range(int(rng.integers(1, 4)))]
    labels = [("m2", "solo"), ("m4", "c0")] + [
        (mid, copa[0]) for mid, _, _ in motions for copa in copas
        if mid not in ("m2", "m4") and rng.random() < 0.4
    ]
    ds = build_dataset(motions, copas, labels)
    store = random_embeddings(rng, set(topics) - {"silent"})
    words = ["x", "y", "z", "w"]
    corpus = TopicSentenceCorpus({
        topic: [" ".join(rng.choice(words, size=int(rng.integers(1, 5))))
                for _ in range(int(rng.integers(1, 4)))]
        for topic in sorted(set(topics) - {"silent"})
    })
    return ds, store, corpus


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def _toy_ds_for_curves():
    motions = [(f"m{i}", "ban", f"t{i}") for i in range(5)]
    labels = [("m0", "c0"), ("m1", "c1"), ("m2", "c2"), ("m3", "c0"), ("m3", "c1")]
    return build_dataset(motions, [(f"c{j}", f"theme {j}") for j in range(3)], labels)


class TestPRCurve:
    def test_perfect_scorer(self):
        ds = _toy_ds_for_curves()
        entries = {
            (m.id, c.id): (1.0 if (m.id, c.id) in ds.labels else 0.0)
            for m in ds.motions
            for c in ds.copas
        }
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, entries)
        points = {p.threshold: p for p in pr_curve(matrix, ds, thresholds=GRID)}
        mid = points[0.5]
        assert mid.precision == 1.0 and mid.recall == 1.0

    def test_all_abstain_yields_no_points(self):
        ds = _toy_ds_for_curves()
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, {})
        assert pr_curve(matrix, ds, thresholds=GRID) == []

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(101)
        ds = _toy_ds_for_curves()
        for _ in range(25):
            matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids)
            got = [(p.threshold, p.precision, p.recall) for p in pr_curve(matrix, ds, thresholds=GRID)]
            want = pr_points(matrix_entries(matrix), ds.labels, set(ds.copa_ids), GRID)
            assert got == want

    def test_ids_must_be_the_datasets_in_order(self):
        ds = _toy_ds_for_curves()
        for motions, copas in ((ds.motion_ids[::-1], ds.copa_ids),
                               (ds.motion_ids, ds.copa_ids[::-1]),
                               (ds.motion_ids, ds.copa_ids[:-1])):
            matrix = score_matrix(motions, copas, {})
            for curve in (pr_curve, p_at_1_curve):
                with pytest.raises(ValueError, match="not the dataset's"):
                    curve(matrix, ds, thresholds=GRID)

    def test_recall_non_increasing(self):
        rng = np.random.default_rng(102)
        ds = _toy_ds_for_curves()
        for _ in range(10):
            matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids)
            recalls = [p.recall for p in pr_curve(matrix, ds, thresholds=GRID)]
            assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))


class TestPAt1Curve:
    def test_oracle_scorer_hits_one(self):
        ds = _toy_ds_for_curves()
        entries = {}
        for m in ds.motions:
            matched = [c.id for c in ds.copas if (m.id, c.id) in ds.labels]
            if matched:
                entries[(m.id, matched[0])] = 0.9
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, entries)
        for p in p_at_1_curve(matrix, ds, thresholds=GRID):
            assert p.p_at_1 == 1.0

    def test_threshold_above_scores_omitted(self):
        ds = _toy_ds_for_curves()
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, {("m0", "c0"): 0.2})
        points = p_at_1_curve(matrix, ds, thresholds=GRID)
        assert points
        assert max(p.threshold for p in points) <= 0.2 + 1e-12

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(103)
        ds = _toy_ds_for_curves()
        for _ in range(25):
            matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids)
            got = [(p.threshold, p.coverage, p.p_at_1) for p in p_at_1_curve(matrix, ds, thresholds=GRID)]
            want = p_at_1_points(matrix_entries(matrix), ds.labels, set(ds.copa_ids), ds.motion_ids, GRID)
            assert got == want

    def test_coverage_non_increasing(self):
        rng = np.random.default_rng(104)
        ds = _toy_ds_for_curves()
        for _ in range(10):
            matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids)
            coverages = [p.coverage for p in p_at_1_curve(matrix, ds, thresholds=GRID)]
            assert all(b <= a + 1e-12 for a, b in zip(coverages, coverages[1:]))

    def test_argmax_ties_break_by_copa_id(self):
        ds = _toy_ds_for_curves()
        entries = {("m0", "c2"): 0.8, ("m0", "c0"): 0.8}  # tie; c0 wins and matches
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, entries)
        point = p_at_1_curve(matrix, ds, thresholds=(0.5,))[0]
        assert point.p_at_1 == 1.0


class TestExcludeGeneral:
    def _ds(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(4)]
        labels = [("m0", "g"), ("m1", "g"), ("m0", "c"), ("m2", "c")]
        return build_dataset(motions, [("c", "specific"), ("g", "general")], labels,
                             general=("g",))

    def test_general_never_counted(self):
        rng = np.random.default_rng(105)
        ds = self._ds()
        matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids, density=1.0)
        got = [(p.threshold, p.precision, p.recall) for p in pr_curve(matrix, ds, True, GRID)]
        want = pr_points(matrix_entries(matrix), ds.labels, {"c"}, GRID)
        assert got == want
        # flipping the general CoPA's scores must not move the curve
        flipped_entries = {
            pair: (1.0 - s if pair[1] == "g" else s) for pair, s in matrix_entries(matrix).items()
        }
        flipped = score_matrix(ds.motion_ids, ds.copa_ids, flipped_entries)
        got_flipped = [(p.threshold, p.precision, p.recall) for p in pr_curve(flipped, ds, True, GRID)]
        assert got_flipped == got

    def test_p_at_1_exclusion(self):
        rng = np.random.default_rng(106)
        ds = self._ds()
        matrix = _random_matrix(rng, ds.motion_ids, ds.copa_ids, density=1.0)
        got = [(p.threshold, p.coverage, p.p_at_1) for p in p_at_1_curve(matrix, ds, True, GRID)]
        want = p_at_1_points(matrix_entries(matrix), ds.labels, {"c"}, ds.motion_ids, GRID)
        assert got == want


# ---------------------------------------------------------------------------
# Baselines, kappa, grid
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_forced_ratio(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(10)]
        labels = [(f"m{i}", "c1") for i in range(4)] + [(f"m{i}", "c2") for i in range(2)]
        ds = build_dataset(motions, [("c1", "one"), ("c2", "two")], labels)
        got = baseline_largest(ds)
        assert got.copa_id == "c1"
        assert got.precision == 0.4

    def test_full_copa_reaches_one(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(3)]
        labels = [(f"m{i}", "c1") for i in range(3)]
        ds = build_dataset(motions, [("c1", "one")], labels)
        assert baseline_largest(ds).precision == 1.0

    def test_tie_breaks_by_id(self):
        motions = [("m0", "ban", "a"), ("m1", "ban", "b")]
        labels = [("m0", "zz"), ("m1", "aa")]
        ds = build_dataset(motions, [("zz", "z"), ("aa", "a")], labels)
        assert baseline_largest(ds).copa_id == "aa"

    def test_exclude_general_changes_winner(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(4)]
        labels = [(f"m{i}", "g") for i in range(4)] + [("m0", "c")]
        ds = build_dataset(motions, [("c", "narrow"), ("g", "gen")], labels, general=("g",))
        assert baseline_largest(ds).copa_id == "g"
        assert baseline_largest(ds, exclude_general=True).copa_id == "c"
        assert baseline_largest(ds, exclude_general=True).precision == 0.25


class TestThresholdGrid:
    def test_default_grid_shape(self):
        grid = default_threshold_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            default_threshold_grid(0.0)
        with pytest.raises(ValueError):
            default_threshold_grid(1.5)

    def test_config_validates_grid(self):
        assert EvalConfig(threshold_step=0.25).thresholds == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert EvalConfig().thresholds == default_threshold_grid()
        for step in (0.0, 1.5, 0.3, 0.07, float("nan"), 1e-7, 5e-324):
            with pytest.raises(ValueError, match="threshold_step"):
                EvalConfig(threshold_step=step)
        with pytest.raises(ValueError):
            EvalConfig(methods=())
        with pytest.raises(ValueError):
            EvalConfig(methods=("nope",))
        with pytest.raises(ValueError, match="repeats"):
            EvalConfig(methods=("ba", "knn", "ba"))
