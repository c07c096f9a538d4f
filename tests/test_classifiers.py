import math
import os
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copa import classifiers as clfmod
from copa.classifiers import (
    KNNCandidates,
    LogRegFit,
    ScoreMatrix,
    TopicSentenceCorpus,
    W2VTable,
    ensemble,
    logreg_fit,
    predict_ba,
    predict_feature_lr,
    predict_knn,
    predict_nb,
    predict_w2v,
    score_row,
    sigmoid,
    tokenize,
    train_ba,
    train_feature_lr,
    train_nb,
    train_w2v_lr,
)
from copa.cli import main
from copa.evaluation import EvalConfig, score_motion
from copa.features import N_FEATURES, FeatureTable, FitWorkspace, Standardizer, motion_features
from copa.kb import Motion, load_dataset
from copa.textsim import (
    DomainError,
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    WikiCorpus,
    similarity_block,
)
from helpers import (
    ACTION_POOL,
    build_dataset,
    load_bench_generator,
    load_from_fifo,
    logreg_gradient,
    logreg_objective,
    matrix_entries,
    random_dataset,
    random_embeddings,
    score_matrix,
    topic_words,
)
from oracles import (
    ba_scores,
    build_blacklist,
    elementwise_max,
    knn_scores,
    logreg_fit_reference,
    sigmoid_masked,
    term_similarity,
    without_motion,
)


# ---------------------------------------------------------------------------
# BA-k
# ---------------------------------------------------------------------------


class TestBA:
    def test_below_support_threshold_abstains(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(5)]
        labels = [("m0", "c"), ("m1", "c"), ("m2", "c")]
        ds = build_dataset(motions, [("c", "theme")], labels)
        model = train_ba(ds, k=5)
        assert np.array_equal(predict_ba(model, Motion("q", "ban", "new")), [np.nan],
                              equal_nan=True)

    def test_supported_probability(self):
        motions = [(f"m{i}", "ban", f"t{i}") for i in range(8)]
        labels = [(f"m{i}", "c") for i in range(6)]
        ds = build_dataset(motions, [("c", "theme")], labels)
        model = train_ba(ds, k=5)
        assert np.array_equal(predict_ba(model, Motion("q", "ban", "new")), [0.75])

    def test_unseen_action_abstains_everywhere(self):
        ds = build_dataset([("m0", "ban", "t0")], [("c", "x")], [("m0", "c")])
        scores = predict_ba(train_ba(ds, k=1), Motion("q", "promote", "t9"))
        assert np.array_equal(scores, [np.nan], equal_nan=True)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            ds = random_dataset(rng)
            model = train_ba(ds, k=1)
            for m in ds.motions:
                assert np.array_equal(predict_ba(model, m), ba_scores(ds, m, k=1), equal_nan=True)

    def test_score_sum_matches_membership_total(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            ds = random_dataset(rng)
            model = train_ba(ds, k=1)
            for action in {m.action for m in ds.motions}:
                total = sum(1 for m in ds.motions if m.action == action)
                scores = predict_ba(model, Motion("q", action, "whatever"))
                got = sum(s for s in scores.tolist() if not math.isnan(s))
                n_sum = sum(
                    1
                    for c in ds.copas
                    for mid in c.motion_ids
                    if ds.motion(mid).action == action
                )
                assert got == pytest.approx(n_sum / total, abs=1e-12)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------


def _knn_fixture():
    # five candidate topics around the query plus one unrelated topic
    table = {
        "q": np.array([1.0, 0.0]),
        "a": np.array([0.9, 0.1]),
        "b": np.array([0.8, 0.2]),
        "c": np.array([0.7, 0.3]),
        "d": np.array([0.6, 0.4]),
        "far": np.array([-1.0, 0.0]),
    }
    store = EmbeddingStore(table, 2)
    motions = [("m1", "ban", "a"), ("m2", "ban", "b"), ("m3", "ban", "c"),
               ("m4", "ban", "d"), ("m5", "ban", "far")]
    labels = [("m1", "c1"), ("m2", "c1"), ("m3", "c2"), ("m4", "c2"), ("m5", "c1")]
    ds = build_dataset(motions, [("c1", "one"), ("c2", "two")], labels)
    return ds, SimilarityContext(embeddings=store)


class TestKNN:
    def test_too_few_candidates_abstains(self):
        ds, ctx = _knn_fixture()
        query = Motion("q", "ban", "q")
        scores = predict_knn(ds, query, ctx, min_neighbors=5)
        assert np.array_equal(scores, [np.nan, np.nan], equal_nan=True)

    def test_vote_fraction(self):
        ds, ctx = _knn_fixture()
        query = Motion("q", "ban", "q")
        scores = predict_knn(ds, query, ctx, min_neighbors=3, top=5)
        # "far" is below threshold; the four near topics split two per CoPA
        assert np.array_equal(scores, [0.5, 0.5])

    def test_top_cut_prefers_higher_similarity(self):
        ds, ctx = _knn_fixture()
        query = Motion("q", "ban", "q")
        scores = predict_knn(ds, query, ctx, min_neighbors=1, top=2)
        # nearest two are a and b, both in c1
        assert np.array_equal(scores, [1.0, 0.0])

    def test_equal_similarity_breaks_ties_by_motion_id(self):
        table = {"q": np.array([1.0, 0.0]), "same": np.array([0.9, 0.1])}
        store = EmbeddingStore(table, 2)
        motions = [("m3", "ban", "same"), ("m1", "legalize", "same"), ("m2", "ban", "same")]
        labels = [("m1", "c1"), ("m2", "c2"), ("m3", "c2")]
        ds = build_dataset(motions, [("c1", "one"), ("c2", "two")], labels)
        ctx = SimilarityContext(embeddings=store)
        scores = predict_knn(ds, Motion("q", "ban", "q"), ctx, min_neighbors=1, top=2)
        # all sims equal; ids m1 and m2 win the two slots
        assert np.array_equal(scores, [0.5, 0.5])

    def test_kernel_rounding_ties_fall_to_motion_id_order(self):
        # "near" is closer to q than "next" by about 1e-15, far below the
        # kernel's 2**-41, so both round to one similarity and m1 wins on
        # its id although it is listed second
        table = {"q": np.array([1.0, 0.0]), "near": np.array([1.0, 1e-7]),
                 "next": np.array([1.0, 1.1e-7])}
        ctx = SimilarityContext(embeddings=EmbeddingStore(table, 2))
        ds = build_dataset([("m2", "ban", "near"), ("m1", "ban", "next")],
                           [("c1", "one"), ("c2", "two")], [("m1", "c1"), ("m2", "c2")])
        query = Motion("q", "ban", "q")
        assert (term_similarity(SimilarityKind.EMBEDDING, "q", "near", ctx)
                > term_similarity(SimilarityKind.EMBEDDING, "q", "next", ctx))
        assert np.array_equal(predict_knn(ds, query, ctx, min_neighbors=1, top=1), [1.0, 0.0])

    def test_threshold_is_strict_and_own_motion_is_no_candidate(self):
        ds, ctx = _knn_fixture()
        orthogonal = EmbeddingStore({"q": np.array([1.0, 0.0]), "a": np.array([0.0, 1.0])}, 2)
        # similarity exactly 0.5 does not exceed the threshold 0.5
        assert np.array_equal(
            predict_knn(ds, Motion("q", "ban", "q"), SimilarityContext(embeddings=orthogonal),
                        min_neighbors=1),
            [np.nan, np.nan], equal_nan=True)
        m1 = ds.motion("m1")
        assert np.array_equal(predict_knn(ds, m1, ctx, min_neighbors=1),
                              predict_knn(without_motion(ds, "m1"), m1, ctx, min_neighbors=1),
                              equal_nan=True)

    def test_exclude_topic_drops_same_topic_candidates(self):
        ds, ctx = _knn_fixture()
        query = Motion("q", "ban", "a")
        # four candidates clear the threshold normally; excluding the
        # query's own topic leaves three, below min_neighbors=4
        kept = predict_knn(ds, query, ctx, min_neighbors=4, top=5)
        dropped = predict_knn(ds, query, ctx, min_neighbors=4, top=5, exclude_topic="a")
        assert not np.isnan(kept).any()
        assert np.array_equal(dropped, [np.nan, np.nan], equal_nan=True)
        oracle = knn_scores(ds, query, ctx.embeddings, min_neighbors=4, top=5,
                            exclude_topic="a")
        assert np.array_equal(dropped, oracle, equal_nan=True)
        # the same topic in another case or with surrounding space (name_key)
        # is the same topic
        for spelling in ("A", " A "):
            assert np.array_equal(predict_knn(ds, query, ctx, min_neighbors=4, top=5,
                                              exclude_topic=spelling),
                                  dropped, equal_nan=True)

    def test_matches_bruteforce_oracle_distinct_sims(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            ds = random_dataset(rng, max_motions=12)
            store = random_embeddings(rng, topic_words(ds))
            ctx = SimilarityContext(embeddings=store)
            query = Motion("q", "ban", ds.motions[0].topic)
            got = predict_knn(ds, query, ctx, min_neighbors=2, top=5)
            want = knn_scores(ds, query, store, min_neighbors=2, top=5)
            assert np.array_equal(got, want, equal_nan=True)

    def test_scores_are_small_fractions(self):
        ds, ctx = _knn_fixture()
        scores = predict_knn(ds, Motion("q", "ban", "q"), ctx, min_neighbors=1, top=5)
        for s in scores:
            assert not math.isnan(s)
            assert any(abs(s - k / 4) < 1e-12 for k in range(5))  # |N| = 4 here


# ---------------------------------------------------------------------------
# logistic regression core
# ---------------------------------------------------------------------------


class TestLogregFit:
    def test_all_negative_labels_drive_scores_down(self):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(12, 3))
        y = np.zeros(12)
        w, b = logreg_fit(X, y, lam=1e-3)
        scores = sigmoid(X @ w + b)
        assert np.all(scores < 0.01)
        assert b < -4

    def test_perfectly_correlated_feature(self):
        X = np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        w, b = logreg_fit(X, y, lam=1e-3)
        assert np.isfinite(w).all() and math.isfinite(b)
        preds = (sigmoid(X @ w + b) >= 0.5).astype(float)
        assert np.array_equal(preds, y)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(72)
        h = 1e-6
        for _ in range(5):
            n, d = int(rng.integers(4, 20)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            lam = 10.0 ** rng.uniform(-4, -1)
            for _ in range(10):
                w = rng.normal(size=d)
                b = float(rng.normal())
                grad_w, grad_b = logreg_gradient(X, y, w, b, lam)
                analytic = np.append(grad_w, grad_b)
                numeric = np.empty(d + 1)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    numeric[j] = (
                        logreg_objective(X, y, w + e, b, lam)
                        - logreg_objective(X, y, w - e, b, lam)
                    ) / (2 * h)
                numeric[d] = (
                    logreg_objective(X, y, w, b + h, lam)
                    - logreg_objective(X, y, w, b - h, lam)
                ) / (2 * h)
                rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
                assert rel < 1e-5

    def test_objective_never_increases(self):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(float)
        values = []
        logreg_fit(X, y, on_step=lambda i, v: values.append(v))
        assert len(values) > 1
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="3 rows vs 4 labels"):
            logreg_fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(DomainError, match="X must be a 2-d array"):
            logreg_fit(np.zeros(3), np.zeros(3))
        with pytest.raises(DomainError, match="0 rows vs 0 labels"):
            logreg_fit(np.zeros((0, 2)), np.zeros(0))

    def test_deterministic(self):
        rng = np.random.default_rng(74)
        X = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        w1, b1 = logreg_fit(X, y)
        w2, b2 = logreg_fit(X, y)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_reports_when_max_iters_stops_it(self):
        rng = np.random.default_rng(75)
        X = rng.normal(size=(20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        steps = []
        fit = logreg_fit(X, y, max_iters=1, on_step=lambda i, v: steps.append(i))
        assert fit.n_iters == len(steps) == 1
        assert fit.converged is False
        assert fit.grad_norm >= 1e-6
        w, b = fit
        grad_w, grad_b = logreg_gradient(X, y, w, b, 1e-3)
        assert fit.grad_norm == math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)

    def test_stalled_fit_stops_unconverged(self):
        """A ``tol`` below float precision: the fit ends once no step
        strictly lowers the objective, not after ``max_iters`` steps."""
        rng = np.random.default_rng(77)
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        values = []

        def record(iteration, value):
            assert iteration < 100, "the fit steps on after its objective stalled"
            values.append(value)

        fit = logreg_fit(X, y, tol=1e-300, max_iters=10**9, on_step=record)
        assert fit.converged is False
        assert fit.n_iters == len(values) < 100
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_reports_convergence(self):
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        fit = logreg_fit(X, y, lam=1.0, tol=1e-6, max_iters=10000)
        assert fit.converged is True
        assert 0 < fit.n_iters < 10000
        assert fit.grad_norm < 1e-6
        # the diagnostics do not change the (weights, bias) the fit returns
        assert len(fit) == 2 and isinstance(fit[1], float)

    def test_every_sample_fit_converges(self, monkeypatch, data_dir, tmp_path):
        """Every W2V and feature-LR fit of an eval and of three queries on
        the bundled sample reaches the sample config's ``tol``."""
        fits = []

        def recording(X, y, **kwargs):
            fit = logreg_fit(X, y, **kwargs)
            fits.append((np.shape(X)[1], fit.converged))
            return fit

        monkeypatch.setattr(clfmod, "logreg_fit", recording)
        monkeypatch.chdir(data_dir.parent)
        commands = [["eval", "--out", str(tmp_path / "out")], ["match", "disband", "NATO"],
                    ["match", "subsidize", "solar energy"], ["match", "ban", "smoking"]]
        for args in commands:
            result = CliRunner().invoke(main, ["--config", "data/config.json", *args],
                                        env={"COPA_METHODS": "w2v,lr"})
            assert result.exit_code == 0, result.output
        widths = Counter(d for d, _ in fits)
        assert widths[N_FEATURES] > 0 and len(widths) == 2  # feature LR and W2V
        assert all(converged for _, converged in fits), widths

    def test_duplicate_columns_without_penalty(self):
        """A singular Hessian: the fit falls back to -g where the Newton
        solve fails, and still reaches the optimum of overlapping labels."""
        rng = np.random.default_rng(76)
        x = rng.normal(size=(15, 1))
        X = np.hstack([x, x, rng.normal(size=(15, 1))])
        overlapping = (rng.random(15) < 0.5).astype(float)
        separable = (x[:, 0] > 0).astype(float)
        for y, has_optimum in ((overlapping, True), (separable, False)):
            fit = logreg_fit(X, y, lam=0.0, max_iters=200)
            w, b = fit
            assert np.isfinite(w).all() and math.isfinite(b)
            grad_w, grad_b = logreg_gradient(X, y, w, b, 0.0)
            assert fit.converged == (math.hypot(*grad_w, grad_b) < 1e-6)
            assert fit.converged or not has_optimum

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 5),
        lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
        labels=st.sampled_from(["random", "zeros", "ones"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_properties(self, n, d, lam, labels, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=2.0, size=(n, d))
        y = {"random": (rng.random(n) < 0.5).astype(float),
             "zeros": np.zeros(n), "ones": np.ones(n)}[labels]
        values = []
        fit = logreg_fit(X, y, lam=lam, max_iters=200, on_step=lambda i, v: values.append(v))
        w, b = fit
        assert np.isfinite(w).all() and math.isfinite(b)
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
        assert fit.n_iters == len(values)
        grad_w, grad_b = logreg_gradient(X, y, w, b, lam)
        assert fit.converged == (math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b) < 1e-6)
        if fit.converged:
            best = logreg_objective(X, y, w, b, lam)
            for _ in range(5):
                dw, db = rng.normal(scale=1e-3, size=d), float(rng.normal(scale=1e-3))
                # convexity: f(θ + δ) >= f(θ) + gᵀδ >= f(θ) - |g||δ|
                slack = 1e-6 * math.sqrt(float(dw @ dw) + db * db) + 1e-12 * max(1.0, abs(best))
                assert logreg_objective(X, y, w + dw, b + db, lam) >= best - slack

    def test_model_records_fit_and_reads_older_files(self):
        # The feature LR's fit carries the record of how its descent ended.
        ds = _action_separable_ds()
        x, y = _table_rows(ds, SimilarityContext())
        _, fit = train_feature_lr(x, y, max_iters=3)
        assert isinstance(fit, LogRegFit)
        assert (fit.n_iters, fit.converged) == (3, False)
        assert fit.grad_norm >= 1e-6


def _fit_problem(seed, n, d, spread, labels, duplicate):
    """``n`` rows of ``d`` normal columns at magnitude 10**spread, the first
    column repeated as the last when ``duplicate``; labels random, all
    zero, or separable on the first column."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** spread
    if duplicate:
        X = np.hstack([X, X[:, :1]])
    y = {"random": (rng.random(n) < 0.5).astype(float), "zeros": np.zeros(n),
         "separable": (X[:, 0] > 0).astype(float)}[labels]
    return X, y


#: one draw per solver branch, each checked to reach it below
_FIT_BRANCHES = {
    "unconverged": dict(seed=1, n=20, d=2, spread=0, labels="separable", duplicate=True,
                        lam=0.0, tol=1e-6, max_iters=200),
    "fallback": dict(seed=2, n=15, d=2, spread=0, labels="random", duplicate=True,
                     lam=0.0, tol=1e-6, max_iters=200),
    "capped": dict(seed=3, n=20, d=3, spread=0, labels="random", duplicate=False,
                   lam=1e-3, tol=1e-6, max_iters=1),
    "small": dict(seed=4, n=30, d=4, spread=-3, labels="random", duplicate=False,
                  lam=1e-3, tol=1e-6, max_iters=200),
    "large": dict(seed=5, n=30, d=4, spread=3, labels="random", duplicate=True,
                  lam=1e-3, tol=1e-6, max_iters=200),
}


def test_fit_branch_examples_reach_their_branch():
    for name, case in _FIT_BRANCHES.items():
        problem = {k: case[k] for k in ("seed", "n", "d", "spread", "labels", "duplicate")}
        X, y = _fit_problem(**problem)
        _, _, n_iters, grad_norm, _, fallbacks = logreg_fit_reference(
            X, y, case["lam"], case["tol"], case["max_iters"])
        reached = {"unconverged": grad_norm >= case["tol"], "fallback": fallbacks > 0,
                   "capped": n_iters == case["max_iters"] and grad_norm >= case["tol"],
                   "small": n_iters > 0, "large": n_iters > 0}[name]
        assert reached, name


def _with_branch_examples(test):
    for case in _FIT_BRANCHES.values():
        test = example(**case)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 6),
       spread=st.integers(-3, 3), labels=st.sampled_from(["random", "zeros", "separable"]),
       duplicate=st.booleans(), lam=st.sampled_from([0.0, 1e-3]) | st.floats(1e-6, 1.0),
       tol=st.sampled_from([1e-6, 1e-3]), max_iters=st.sampled_from([1, 2, 5, 200]))
@_with_branch_examples
def test_fit_matches_the_reference_loop_bit_for_bit(seed, n, d, spread, labels, duplicate,
                                                     lam, tol, max_iters):
    """One pass per iterate computes what the loop that recomputes every
    margin and sigmoid computes: weights, bias, diagnostics and steps."""
    X, y = _fit_problem(seed, n, d, spread, labels, duplicate)
    want_w, want_b, want_iters, want_norm, want_steps, _ = logreg_fit_reference(
        X, y, lam, tol, max_iters)
    steps = []
    fit = logreg_fit(X, y, lam=lam, tol=tol, max_iters=max_iters,
                     on_step=lambda i, v: steps.append((i, v)))
    weights, bias = fit
    assert np.array_equal(weights, want_w) and type(bias) is float and bias == want_b
    assert (fit.n_iters, fit.grad_norm, fit.converged) == (want_iters, want_norm, want_norm < tol)
    assert steps == want_steps


#: signed zeros, infinities, NaN, subnormals, and margins whose exp underflows
#: or would overflow
_SIGMOID_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                     -1e-310, 750.0, -750.0, 745.2, -745.2, 709.8, -709.8, 36.0, -36.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(_SIGMOID_SPECIALS),
                max_size=40))
@example(_SIGMOID_SPECIALS)
def test_sigmoid_matches_the_masked_reference(values):
    """Bit for bit on arrays and on scalars (NaN stays NaN), warning-free."""
    z = np.array(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, scalars = sigmoid(z), [sigmoid(v) for v in values]
    assert np.array_equal(got, sigmoid_masked(z), equal_nan=True)
    for v, s in zip(values, scalars, strict=True):
        want = sigmoid_masked(v)
        assert type(s) is float and (s == want or (math.isnan(s) and math.isnan(want)))


# ---------------------------------------------------------------------------
# W2V
# ---------------------------------------------------------------------------


def _separable_fixture():
    dim = 4
    table = {}
    motions = []
    labels = []
    for i in range(4):
        table[f"plus{i}"] = np.eye(dim)[0]
        motions.append((f"p{i}", "ban", f"plus{i}"))
        labels.append((f"p{i}", "c"))
    for i in range(4):
        table[f"minus{i}"] = -np.eye(dim)[0]
        motions.append((f"n{i}", "legalize", f"minus{i}"))
    ds = build_dataset(motions, [("c", "theme")], labels)
    ctx = SimilarityContext(embeddings=EmbeddingStore(table, dim))
    return ds, ctx


class TestW2V:
    def test_separable_toy_converges(self):
        ds, ctx = _separable_fixture()
        table = W2VTable(ds, ctx)
        fits = train_w2v_lr(table)
        weights, bias = fits[0]
        X = np.array([[1, 0, 0, 0]] * 4 + [[-1, 0, 0, 0]] * 4, dtype=float)
        y = np.array([1.0] * 4 + [0.0] * 4)
        final_loss = logreg_objective(X, y, weights, bias, 1e-3)
        assert final_loss < 0.05
        plus = predict_w2v(fits, table.counts, Motion("q", "ban", "plus0"), ctx)[0]
        minus = predict_w2v(fits, table.counts, Motion("q", "ban", "minus0"), ctx)[0]
        assert plus > 0.9
        assert minus < 0.1

    def test_blacklisted_action_forces_zero(self):
        ds, ctx = _separable_fixture()
        table = W2VTable(ds, ctx)
        fits = train_w2v_lr(table)
        assert table.counts.blacklisted("legalize").tolist() == [True]
        score = predict_w2v(fits, table.counts, Motion("q", "legalize", "plus0"), ctx)[0]
        assert score == 0.0

    def test_unembeddable_topic_abstains(self):
        ds, ctx = _separable_fixture()
        table = W2VTable(ds, ctx)
        scores = predict_w2v(train_w2v_lr(table), table.counts,
                             Motion("q", "ban", "zzz unknown"), ctx)
        assert np.array_equal(scores, [np.nan], equal_nan=True)

    def test_zero_weight_model_scores_sigmoid_bias(self):
        fits = [LogRegFit(np.zeros(4), 0.7, n_iters=0, grad_norm=0.0, tol=1e-6)]
        ds = build_dataset([("m0", "ban", "t")], [("c", "theme")], [("m0", "c")])
        store = EmbeddingStore({"t": np.array([1.0, 0, 0, 0])}, 4)
        ctx = SimilarityContext(embeddings=store)
        got = predict_w2v(fits, ds.label_counts, Motion("q", "ban", "t"), ctx)[0]  # no ban veto
        assert got == pytest.approx(sigmoid(0.7), abs=1e-15)

    def test_training_is_deterministic(self):
        ds, ctx = _separable_fixture()
        (wa, ba), = train_w2v_lr(W2VTable(ds, ctx))
        (wb, bb), = train_w2v_lr(W2VTable(ds, ctx))
        assert np.array_equal(wa, wb)
        assert ba == bb


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------


def _nb_fixture():
    motions = [("m1", "ban", "t1"), ("m2", "ban", "t2")]
    labels = [("m1", "c")]
    ds = build_dataset(motions, [("c", "theme")], labels)
    corpus = TopicSentenceCorpus({"t1": ["x x", "x y"], "t2": ["y y", "x y"]})
    return ds, corpus


class TestSentenceFile:
    def test_loads_records(self, tmp_path):
        path = tmp_path / "sent.jsonl"
        path.write_text('{"topic": "T1", "sentence": "a b"}\n\n{"topic": "t1", "sentence": "c"}\n')
        assert TopicSentenceCorpus.from_jsonl(path).get("t1") == ["a b", "c"]

    def test_byte_order_mark_rejected(self, tmp_path):
        path = tmp_path / "sent.jsonl"
        path.write_text('\ufeff{"topic": "t1", "sentence": "a b"}\n', encoding="utf-8")
        with pytest.raises(DomainError, match="sent.jsonl:1: starts with a UTF-8 byte-order mark"):
            TopicSentenceCorpus.from_jsonl(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_named_pipe_loads_like_a_file(self, tmp_path):
        text = '{"topic": "T1", "sentence": "a b"}\n{"topic": "t1", "sentence": "c"}\n'
        corpus = load_from_fifo(tmp_path, "sent", text.encode(), TopicSentenceCorpus.from_jsonl)
        assert corpus.get("t1") == ["a b", "c"]
        with pytest.raises(DomainError, match="bom:1: starts with a UTF-8 byte-order mark"):
            load_from_fifo(tmp_path, "bom", ("\ufeff" + text).encode(),
                           TopicSentenceCorpus.from_jsonl)

    @pytest.mark.parametrize("line", [
        '{"topic": "t1", "sentence": "trunc',
        '{"topic": "t1"}',
        '{"sentence": "no topic"}',
        '["t1", "a list"]',
        '{"topic": "t1", "sentence": ""}',
    ])
    def test_bad_record_rejected(self, tmp_path, line):
        path = tmp_path / "sent.jsonl"
        path.write_text('{"topic": "t0", "sentence": "fine"}\n' + line + "\n")
        with pytest.raises(DomainError, match=r"sent\.jsonl:2: "):
            TopicSentenceCorpus.from_jsonl(path)


@dataclass(frozen=True)
class _NBReference:
    """One CoPA's Naive Bayes log tables over the training vocabulary,
    computed apart from ``NBClassifier``: the log-priors of its positive
    and negative sentence classes and their Laplace-smoothed unigram
    log-probabilities."""

    log_prior_pos: float
    log_prior_neg: float
    log_prob_pos: dict
    log_prob_neg: dict

    def posterior(self, sentence):
        """P(positive | sentence); words outside the tables are skipped."""
        lp, ln = self.log_prior_pos, self.log_prior_neg
        for w in tokenize(sentence):
            if w in self.log_prob_pos:
                lp += self.log_prob_pos[w]
                ln += self.log_prob_neg[w]
        if lp == -math.inf and ln == -math.inf:
            return 0.5
        return float(sigmoid(lp - ln))


def _nb_reference(ds, corpus, copa, alpha):
    """One CoPA's model, tokenizing every sentence for this CoPA alone."""
    pos, neg = Counter(), Counter()
    n_pos = n_neg = 0
    for m in ds.motions:
        sents = corpus.get(m.topic)
        counts, member = (pos, True) if m.id in copa.motion_ids else (neg, False)
        for sentence in sents:
            counts.update(tokenize(sentence))
        if member:
            n_pos += len(sents)
        else:
            n_neg += len(sents)
    vocab = sorted(set(pos) | set(neg))
    d_pos = sum(pos.values()) + alpha * len(vocab)
    d_neg = sum(neg.values()) + alpha * len(vocab)
    n = n_pos + n_neg
    return _NBReference(
        log_prior_pos=math.log(n_pos / n) if n and n_pos else -math.inf,
        log_prior_neg=math.log(n_neg / n) if n and n_neg else -math.inf,
        log_prob_pos={w: math.log((pos[w] + alpha) / d_pos) for w in vocab},
        log_prob_neg={w: math.log((neg[w] + alpha) / d_neg) for w in vocab},
    )


class TestNB:
    def test_symmetric_corpus_gives_half(self):
        ds = build_dataset(
            [("m1", "ban", "ta"), ("m2", "ban", "tb")], [("c", "theme")], [("m1", "c")]
        )
        corpus = TopicSentenceCorpus({
            "ta": ["same words here"],
            "tb": ["same words here"],
            "tc": ["same words here"],
        })
        clf = train_nb(ds, corpus, alpha=1.0)
        score = predict_nb(clf, Motion("q", "ban", "tc"), corpus)[0]
        assert score == 0.5

    def test_matches_closed_form_bayes(self):
        ds, corpus = _nb_fixture()
        clf = train_nb(ds, corpus, alpha=1.0)

        # closed form with exact rationals: priors 1/2, vocab {x, y},
        # pos counts x:3 y:1, neg counts x:1 y:3, Laplace alpha=1
        p_x_pos, p_y_pos = Fraction(4, 6), Fraction(2, 6)
        p_x_neg, p_y_neg = Fraction(2, 6), Fraction(4, 6)

        def posterior(tokens):
            pos = Fraction(1, 2)
            neg = Fraction(1, 2)
            for t in tokens:
                pos *= p_x_pos if t == "x" else p_y_pos
                neg *= p_x_neg if t == "x" else p_y_neg
            return pos / (pos + neg)

        cases = {"x": ["x"], "x y": ["x", "y"], "x x": ["x", "x"], "y": ["y"]}
        for sentence, tokens in cases.items():
            probe = TopicSentenceCorpus({"t3": [sentence]})
            got = predict_nb(clf, Motion("q", "ban", "t3"), probe)[0]
            assert got == pytest.approx(float(posterior(tokens)), abs=1e-12)

        probe = TopicSentenceCorpus({"t3": ["x"]})
        got = predict_nb(clf, Motion("q", "ban", "t3"), probe)[0]
        assert got == pytest.approx(float(posterior(["x"])), abs=1e-12)

    def test_missing_topic_abstains(self):
        ds, corpus = _nb_fixture()
        clf = train_nb(ds, corpus)
        assert np.array_equal(predict_nb(clf, Motion("q", "ban", "absent"), corpus), [np.nan],
                              equal_nan=True)

    def test_blacklist_forces_zero(self):
        ds, corpus = _nb_fixture()
        clf = train_nb(ds, corpus)
        assert clf.counts.blacklisted("legalize").tolist() == [True]
        got = predict_nb(clf, Motion("q", "legalize", "t1"), corpus)[0]
        assert got == 0.0

    def test_mean_posterior_over_sentences(self):
        ds, corpus = _nb_fixture()
        clf = train_nb(ds, corpus)
        query = Motion("q", "ban", "t9")
        one = [predict_nb(clf, query, TopicSentenceCorpus({"t9": [s]}))[0] for s in ("x", "y y")]
        want = (one[0] + one[1]) / 2
        got = predict_nb(clf, query, TopicSentenceCorpus({"t9": ["x", "y y"]}))[0]
        assert got == pytest.approx(want, abs=1e-15)

    def test_unknown_words_skipped(self):
        ds, corpus = _nb_fixture()
        clf = train_nb(ds, corpus)
        probe = TopicSentenceCorpus({"t9": ["zebra"]})
        assert predict_nb(clf, Motion("q", "ban", "t9"), probe)[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_per_copa_tokenizing_reference(self):
        """New queries on every training topic and on an unseen one (with
        an out-of-vocabulary word), under every action, score exactly as
        ``_nb_reference`` models and ``build_blacklist`` do."""
        rng = np.random.default_rng(76)
        words = ["x", "y", "z", "w", "v"]
        for _ in range(20):
            ds = random_dataset(rng, max_motions=10, max_copas=4, distinct_topics=False)
            sentences = {
                m.topic: [" ".join(rng.choice(words, size=int(rng.integers(1, 5))))
                          for _ in range(int(rng.integers(0, 3)))]
                for m in ds.motions
            }
            sentences["unseen"] = [" ".join(rng.choice(words + ["u"], size=int(rng.integers(1, 5))))
                                   for _ in range(int(rng.integers(1, 4)))]
            corpus = TopicSentenceCorpus(sentences)
            clf = train_nb(ds, corpus, alpha=0.5)
            for topic in sentences:
                for action in ACTION_POOL:
                    query = Motion("q", action, topic)
                    got = predict_nb(clf, query, corpus)
                    want = _reference_scores(ds, corpus, query, alpha=0.5)
                    assert np.array_equal(got, want, equal_nan=True), (topic, action)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.5, 1.0]))
    def test_folds_match_reference_models_of_the_fold(self, seed, alpha):
        """Every fold derived from the once-built count tables scores its
        held-out motion exactly as ``_nb_reference`` models and
        ``build_blacklist`` of the fold dataset do."""
        ds, corpus = _nb_fold_fixture(np.random.default_rng(seed))
        # the planted cases a fold must follow
        full = _nb_reference(ds, corpus, ds.copa("solo"), alpha)
        fold = _nb_reference(without_motion(ds, "m2"), corpus, ds.copa("solo"), alpha)
        assert "lonely" in full.log_prob_pos and "lonely" not in fold.log_prob_pos
        assert "limit" not in build_blacklist(ds)["solo"]
        assert "limit" in build_blacklist(without_motion(ds, "m2"))["solo"]
        assert "limit" not in build_blacklist(without_motion(ds, "m2"))["c0"]

        config = EvalConfig(methods=("nb",), nb_alpha=alpha)
        model = train_nb(ds, corpus, alpha=alpha)
        for m in ds.motions:
            fold_ds = without_motion(ds, m.id)
            got = score_motion("nb", model.without_motion(m.id), m, config,
                               SimilarityContext(sentences=corpus))
            want = _reference_scores(fold_ds, corpus, m, alpha)
            assert np.array_equal(got, want, equal_nan=True), m.id


def _nb_fold_fixture(rng):
    """A random dataset and sentence corpus with planted cases: motions m0
    and m1 share a topic, m3's topic has no sentences, only m2's topic's
    sentences hold the word "lonely", and m2 is CoPA "solo"'s only member
    with the action "limit", which m4 in CoPA "c0" also has."""
    n = int(rng.integers(5, 11))
    topics = ["shared", "shared", "private", "silent"]
    topics += [str(rng.choice(["shared", "t4", "t5", "t6"])) for _ in range(n - 4)]
    actions = [str(rng.choice(["ban", "legalize", "subsidize", "promote"])) for _ in range(n)]
    actions[2] = actions[4] = "limit"
    motions = [(f"m{i}", actions[i], topics[i]) for i in range(n)]
    copas = [("solo", "solo theme")]
    copas += [(f"c{j}", f"theme {j}") for j in range(int(rng.integers(1, 4)))]
    labels = [("m2", "solo"), ("m4", "c0")] + [
        (mid, cid) for mid, _, _ in motions for cid, _ in copas
        if mid not in ("m2", "m4") and rng.random() < 0.4
    ]
    words = ["x", "y", "z", "w"]
    sentences = {
        topic: [" ".join(rng.choice(words, size=int(rng.integers(1, 5))))
                for _ in range(int(rng.integers(1, 4)))]
        for topic in sorted(set(topics) - {"silent"})
    }
    sentences["private"].append("lonely " + " ".join(rng.choice(words, size=2)))
    return build_dataset(motions, copas, labels), TopicSentenceCorpus(sentences)


def _reference_scores(ds, corpus, motion, alpha):
    """``motion``'s NB scores per CoPA of ``ds`` from ``_nb_reference``
    models and ``build_blacklist``; NaN where NB abstains."""
    sentences = corpus.get(motion.topic)
    blacklist = build_blacklist(ds)
    scores = []
    for c in ds.copas:
        if not sentences:
            scores.append(math.nan)
        elif motion.action in blacklist[c.id]:
            scores.append(0.0)
        else:
            model = _nb_reference(ds, corpus, c, alpha)
            total = 0.0
            for s in sentences:  # in sentence order
                total += model.posterior(s)
            scores.append(min(1.0, max(0.0, total / len(sentences))))
    return np.array(scores)


# ---------------------------------------------------------------------------
# Feature LR
# ---------------------------------------------------------------------------


def _action_separable_ds():
    motions = [(f"b{i}", "ban", f"t{i}") for i in range(6)]
    motions += [(f"l{i}", "legalize", f"u{i}") for i in range(6)]
    labels = [(f"b{i}", "c1") for i in range(6)] + [(f"l{i}", "c2") for i in range(6)]
    return build_dataset(motions, [("c1", "one"), ("c2", "two")], labels)


def _table_rows(ds, ctx):
    table = FeatureTable(ds, ctx)
    return table.values, table.labels


class TestFeatureLR:
    def test_zero_weights_score_sigmoid_bias(self):
        ds = _action_separable_ds()
        identity = Standardizer(mean=np.zeros(N_FEATURES), scale=np.ones(N_FEATURES))
        fit = LogRegFit(np.zeros(N_FEATURES), -0.3, n_iters=0, grad_norm=0.0, tol=1e-6)
        rows = motion_features(ds.motions[0], ds, SimilarityContext())
        scores = predict_feature_lr((identity, fit), rows)
        for s in scores:
            assert s == pytest.approx(sigmoid(-0.3), abs=1e-15)

    def test_separable_by_count_feature_ranks_perfectly(self):
        ds = _action_separable_ds()
        ctx = SimilarityContext()
        model = train_feature_lr(*_table_rows(ds, ctx), max_iters=3000)
        positive, negative = [], []
        for m in ds.motions:
            scores = predict_feature_lr(model, motion_features(m, ds, ctx))
            for cid, s in zip(ds.copa_ids, scores, strict=True):
                (positive if (m.id, cid) in ds.labels else negative).append(s)
        assert min(positive) > max(negative)  # AUC 1.0 on train

    def test_constant_feature_weight_stays_zero(self):
        ds = _action_separable_ds()
        ctx = SimilarityContext()  # similarity features all constant zero
        _, (weights, _) = train_feature_lr(*_table_rows(ds, ctx), max_iters=500)
        assert np.all(weights[:13] == 0.0)

    def test_never_abstains(self):
        ds = _action_separable_ds()
        model = train_feature_lr(*_table_rows(ds, SimilarityContext()), max_iters=200)
        rows = motion_features(Motion("q", "promote", "nothing"), ds, SimilarityContext())
        scores = predict_feature_lr(model, rows)
        assert len(scores) == len(ds.copa_ids) and not np.isnan(scores).any()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), spread=st.integers(-3, 3))
def test_block_scores_equal_a_per_row_loop(seed, n, spread):
    """The feature LR and W2V score their rows as one block: bit for bit a
    loop that takes each row's 1-D dot product and sigmoid on its own."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** spread
    rows = rng.normal(size=(n, N_FEATURES)) * scale
    scaler = Standardizer(mean=rng.normal(size=N_FEATURES),
                          scale=np.where(rng.random(N_FEATURES) < 0.2, 0.0,
                                         rng.random(N_FEATURES)))
    fit = LogRegFit(rng.normal(size=N_FEATURES) * scale, float(rng.normal()) * scale,
                    n_iters=0, grad_norm=0.0, tol=1e-6)
    weights, bias = fit
    want = [float(sigmoid(float(weights @ ((row - scaler.mean) * scaler.scale)) + bias))
            for row in rows]
    assert np.array_equal(predict_feature_lr((scaler, fit), rows), want)

    dim = 8
    copas = [(f"c{j}", f"theme {j}") for j in range(max(n, 1))]
    # the ban motion is in every other CoPA, so the others veto ban
    ds = build_dataset([("m0", "ban", "t")], copas, [("m0", cid) for cid, _ in copas[::2]])
    ctx = SimilarityContext(embeddings=EmbeddingStore({"t": rng.normal(size=dim)}, dim))
    fits = [LogRegFit(rng.normal(size=dim) * scale, float(rng.normal()) * scale,
                      n_iters=0, grad_norm=0.0, tol=1e-6) for _ in copas]
    x = ctx.term_vector(SimilarityKind.EMBEDDING, "t")
    vetoed = ds.label_counts.blacklisted("ban")
    want = [0.0 if veto else float(sigmoid(float(w @ x) + b))
            for (w, b), veto in zip(fits, vetoed, strict=True)]
    assert len(copas) < 2 or 0 < vetoed.sum() < len(copas)
    assert np.array_equal(predict_w2v(fits, ds.label_counts, Motion("q", "ban", "t"), ctx), want)


# ---------------------------------------------------------------------------
# Fit workspaces and KNN's topic block: what every fold shares
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The benchmark's generated 28 x 37 inputs of seed 1: the dataset and
    a context of every store."""
    path = tmp_path_factory.mktemp("generated")
    load_bench_generator().write_workload(str(path), seed=1, n_motions=28, n_copas=37)
    wiki = WikiCorpus.from_file(path / "wiki.json")
    ctx = SimilarityContext(embeddings=EmbeddingStore.from_file(path / "embeddings.txt"),
                            alt_embeddings=EmbeddingStore.from_file(path / "embeddings_alt.txt"),
                            wiki=wiki, tfidf=TfIdfModel.from_wiki_corpus(wiki))
    return load_dataset(path / "dataset.json"), ctx


def test_a_used_workspace_bounds_what_a_feature_lr_fold_allocates(generated):
    """Once a workspace has served one fold, the fit of a fold of the same
    shape peaks below two n x (d+1) float64 arrays: the standardized block,
    [X 1], the Hessian's weighted rows and the per-row vectors are the
    workspace's, and only ``standardize``'s variance pass remains."""
    ds, ctx = generated
    table = FeatureTable(ds, ctx)
    first, second = (table.without_motion(mid) for mid in ds.motion_ids[:2])
    train_feature_lr(first.values, first.labels, workspace=table.workspace)
    n_rows = second.values.shape[0] * second.values.shape[1]
    array_bytes = n_rows * (N_FEATURES + 1) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, fit = train_feature_lr(second.values, second.labels, workspace=table.workspace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fit.n_iters > 0
    assert peak < 2 * array_bytes, (peak, array_bytes)


def _workspace_arrays(workspace: FitWorkspace) -> list[np.ndarray]:
    return list(workspace._arrays.values())


def test_fits_that_share_a_workspace_return_arrays_of_their_own(generated):
    """Fold A's model is untouched by fold B's fit into the same workspace,
    shares no memory with it, and equals a fit with a workspace of its own,
    bit for bit; for the feature LR and for W2V."""
    ds, ctx = generated
    table = FeatureTable(ds, ctx)
    fold_a, fold_b = (table.without_motion(mid) for mid in ds.motion_ids[:2])
    scaler, fit = train_feature_lr(fold_a.values, fold_a.labels, workspace=table.workspace)
    model = [scaler.mean, scaler.scale, fit[0], np.array(fit[1])]
    kept = [a.copy() for a in model]
    train_feature_lr(fold_b.values, fold_b.labels, workspace=table.workspace)
    alone_scaler, alone_fit = train_feature_lr(fold_a.values, fold_a.labels)
    alone = [alone_scaler.mean, alone_scaler.scale, alone_fit[0], np.array(alone_fit[1])]
    for got, want, fresh in zip(model, kept, alone, strict=True):
        assert got.tobytes() == want.tobytes() == fresh.tobytes()
    assert len(_workspace_arrays(table.workspace)) >= 8
    for got in model[:3]:
        assert not any(np.shares_memory(got, a) for a in _workspace_arrays(table.workspace))

    w2v = W2VTable(ds, ctx)
    embedded = [ds.motion_ids[row] for row in w2v.rows[:2]]
    fold_a, fold_b = (w2v.without_motion(mid) for mid in embedded)
    fits = train_w2v_lr(fold_a, tol=1e-4, workspace=w2v.workspace)
    kept = [(w.copy(), b) for w, b in fits]
    train_w2v_lr(fold_b, tol=1e-4, workspace=w2v.workspace)
    alone = train_w2v_lr(W2VTable(ds, ctx).without_motion(embedded[0]), tol=1e-4)
    for (w, b), (kept_w, kept_b), (alone_w, alone_b) in zip(fits, kept, alone, strict=True):
        assert w.tobytes() == kept_w.tobytes() == alone_w.tobytes() and b == kept_b == alone_b
        assert not any(np.shares_memory(w, a) for a in _workspace_arrays(w2v.workspace))
    assert fold_a.workspace is fold_b.workspace is w2v.workspace


def test_a_workspace_refits_across_shapes_as_a_new_one():
    """A workspace that served fits of other shapes gives each fit the bits
    of a fit with a workspace of its own."""
    rng = np.random.default_rng(17)
    workspace = FitWorkspace()
    for n, d in ((30, 3), (30, 3), (12, 5), (30, 3), (1, 1)):
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        shared = logreg_fit(X, y, lam=1e-2, workspace=workspace)
        alone = logreg_fit(X, y, lam=1e-2)
        assert shared[0].tobytes() == alone[0].tobytes() and shared[1] == alone[1]
        assert shared.n_iters == alone.n_iters and shared.grad_norm == alone.grad_norm


@pytest.mark.parametrize("rows, max_topics", [(1, clfmod.KNN_BLOCK_MAX_TOPICS),
                                              (3, clfmod.KNN_BLOCK_MAX_TOPICS),
                                              (clfmod.KNN_BLOCK_ROWS, clfmod.KNN_BLOCK_MAX_TOPICS),
                                              (clfmod.KNN_BLOCK_ROWS, 7)])
def test_knn_fold_rows_from_the_topic_block_equal_one_row_blocks(monkeypatch, rows,
                                                                 max_topics):
    """Every fold reads its held-out motion's similarities from the
    dataset's topic block, built once in chunks of ``rows`` rows: bit for
    bit the one-row ``similarity_block`` a new query gets, with two
    spellings of one topic and a topic without an embedding among them;
    and the fold's KNN row equals the dataset's with the topic excluded.
    With more distinct topics (8) than ``max_topics``, no block is kept
    and each fold gets the one-row block itself."""
    monkeypatch.setattr(clfmod, "KNN_BLOCK_ROWS", rows)
    monkeypatch.setattr(clfmod, "KNN_BLOCK_MAX_TOPICS", max_topics)
    rng = np.random.default_rng(5)
    words = ["smoking", "alcohol", "gambling", "nuclear", "power", "whaling"]
    store = EmbeddingStore({w: rng.normal(size=4) for w in words}, 4)
    ctx = SimilarityContext(embeddings=store)
    topics = ["smoking", " Smoking ", "alcohol", "nuclear power", "unheard of", "gambling",
              "whaling", "power", "alcohol"]
    motions = [(f"m{i}", ("ban", "legalize")[i % 2], t) for i, t in enumerate(topics)]
    labels = [(f"m{i}", f"c{i % 3}") for i in range(len(topics))]
    ds = build_dataset(motions, [(f"c{j}", f"theme {j}") for j in range(3)], labels)
    assert ctx.term_vector(SimilarityKind.EMBEDDING, "unheard of") is None
    inputs = KNNCandidates(ds, ctx)
    for m in ds.motions:
        fold = inputs.without_motion(m.id)
        assert fold.exclude_topic == m.topic
        sims, present = fold.similarities(m)
        want_sims, want_present = similarity_block(SimilarityKind.EMBEDDING, [m.topic],
                                                   topics, ctx)
        assert sims.tobytes() == want_sims[0].tobytes(), m
        assert np.array_equal(present, want_present[0]), m
        for top in (1, 3):
            got = predict_knn(fold, m, ctx, min_neighbors=1, top=top)
            want = predict_knn(ds, m, ctx, min_neighbors=1, top=top, exclude_topic=m.topic)
            assert np.array_equal(got, want, equal_nan=True), (m, top)
    # one block of the distinct topics, shared by every fold, when they are few enough
    if len(set(topics)) <= max_topics:
        assert inputs._block[0].shape == (len(set(topics)),) * 2
    else:
        assert inputs._block == []
    # a new query against the inputs as built reads its own row, not the block
    query = Motion("q", "ban", " smoking")
    assert np.array_equal(predict_knn(inputs, query, ctx, min_neighbors=1),
                          predict_knn(ds, query, ctx, min_neighbors=1), equal_nan=True)


def test_knn_candidates_take_no_second_context_or_topic(generated):
    """``KNNCandidates`` are scored with the context they were built with
    and exclude their held-out motion's topic themselves; ``predict_knn``
    refuses another context or an ``exclude_topic`` for them."""
    ds, ctx = generated
    fold = KNNCandidates(ds, ctx).without_motion(ds.motion_ids[0])
    m = ds.motions[0]
    with pytest.raises(ValueError, match="context they were built with"):
        predict_knn(fold, m, SimilarityContext(embeddings=ctx.embeddings))
    with pytest.raises(ValueError, match="held-out motion"):
        predict_knn(fold, m, ctx, exclude_topic=m.topic)


# ---------------------------------------------------------------------------
# Ensemble and score matrices
# ---------------------------------------------------------------------------


def _matrix(entries, motions=("m1", "m2"), copas=("c1", "c2")):
    return score_matrix(motions, copas, entries)


class TestEnsemble:
    def test_single_input_identity(self):
        m = _matrix({("m1", "c1"): 0.4})
        out = ensemble([m])
        assert matrix_entries(out) == matrix_entries(m)

    def test_max_rule_with_abstentions(self):
        a = _matrix({("m1", "c1"): 0.2})
        b = _matrix({})  # abstains everywhere
        c = _matrix({("m1", "c1"): 0.7, ("m2", "c2"): 0.1})
        out = ensemble([a, b, c])
        assert out.get("m1", "c1") == 0.7
        assert out.get("m2", "c2") == 0.1
        assert out.get("m1", "c2") is None

    def test_matches_elementwise_max_oracle(self):
        rng = np.random.default_rng(81)
        motions = tuple(f"m{i}" for i in range(6))
        copas = tuple(f"c{j}" for j in range(4))
        for _ in range(40):
            mats = []
            for tag in "abc":
                entries = {
                    (m, c): float(rng.random())
                    for m in motions
                    for c in copas
                    if rng.random() < 0.6
                }
                mats.append(_matrix(entries, motions, copas))
            out = ensemble(mats)
            assert matrix_entries(out) == elementwise_max([matrix_entries(m) for m in mats])

    def test_inconsistent_id_spaces_rejected(self):
        a = _matrix({}, motions=("m1",))
        b = _matrix({}, motions=("m1", "m2"))
        with pytest.raises(ValueError):
            ensemble([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ensemble([])


class TestScoreMatrix:
    def test_rejects_out_of_range_scores(self):
        for bad in (1.5, -0.1, math.nan, math.inf, -math.inf):
            # a scorer's row: an error where the row does not abstain ...
            for abstain in (False, [False, False], [False, True]):
                with pytest.raises(ValueError):
                    score_row([bad, 0.5], abstain=abstain)
            # ... and NaN where it does
            for abstain in (True, [True, False]):
                got = score_row([bad, 0.5], abstain=abstain)
                want = [math.nan, math.nan if abstain is True else 0.5]
                assert np.array_equal(got, want, equal_nan=True)
            # a stored matrix: out-of-range and infinite entries are errors
            if not math.isnan(bad):
                with pytest.raises(ValueError):
                    ScoreMatrix(("m1",), ("c1", "c2"), [[bad, 0.5]])
        assert np.array_equal(score_row([0.0, 1.0]), [0.0, 1.0])

    def test_rejects_unknown_ids(self):
        m = _matrix({})
        for mid, cid in (("nope", "c1"), ("m1", "nope")):
            with pytest.raises(KeyError):
                m.get(mid, cid)

    def test_get_returns_none_at_nan(self):
        m = ScoreMatrix(("m1",), ("c1", "c2"), [[math.nan, 0.5]])
        assert m.get("m1", "c1") is None
        assert m.get("m1", "c2") == 0.5


def test_build_blacklist_exact_definition():
    ds = build_dataset(
        [("m0", "ban", "a"), ("m1", "legalize", "b"), ("m2", "subsidize", "c")],
        [("c1", "one")],
        [("m0", "c1"), ("m1", "c1")],
    )
    bl = build_blacklist(ds)
    assert "ban" not in bl["c1"]
    assert "legalize" not in bl["c1"]
    assert "subsidize" in bl["c1"]
    assert "promote" in bl["c1"]  # registry action never seen in c1
    # the label counts that the W2V and NB blacklists read agree, in
    # the dataset and in every fold of it
    for counts, fold in [(ds.label_counts, ds)] + [
        (ds.label_counts.without_motion(m.id), without_motion(ds, m.id)) for m in ds.motions
    ]:
        for action in ("ban", "legalize", "subsidize", "promote", "limit", "unregistered"):
            want = [action in build_blacklist(fold)[c.id] for c in fold.copas]
            assert counts.blacklisted(action).tolist() == want, action
