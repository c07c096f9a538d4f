"""Acceptance suite: one test per shipped guarantee, each checked against
an independent oracle at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.
"""

import json
import os
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from copa.classifiers import (
    TopicSentenceCorpus,
    ensemble,
    logreg_fit,
    predict_ba,
    predict_knn,
    predict_nb,
    train_ba,
    train_nb,
)
from copa.cli import main as cli_main
from copa.evaluation import (
    baseline_largest,
    default_threshold_grid,
    p_at_1_curve,
    pr_curve,
)
from copa.features import FEATURE_NAMES, FeatureTable, motion_features
from copa.kb import Motion, Stance, build_syllogism, copa_stats, instantiate_claim, load_dataset
from copa.textsim import SimilarityContext, hypergeom_pvalue
from helpers import (
    build_dataset,
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
    compute_features,
    count_features,
    elementwise_max,
    knn_scores,
    p_at_1_points,
    pr_points,
    predicted_pairs,
    without_motion,
)

GRID = default_threshold_grid()
COUNT_IDX = [FEATURE_NAMES.index(n) for n in (
    "action_share_of_all_motions",
    "action_copa_jaccard",
    "copa_share_of_action_motions",
    "action_share_of_copa_motions",
)]


def _report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_c01_knn_matches_bruteforce_oracle_exactly():
    rng = np.random.default_rng(2001)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        ds = random_dataset(rng, max_motions=20, max_copas=5,
                            distinct_topics=bool(rng.random() < 0.5))
        store = random_embeddings(rng, topic_words(ds), dim=8)
        ctx = SimilarityContext(embeddings=store)
        queries = list(ds.motions) + [Motion("q", "ban", ds.motions[0].topic)]
        for query in queries:
            train = without_motion(ds, query.id) if query.id != "q" else ds
            got = predict_knn(train, query, ctx, threshold=0.5, min_neighbors=3, top=5)
            want = knn_scores(train, query, store, threshold=0.5, min_neighbors=3, top=5)
            assert np.array_equal(got, want, equal_nan=True)  # exact, abstentions included
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, f"KNN equals sort/threshold/count oracle on {checked} predictions "
               f"over 200 datasets in {elapsed:.2f}s")


def test_c02_ba_and_count_features_match_counting_oracles():
    rng = np.random.default_rng(2002)
    ctx = SimilarityContext()
    for _ in range(200):
        ds = random_dataset(rng, max_motions=20, max_copas=5)
        model = train_ba(ds, k=int(rng.integers(1, 4)))
        for m in ds.motions:
            fold = without_motion(ds, m.id)
            fold_model = train_ba(fold, k=model.k)
            assert np.array_equal(predict_ba(fold_model, m), ba_scores(fold, m, k=model.k),
                                  equal_nan=True)
        table = FeatureTable(ds, ctx)
        for m in ds.motions[:5]:
            # the program's rows: a new query's, and the held-out motion's in its fold
            query_rows = motion_features(m, ds, ctx)[:, COUNT_IDX]
            fold_rows = table.without_motion(m.id).query_rows(m)[:, COUNT_IDX]
            for c, query_row, fold_row in zip(ds.copas, query_rows, fold_rows):
                assert tuple(query_row) == count_features(m, c, ds)
                assert tuple(fold_row) == count_features(m, c, ds, holdout=m.id)
                plain = compute_features(m, c, ds, ctx)
                assert tuple(plain[COUNT_IDX]) == count_features(m, c, ds)
                held = compute_features(m, c, ds, ctx, loo_holdout=m.id)
                assert tuple(held[COUNT_IDX]) == count_features(m, c, ds, holdout=m.id)
                if m.id in c.motion_ids:
                    # the denominator of the last ratio shrinks to |M_c| - 1
                    inter = sum(
                        1 for mid in c.motion_ids
                        if mid != m.id and ds.motion(mid).action == m.action
                    )
                    members_left = len(c.motion_ids) - 1
                    want = inter / members_left if members_left else 0.0
                    assert held[COUNT_IDX[3]] == want
    _report(2, "BA-k scores and count features equal set-counting oracles on "
               "200 datasets, leave-one-out exclusion included")


def test_c03_logreg_gradient_and_descent():
    rng = np.random.default_rng(2003)
    h = 1e-6
    problems = 0
    for _ in range(6):
        n, d = int(rng.integers(5, 25)), int(rng.integers(1, 7))
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
                numeric[j] = (logreg_objective(X, y, w + e, b, lam)
                              - logreg_objective(X, y, w - e, b, lam)) / (2 * h)
            numeric[d] = (logreg_objective(X, y, w, b + h, lam)
                          - logreg_objective(X, y, w, b - h, lam)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5
        values = []
        logreg_fit(X, y, lam=lam, on_step=lambda i, v: values.append(v))
        assert values, "optimizer took no steps"
        assert all(b2 <= a2 for a2, b2 in zip(values, values[1:]))
        problems += 1
    _report(3, f"analytic gradient within 1e-5 of central differences at 10 points "
               f"on {problems} problems; objective non-increasing every step")


def test_c04_hypergeom_exhaustive_to_population_30():
    started = time.perf_counter()
    checked = 0
    for N in range(1, 31):
        for n in range(N + 1):
            for K in range(N + 1):
                hi = min(n, K)
                denom = comb(N, n)
                numerators = [comb(K, i) * comb(N - K, n - i) for i in range(hi + 1)]
                suffix = [0] * (hi + 2)
                for i in range(hi, -1, -1):
                    suffix[i] = suffix[i + 1] + numerators[i]
                previous = None
                for k in range(hi + 1):
                    got = hypergeom_pvalue(k, n, K, N)
                    want = suffix[k] / denom
                    assert abs(got - want) <= 1e-9, (k, n, K, N)
                    if previous is not None:
                        assert got <= previous + 1e-12
                    previous = got
                    checked += 1
    elapsed = time.perf_counter() - started
    _report(4, f"hypergeometric tail equals exact enumeration on {checked} "
               f"tuples (N <= 30) within 1e-9, monotone in k; {elapsed:.2f}s")


def test_c05_naive_bayes_closed_form_and_symmetry():
    ds = build_dataset(
        [("m1", "ban", "t1"), ("m2", "ban", "t2")], [("c", "theme")], [("m1", "c")]
    )
    corpus = TopicSentenceCorpus({"t1": ["x x", "x y"], "t2": ["y y", "x y"]})
    clf = train_nb(ds, corpus, alpha=1.0)
    query = Motion("q", "ban", "probe")

    p_pos = {"x": Fraction(4, 6), "y": Fraction(2, 6)}
    p_neg = {"x": Fraction(2, 6), "y": Fraction(4, 6)}

    def closed_form(tokens):
        pos, neg = Fraction(1, 2), Fraction(1, 2)
        for t in tokens:
            pos *= p_pos[t]
            neg *= p_neg[t]
        return float(pos / (pos + neg))

    for sentence in ("x", "y", "x y", "x x", "y y x"):
        # a one-sentence probe corpus: the mean posterior is that sentence's
        got = predict_nb(clf, query, TopicSentenceCorpus({"probe": [sentence]}))[0]
        assert abs(got - closed_form(sentence.split())) <= 1e-12

    sym_ds = build_dataset(
        [("m1", "ban", "ta"), ("m2", "ban", "tb")], [("c", "theme")], [("m1", "c")]
    )
    sym_corpus = TopicSentenceCorpus({"ta": ["w v"], "tb": ["w v"]})
    sym = train_nb(sym_ds, sym_corpus, alpha=1.0)
    assert predict_nb(sym, query, TopicSentenceCorpus({"probe": ["w v"]}))[0] == 0.5
    _report(5, "NB posteriors equal closed-form Bayes within 1e-12 on the "
               "2-word corpus; symmetric case is exactly 0.5")


def test_c06_ensemble_is_union_and_elementwise_max():
    rng = np.random.default_rng(2006)
    motions = tuple(f"m{i}" for i in range(8))
    copas = tuple(f"c{j}" for j in range(5))
    for _ in range(60):
        mats = []
        for tag in ("a", "b", "c", "d"):
            entries = {
                (m, c): float(rng.random())
                for m in motions for c in copas if rng.random() < 0.5
            }
            mats.append(score_matrix(motions, copas, entries))
        combined = ensemble(mats)
        assert matrix_entries(combined) == elementwise_max([matrix_entries(m) for m in mats])
        included = set(copas)
        for t in GRID:
            union = set()
            for m in mats:
                union |= predicted_pairs(matrix_entries(m), t, included)
            assert predicted_pairs(matrix_entries(combined), t, included) == union
    _report(6, "ensemble entries equal elementwise max and its predicted-pair "
               "set is the union of the constituents' at every threshold")


def test_c07_curves_match_exhaustive_sweeps():
    rng = np.random.default_rng(2007)
    motions = [(f"m{i}", "ban", f"t{i}") for i in range(10)]
    copas = [(f"c{j}", f"theme {j}") for j in range(5)]
    labels = [(m[0], c[0]) for m in motions for c in copas if rng.random() < 0.3]
    ds = build_dataset(motions, copas, labels)
    for _ in range(20):
        entries = {
            (m.id, c.id): float(rng.random())
            for m in ds.motions for c in ds.copas if rng.random() < 0.7
        }
        matrix = score_matrix(ds.motion_ids, ds.copa_ids, entries)
        got_pr = [(p.threshold, p.precision, p.recall)
                  for p in pr_curve(matrix, ds, thresholds=GRID)]
        assert got_pr == pr_points(entries, ds.labels, set(ds.copa_ids), GRID)
        got_p1 = [(p.threshold, p.coverage, p.p_at_1)
                  for p in p_at_1_curve(matrix, ds, thresholds=GRID)]
        assert got_p1 == p_at_1_points(entries, ds.labels, set(ds.copa_ids),
                                       ds.motion_ids, GRID)
        recalls = [r for (_, _, r) in got_pr]
        assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))
        coverages = [c for (_, c, _) in got_p1]
        assert all(b <= a + 1e-12 for a, b in zip(coverages, coverages[1:]))
    _report(7, "pr and p@1 curves equal exhaustive threshold sweeps on random "
               "10x5 matrices; recall and coverage never increase")


def test_c08_claim_instantiation_and_syllogism(sample_dataset):
    ds = sample_dataset
    nato = next(m for m in ds.motions if m.topic == "NATO")
    framework = ds.copa("framework")
    assert instantiate_claim(framework.claim(Stance.PRO), nato) == "NATO works efficiently"
    assert instantiate_claim(framework.claim(Stance.CON), nato) == "NATO fails to achieve its goals"

    solar = next(m for m in ds.motions if m.topic == "solar energy")
    syllogism = build_syllogism(
        solar, ds.copa("clean_energy"), Stance.PRO, ds.actions,
        minor_override="Solar energy is a form of clean energy.",
    )
    assert syllogism.lines() == (
        "Humanity must embrace clean energy in order to fight climate change.",
        "Solar energy is a form of clean energy.",
        "Therefore, humanity must further exploit solar energy.",
    )
    _report(8, "claim instantiation and the reference three-line syllogism "
               "reproduce verbatim")


FULL_DATASET = os.environ.get("COPA_FULL_DATASET", "")


@pytest.mark.skipif(
    not (FULL_DATASET and Path(FULL_DATASET).exists()),
    reason="full published dataset not supplied (set COPA_FULL_DATASET to its path)",
)
def test_c09_full_dataset_statistics():
    ds = load_dataset(FULL_DATASET)
    assert len(ds.motions) == 689
    assert len(ds.copas) == 37
    stats = copa_stats(ds)
    assert stats.covered_fraction == pytest.approx(0.87, abs=0.01)
    assert stats.mean_copas_per_motion == pytest.approx(1.95, abs=0.02)

    def by_name(name):
        matches = [c for c in ds.copas if c.name == name or c.id == name]
        assert matches, f"no CoPA named {name!r}"
        return matches[0]

    assert stats.sizes[by_name("Fixable").id] == 207
    assert stats.sizes[by_name("Conservatism").id] == 211

    overall = baseline_largest(ds)
    assert overall.copa_id == by_name("Conservatism").id
    assert overall.precision == pytest.approx(0.30, abs=0.01)
    reduced = baseline_largest(ds, exclude_general=True)
    assert reduced.copa_id == by_name("Coercion").id
    assert reduced.precision == pytest.approx(0.12, abs=0.01)
    _report(9, "published dataset statistics and largest-class baselines verified")


def _determinism_workspace(tmp_path):
    dataset = {
        "actions": [{"id": "ban", "surface": "ban"}, {"id": "legalize", "surface": "legalize"}],
        "copas": [
            {"id": "c1", "name": "One", "topic_related": True, "manual_titles": ["alpha"],
             "claims": [{"stance": "pro", "template": "[TOPIC] up"},
                        {"stance": "con", "template": "[TOPIC] down"}]},
            {"id": "c2", "name": "Two", "topic_related": True, "manual_titles": ["beta"],
             "claims": [{"stance": "pro", "template": "yes [TOPIC]"},
                        {"stance": "con", "template": "no [TOPIC]"}]},
        ],
        "motions": [
            {"id": f"m{i}", "action": ("ban", "legalize")[i % 2], "topic": f"t{i}"}
            for i in range(6)
        ],
        "labels": [
            {"motion": f"m{i}", "copa": ("c1", "c2")[i % 2]} for i in range(6)
        ],
    }
    (tmp_path / "ds.json").write_text(json.dumps(dataset))
    rng = np.random.default_rng(2010)
    lines = ["6 4"] + [
        f"t{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=4)) for i in range(6)
    ]
    (tmp_path / "emb.txt").write_text("\n".join(lines) + "\n")
    sentences = [json.dumps({"topic": f"t{i}", "sentence": f"words about t{i} here"})
                 for i in range(6)]
    (tmp_path / "sent.jsonl").write_text("\n".join(sentences) + "\n")
    config = {
        "dataset": str(tmp_path / "ds.json"),
        "embeddings": str(tmp_path / "emb.txt"),
        "sentence_corpus": str(tmp_path / "sent.jsonl"),
        "ba_k": 1, "knn_min_neighbors": 1, "topic_min_motions": 1,
        "tol": 0.0001, "max_iters": 150,
        "methods": ["ba", "knn", "w2v", "nb", "lr"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_c10_eval_outputs_are_byte_identical(tmp_path):
    config = _determinism_workspace(tmp_path)
    runner = CliRunner()
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["--config", str(config), "eval", "--out", str(out)])
        assert result.exit_code == 0, result.output
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert digests[0].keys() == digests[1].keys()
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{name} differs between runs"
    _report(10, "two consecutive eval runs produced byte-identical CSV/JSON")
