# The evaluation protocol: each method's inputs are built once from all
# motions, and each held-out motion is scored against them minus that
# motion (the two logistic regressions retrain per fold); the collected
# score matrices drive precision/recall and precision-at-1 curves.
#
# Run from anywhere:  python3 demos/05_leave_one_out_eval.py

from pathlib import Path

import numpy as np

from copa import (
    EmbeddingStore,
    EvalConfig,
    SimilarityContext,
    TfIdfModel,
    TopicSentenceCorpus,
    WikiCorpus,
    baseline_largest,
    leave_one_out,
    load_dataset,
    p_at_1_curve,
    pr_curve,
)

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "sample_dataset.json")
wiki = WikiCorpus.from_file(DATA / "wiki_corpus.json")
ctx = SimilarityContext(
    embeddings=EmbeddingStore.from_file(DATA / "toy_embeddings.txt"),
    alt_embeddings=EmbeddingStore.from_file(DATA / "toy_embeddings_alt.txt"),
    tfidf=TfIdfModel.from_wiki_corpus(wiki),
    wiki=wiki,
    sentences=TopicSentenceCorpus.from_jsonl(DATA / "sentence_corpus.jsonl"),
)

# Hyperparameters sized for the 15-motion sample: the published-scale
# defaults (support cutoff 5, 10-motion minimum for topic methods) would
# leave the small CoPAs unscored here.
config = EvalConfig(
    methods=("ba", "knn", "w2v", "nb", "lr"),
    ba_k=2,
    knn_min_neighbors=2,
    topic_min_motions=2,
    tol=1e-4,
    max_iters=500,
)

print(f"running {len(ds.motions)} leave-one-out folds ...")
matrices = leave_one_out(ds, config, ctx)
print()

for name, matrix in matrices.items():
    # the score matrix is dense; NaN marks an abstention
    scored = int(np.count_nonzero(~np.isnan(matrix.scores)))
    total = len(ds.motions) * len(ds.copas)
    print(f"  {name:<9} scored {scored:>3}/{total} (motion, CoPA) pairs")
print()


def show_curve(points, kind):
    # print every tenth grid step to keep the table small
    if kind == "pr":
        print("    threshold  precision  recall")
        rows = [(p.threshold, p.precision, p.recall) for p in points]
    else:
        print("    threshold  coverage   p@1")
        rows = [(p.threshold, p.coverage, p.p_at_1) for p in points]
    for t, x, y in rows:
        if round(t * 100) % 10 == 0:
            print(f"    {t:9.2f}  {x:9.3f}  {y:6.3f}")


for name in ("ensemble", "ba"):
    print(f"== {name}: precision/recall over all labelled pairs ==")
    show_curve(pr_curve(matrices[name], ds), "pr")
    print()

print("== ensemble: precision of the top-ranked CoPA vs coverage ==")
show_curve(p_at_1_curve(matrices["ensemble"], ds), "p1")
print()

print("== the same curve without the three general CoPAs ==")
show_curve(p_at_1_curve(matrices["ensemble"], ds, exclude_general=True), "p1")
print()

base = baseline_largest(ds)
print(f"largest-CoPA baseline: predict {base.copa_id!r} always "
      f"-> precision {base.precision:.3f}")
base = baseline_largest(ds, exclude_general=True)
print(f"largest non-general CoPA: {base.copa_id!r} "
      f"-> precision {base.precision:.3f}")
