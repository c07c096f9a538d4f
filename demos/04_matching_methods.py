# The five matching methods plus their ensemble, trained on the sample
# dataset and asked to score a new motion against every CoPA.
#
# Run from anywhere:  python3 demos/04_matching_methods.py

import math
from pathlib import Path

from copa import (
    EmbeddingStore,
    FeatureTable,
    Motion,
    ScoreMatrix,
    SimilarityContext,
    TfIdfModel,
    TopicSentenceCorpus,
    W2VTable,
    WikiCorpus,
    ensemble,
    load_dataset,
    motion_features,
    predict_ba,
    predict_feature_lr,
    predict_knn,
    predict_nb,
    predict_w2v,
    train_ba,
    train_feature_lr,
    train_nb,
    train_w2v_lr,
)

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "sample_dataset.json")
wiki = WikiCorpus.from_file(DATA / "wiki_corpus.json")
ctx = SimilarityContext(
    embeddings=EmbeddingStore.from_file(DATA / "toy_embeddings.txt"),
    alt_embeddings=EmbeddingStore.from_file(DATA / "toy_embeddings_alt.txt"),
    tfidf=TfIdfModel.from_wiki_corpus(wiki),
    wiki=wiki,
)
sentences = TopicSentenceCorpus.from_jsonl(DATA / "sentence_corpus.jsonl")

# The query motion is not in the dataset.
query = Motion("query", "subsidize", "solar energy")
print(f"query motion: we should {ds.actions[query.action].surface} {query.topic}")
print()

# --- action statistics: p(CoPA | action) with a support cutoff --------------
ba = train_ba(ds, k=2)
scores = {"ba": predict_ba(ba, query)}

# --- nearest neighbours over topic similarity -------------------------------
scores["knn"] = predict_knn(ds, query, ctx, min_neighbors=2, top=5)

# --- logistic regression on the topic embedding, with action blacklists -----
w2v_table = W2VTable(ds, ctx)  # the topic vectors and labels, built once
w2v = train_w2v_lr(w2v_table)  # one fit per CoPA
scores["w2v"] = predict_w2v(w2v, w2v_table.counts, query, ctx)

# --- Naive Bayes over sentences mentioning the topic ------------------------
nb = train_nb(ds, sentences, alpha=1.0)
scores["nb"] = predict_nb(nb, query, sentences)

# --- logistic regression over the 17 engineered features --------------------
table = FeatureTable(ds, ctx)  # every (motion, CoPA) feature vector, built once
lr = train_feature_lr(table.values, table.labels)
scores["lr"] = predict_feature_lr(lr, motion_features(query, ds, ctx))

# --- ensemble: best score any method produced --------------------------------
# Each method's scores are one row in CoPA order, NaN where it abstains;
# the ensemble takes the per-CoPA maximum over the one-row score matrices.
combined = ensemble([ScoreMatrix((query.id,), ds.copa_ids, row[None]) for row in scores.values()])
scores["ensemble"] = combined.scores[0]

print(f"{'CoPA':<18}" + "".join(f"{m:>10}" for m in scores))
for j, cid in enumerate(ds.copa_ids):
    row = [scores[m][j] for m in scores]
    cells = "".join(f"{'   abstain' if math.isnan(v) else f'{v:>10.3f}'}" for v in row)
    print(f"{cid:<18}{cells}")
print()

# The blacklist in action: no training motion in Clean energy has the
# action "ban", so W2V and NB refuse to predict it for a ban motion.
banned = Motion("query2", "ban", "solar energy")
print("blacklist effect for (ban, solar energy):")
clean = ds.copa_ids.index("clean_energy")
print(f"  w2v clean_energy score: {predict_w2v(w2v, w2v_table.counts, banned, ctx)[clean]}")
print(f"  nb  clean_energy score: {predict_nb(nb, banned, sentences)[clean]}")
