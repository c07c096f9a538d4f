# The five matching methods plus their ensemble, trained on the sample
# dataset and asked to score a new motion against every CoPA.
#
# Run from anywhere:  python3 demos/04_matching_methods.py

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
print(f"query motion: we should {ds.actions.surface(query.action)} {query.topic}")
print()

# --- action statistics: p(CoPA | action) with a support cutoff --------------
ba = train_ba(ds, k=2)
scores = {"ba": predict_ba(ba, query)}

# --- nearest neighbours over topic similarity -------------------------------
scores["knn"] = predict_knn(ds, query, ctx, min_neighbors=2, top=5)

# --- logistic regression on the topic embedding, with action blacklists -----
w2v = train_w2v_lr(W2VTable(ds, ctx))  # the topic vectors and labels, built once
scores["w2v"] = predict_w2v(w2v, query, ctx)

# --- Naive Bayes over sentences mentioning the topic ------------------------
nb = train_nb(ds, sentences, alpha=1.0)
scores["nb"] = predict_nb(nb, query, sentences)

# --- logistic regression over the 17 engineered features --------------------
table = FeatureTable(ds, ctx)  # every (motion, CoPA) feature vector, built once
lr = train_feature_lr(table.values, table.labels)
scores["lr"] = predict_feature_lr(lr, motion_features(query, ds, ctx), ds.copa_ids)

# --- ensemble: best score any method produced --------------------------------
# Each method's scores become a one-row score matrix (an abstention is
# stored as NaN); the ensemble takes the per-CoPA maximum over the rows.
rows = []
for name, method_scores in scores.items():
    row = ScoreMatrix(name, (query.id,), ds.copa_ids)
    for cid, score in method_scores.items():
        row.put(query.id, cid, score)
    rows.append(row)
combined = ensemble(rows)
scores["ensemble"] = {cid: combined.get(query.id, cid) for cid in ds.copa_ids}

print(f"{'CoPA':<18}" + "".join(f"{m:>10}" for m in scores))
for cid in ds.copa_ids:
    row = [scores[m][cid] for m in scores]
    cells = "".join(f"{'   abstain' if v is None else f'{v:>10.3f}'}" for v in row)
    print(f"{cid:<18}{cells}")
print()

# The blacklist in action: no training motion in Clean energy has the
# action "ban", so W2V and NB refuse to predict it for a ban motion.
banned = Motion("query2", "ban", "solar energy")
print("blacklist effect for (ban, solar energy):")
print(f"  w2v clean_energy score: {predict_w2v(w2v, banned, ctx)['clean_energy']}")
print(f"  nb  clean_energy score: {predict_nb(nb, banned, sentences)['clean_energy']}")
