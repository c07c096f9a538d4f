# The similarity machinery behind the classifiers: embedding cosine,
# tf-idf cosine, hypergeometric title enrichment, and the 17-dimensional
# feature vector built from them for a (motion, CoPA) pair.
#
# Run from anywhere:  python3 demos/03_similarity_and_features.py

from pathlib import Path

from copa import (
    EmbeddingStore,
    FeatureTable,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    WikiCorpus,
    embed_term,
    hypergeom_pvalue,
    load_dataset,
    motion_features,
    similarity_block,
    topic_related_titles,
)
from copa.features import FEATURE_NAMES
from copa.textsim import mean_similarity

DATA = Path(__file__).resolve().parents[1] / "data"

ds = load_dataset(DATA / "sample_dataset.json")
embeddings = EmbeddingStore.from_file(DATA / "toy_embeddings.txt")
alt = EmbeddingStore.from_file(DATA / "toy_embeddings_alt.txt")
wiki = WikiCorpus.from_file(DATA / "wiki_corpus.json")
tfidf = TfIdfModel.from_wiki_corpus(wiki)
ctx = SimilarityContext(embeddings=embeddings, alt_embeddings=alt, tfidf=tfidf, wiki=wiki)

print("== term embeddings ==")
vec = embed_term(embeddings, "renewable energy")
print(f"'renewable energy' -> unit vector of dim {len(vec)} (norm {sum(v*v for v in vec)**0.5:.6f})")
print()

print("== term similarities, mapped to [0, 1] ==")
pairs = [
    ("solar energy", "renewable energy"),
    ("solar energy", "smoking"),
    ("smoking", "cannabis"),
]
for a, b in pairs:
    for kind in SimilarityKind:
        sims, _ = similarity_block(kind, [a], [b], ctx)
        print(f"  {kind.value:>13}({a!r}, {b!r}) = {sims[0, 0]:.3f}")
print()

# A set similarity is the mean over the cross pairs that are present.
print("== set-to-set similarity averages over all cross pairs ==")
copa_titles = ds.copa("clean_energy").manual_titles
motion_texts = ["further exploit", "solar energy"]
sims, present = similarity_block(SimilarityKind.EMBEDDING, motion_texts, copa_titles, ctx)
value = mean_similarity(sims.sum(), present.sum())
print(f"  m_t x c_m for (further exploit, solar energy) vs Clean energy: {value:.3f}")
print()

# Titles linked from a topic's article, ranked by how surprising their
# link frequency is against a background pool of random articles.
print("== enriched Wikipedia titles per topic ==")
for topic in ("solar energy", "smoking"):
    titles = topic_related_titles(topic, wiki)
    print(f"  {topic}: {titles}")
print()

print("== the hypergeometric tail doing the ranking ==")
print("  P[X >= 3] drawing 5 from 10 with 4 marked:", f"{hypergeom_pvalue(3, 5, 4, 10):.6f}")
print("  P[X >= 1] for a common title:            ", f"{hypergeom_pvalue(1, 18, 26, 2518):.6f}")
print("  P[X >= 3] for a rare, repeated title:    ", f"{hypergeom_pvalue(3, 18, 4, 2518):.9f}")
print()

# Everything above feeds the engineered feature vector: one row per CoPA.
motion = next(m for m in ds.motions if m.topic == "solar energy")
copa = ds.copa("clean_energy")
row = ds.copa_ids.index(copa.id)
vector = motion_features(motion, ds, ctx)[row]
print(f"== 17 features for ({motion.action}, {motion.topic}) x {copa.name} ==")
for name, value in zip(FEATURE_NAMES, vector):
    print(f"  {name:<40} {value:.4f}")
print()

# Holding the motion out (as leave-one-out training does) shrinks the
# count features because the pair no longer witnesses itself.
held = FeatureTable(ds, ctx).without_motion(motion.id).query_rows(motion)[row]
for name, before, after in zip(FEATURE_NAMES[-4:], vector[-4:], held[-4:]):
    print(f"  {name}: {before:.4f} -> {after:.4f} when held out")
