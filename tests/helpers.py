"""Shared builders for toy datasets, score matrices, synthetic
embedding stores and tf-idf models, the Hypothesis strategies of file
contents, a dataset file writer, a named-pipe reader, and the
logistic-regression objective and gradient at a point."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import threading
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from copa.classifiers import ScoreMatrix, _gradient_at, _objective_at, sigmoid
from copa.kb import Action, Claim, CoPA, Dataset, Motion, Stance
from copa.textsim import EmbeddingStore, TfIdfModel, name_key

ACTION_POOL = ("ban", "legalize", "subsidize", "promote", "limit")

#: any short text, as a line or a token of a data file
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)

#: tokens of an embedding file's lines: numbers, special values, words, text
EMBEDDING_TOKENS = st.one_of(
    st.floats().map(repr), st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["t0", "U1", "nan", "-inf", "1e999", "1e200", "0x10", "1_0", "3"]),
    TEXT,
)


def make_registry(action_ids=ACTION_POOL) -> dict[str, Action]:
    return {a: Action(a, a.replace("_", " ")) for a in action_ids}


def default_claims(name: str) -> tuple[Claim, Claim]:
    return (
        Claim(f"[TOPIC] advances {name}", Stance.PRO),
        Claim(f"[TOPIC] undermines {name}", Stance.CON),
    )


def build_dataset(motions, copas, labels, general=(), registry=None) -> Dataset:
    """motions: (id, action, topic) triples; copas: (id, name) pairs or
    (id, name, topic_related, titles) tuples; labels: (motion, copa) pairs."""
    registry = registry or make_registry()
    motion_objs = tuple(Motion(mid, action, topic) for mid, action, topic in motions)
    label_set = frozenset(labels)
    copa_objs = []
    for entry in copas:
        cid, name = entry[0], entry[1]
        topic_related = entry[2] if len(entry) > 2 else False
        titles = tuple(entry[3]) if len(entry) > 3 else ()
        members = frozenset(m for m, c in label_set if c == cid)
        copa_objs.append(
            CoPA(cid, name, topic_related, titles, default_claims(name), members)
        )
    return Dataset(
        actions=registry,
        motions=motion_objs,
        copas=tuple(copa_objs),
        labels=label_set,
        general_copa_ids=frozenset(general),
        label_flags={},
    )


def random_dataset(rng: np.random.Generator, max_motions=20, max_copas=5,
                   label_prob=0.4, distinct_topics=True) -> Dataset:
    n_motions = int(rng.integers(2, max_motions + 1))
    n_copas = int(rng.integers(1, max_copas + 1))
    topics = [f"topic{i:02d}" for i in range(n_motions)]
    if not distinct_topics and n_motions >= 4:
        topics[1] = topics[0]  # one duplicated topic to exercise tie handling
    motions = [
        (f"m{i:02d}", ACTION_POOL[int(rng.integers(0, len(ACTION_POOL)))], topics[i])
        for i in range(n_motions)
    ]
    copas = [(f"c{j}", f"theme {j}") for j in range(n_copas)]
    labels = [
        (m[0], c[0]) for m in motions for c in copas if rng.random() < label_prob
    ]
    return build_dataset(motions, copas, labels)


def save_dataset(ds: Dataset, path) -> None:
    """Write the dataset as a JSON file; ``kb.load_dataset`` reads it back."""
    doc = {
        "actions": [
            {"id": a.id, "surface": a.surface}
            | ({"conclusion": a.conclusion} if a.conclusion is not None else {})
            for a in ds.actions.values()
        ],
        "copas": [
            {
                "id": c.id,
                "name": c.name,
                "topic_related": c.topic_related,
                "manual_titles": list(c.manual_titles),
                "claims": [
                    {"stance": cl.stance.value, "template": cl.template} for cl in c.claims
                ],
            }
            for c in ds.copas
        ],
        "motions": [{"id": m.id, "action": m.action, "topic": m.topic} for m in ds.motions],
        "labels": [
            {"motion": mid, "copa": cid}
            | (
                {"claim_stance_pro_means_support": ds.label_flags[(mid, cid)]}
                if (mid, cid) in ds.label_flags
                else {}
            )
            for mid, cid in sorted(ds.labels)
        ],
        "general_copas": sorted(ds.general_copa_ids),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def tfidf_model(documents) -> TfIdfModel:
    """The tf-idf model of ``documents``, each an iterable of terms that
    adds at most one document-frequency count per distinct ``name_key``."""
    key_sets = [{name_key(t) for t in doc} for doc in documents]
    df = Counter(term for keys in key_sets for term in keys)
    n_docs = len(key_sets)
    return TfIdfModel({t: math.log(n_docs / d) for t, d in df.items()}, n_docs)


def logreg_objective(X, y, w, b, lam) -> float:
    """The objective ``logreg_fit`` minimizes, at (w, b): the solver's own
    ``_objective_at`` of the margins."""
    return _objective_at(X @ w + b, -(2.0 * y - 1.0), w, lam)


def logreg_gradient(X, y, w, b, lam):
    """``(grad_w, grad_b)`` of that objective at (w, b): the solver's own
    ``_gradient_at`` of the probabilities."""
    return _gradient_at(X, y, sigmoid(X @ w + b), w, lam)


def random_embeddings(rng: np.random.Generator, words, dim=8) -> EmbeddingStore:
    table = {w: rng.normal(size=dim) for w in sorted(set(words))}
    return EmbeddingStore(table, dim)


def topic_words(ds: Dataset):
    words = set()
    for m in ds.motions:
        words.update(m.topic.split())
        words.update(ds.actions[m.action].surface.split())
    return words


def score_matrix(motion_ids, copa_ids, entries) -> ScoreMatrix:
    """A matrix holding {(motion_id, copa_id): score}; other pairs abstain."""
    motion_ids, copa_ids = tuple(motion_ids), tuple(copa_ids)
    scores = np.full((len(motion_ids), len(copa_ids)), np.nan)
    for (mid, cid), score in entries.items():
        scores[motion_ids.index(mid), copa_ids.index(cid)] = score
    return ScoreMatrix(motion_ids, copa_ids, scores)


def matrix_entries(matrix: ScoreMatrix) -> dict:
    """{(motion_id, copa_id): score} over the pairs that are not abstentions."""
    return {
        (mid, cid): score
        for mid in matrix.motion_ids
        for cid in matrix.copa_ids
        if (score := matrix.get(mid, cid)) is not None
    }


def load_bench_module(name: str):
    """A benchmark script, imported from its file ``bench/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_generator():
    """The benchmark's workload generator."""
    return load_bench_module("generate")


def load_from_fifo(directory: Path, name: str, data: bytes, load):
    """``load(path)`` of a named pipe at ``directory / name`` through which
    a thread writes ``data``: a loader that seeks fails on it."""
    path = directory / name
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return load(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive(), "the loader did not open the pipe"
