"""Deterministic synthetic workload generator for copa-match.

Writes, from a seed and a (motions, CoPAs) size, every file the `copa`
CLI reads: the dataset, two embedding files of different dimension, a
wiki corpus, a topic-sentence corpus and a config.  It also writes
``manifest.json``, the generator's own counts and the match query list,
which only the benchmark reads.

Planted structure (a topic cluster is a group of topics whose embeddings
share a centroid):

* each topic-related CoPA draws its members from one topic cluster;
* each action-leaning CoPA favours one action, the largest three;
* three general CoPAs each cover about 30% of motions and lean toward a
  third of the actions each: they are not topic related, so the action
  is what predicts them;
* coverage, CoPAs per motion and the sizes of the general and of the
  largest non-general CoPA follow the published dataset (see
  ``COVERED_SHARE`` and the constants after it);
* some topics repeat under a different action;
* each embedding file, the wiki corpus and the sentence corpus cover only
  part of the topics, so every abstention path runs.

The same seed and size give byte-identical files.  Run as a script:

    python3 bench/generate.py --seed 1 --motions 689 --copas 37 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

import numpy as np

MAIN_DIM = 50
ALT_DIM = 25
FILLER_WORDS = 6000
N_GENERAL = 3
# Label figures of the published dataset, as tests/test_acceptance.py
# (c09) pins them: 87% of motions have a CoPA, 1.95 CoPAs per motion,
# Conservatism and Fixable hold 211 and 207 of the 689 motions, and the
# largest non-general CoPA (Coercion) holds 12%.  Framework's size is not
# published; it is taken as 30%.
COVERED_SHARE = 0.87
LABELS_PER_MOTION = 1.95
GENERAL_SHARES = (211 / 689, 207 / 689, 0.30)
LARGEST_SHARE = 0.12
LARGEST_LEANS = 3  # actions the largest non-general CoPA leans toward
# The other non-general CoPAs share the remaining labels, the k-th
# largest in proportion to k ** -SIZE_DECAY.  Not published.
SIZE_DECAY = 0.6
HOME_SHARE = 0.9  # share of a non-general CoPA's members from its home
REPEAT_SHARE = 0.17
TWO_WORD_SHARE = 0.2
COVER_MAIN = 0.85
COVER_ALT = 0.70
COVER_WIKI = 0.75
COVER_SENTENCES = 0.70

ACTIONS = (
    "ban", "legalize", "subsidize", "disband", "fight", "further_exploit",
    "abolish", "adopt", "introduce", "increase", "limit", "abandon",
    "encourage", "discourage", "privatize", "nationalize", "protect",
    "promote", "cancel", "tax",
)
GENERAL_NAMES = ("Conservatism", "Fixable", "Framework")
COMMON_WORDS = (
    "the", "many", "critics", "argue", "that", "people", "often", "say",
    "some", "debate", "about", "is", "a", "new", "study", "shows", "in",
    "public", "policy", "recent", "years", "government", "experts", "claim",
)
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "n", "r", "s", "l", "m", "th", "x")


def scaled_cutoffs(n_motions: int) -> dict:
    """Eligibility cut-offs interpolated between the shipped sample config
    (15 motions: ba_k 2, knn_min_neighbors 2, topic_min_motions 2) and
    the published protocol (689 motions: 5, 3, 10)."""
    share = min(1.0, max(0.0, (n_motions - 15) / (689 - 15)))
    return {
        "ba_k": round(2 + 3 * share),
        "knn_min_neighbors": round(2 + 1 * share),
        "topic_min_motions": round(2 + 8 * share),
    }


class _Words:
    """Unique pseudo-words from a seeded stream."""

    def __init__(self, rnd: random.Random):
        self._rnd = rnd
        self._used = set(ACTIONS) | set(COMMON_WORDS)

    def new(self) -> str:
        while True:
            word = "".join(
                self._rnd.choice(_ONSETS) + self._rnd.choice(_VOWELS)
                for _ in range(self._rnd.choice((2, 2, 3)))
            ) + self._rnd.choice(_CODAS)
            if word not in self._used:
                self._used.add(word)
                return word


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _fmt_vec(word: str, vec) -> str:
    return word + " " + " ".join(f"{x:.5f}" for x in vec)


def _apportion(total: int, weights: list) -> list[int]:
    """Whole numbers in proportion to ``weights`` that sum to ``total``
    (largest remainder; ties go to the earlier entry)."""
    raw = [w * total / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def generate(seed: int, n_motions: int = 689, n_copas: int = 37) -> dict:
    """All workload files as {file name: text}, plus the manifest."""
    if n_motions < 10 or n_copas < N_GENERAL + 2:
        raise ValueError("need at least 10 motions and 5 CoPAs")
    rnd = random.Random(seed)
    # about a dozen motions per action, so that action statistics carry
    # signal on small workloads too
    actions = ACTIONS[: max(6, min(len(ACTIONS), n_motions // 12))]
    nrng = np.random.default_rng(seed)
    words = _Words(rnd)

    n_topic_copas = round(0.65 * (n_copas - N_GENERAL))
    n_action_copas = n_copas - N_GENERAL - n_topic_copas
    n_clusters = n_topic_copas + 4  # the last four clusters have no CoPA

    # --- CoPA sizes: exact, so every seed gives the same label counts -----
    # order: generals, the largest non-general (an action-leaning CoPA),
    # the topic-related CoPAs, the other action-leaning CoPAs
    n_labels = round(LABELS_PER_MOTION * n_motions)
    general_sizes = [round(share * n_motions) for share in GENERAL_SHARES]
    largest = round(LARGEST_SHARE * n_motions)
    rest = n_labels - sum(general_sizes) - largest
    rest_sizes = _apportion(rest, [k ** -SIZE_DECAY for k in range(2, n_copas - N_GENERAL + 1)])
    topic_sizes = rest_sizes[:n_topic_copas]
    action_sizes = [largest] + rest_sizes[n_topic_copas:]

    # --- clusters: centroid, title pool and sentence vocabulary ----------
    centroids_main = [_unit(nrng.normal(size=MAIN_DIM)) for _ in range(n_clusters)]
    centroids_alt = [_unit(nrng.normal(size=ALT_DIM)) for _ in range(n_clusters)]
    title_pools = [[words.new() for _ in range(10)] for _ in range(n_clusters)]
    for pool in title_pools:
        pool += [f"{pool[i]} {pool[i + 1]}" for i in range(0, 4, 2)]
    generic_titles = [words.new() for _ in range(30)]
    sentence_vocab = [[words.new() for _ in range(15)] for _ in range(n_clusters)]

    main_vec: dict[str, np.ndarray] = {}
    alt_vec: dict[str, np.ndarray] = {}

    def place(word: str, cluster: int | None, spread: float):
        if cluster is None:
            main_vec[word] = nrng.normal(size=MAIN_DIM)
            alt_vec[word] = nrng.normal(size=ALT_DIM)
        else:
            main_vec[word] = centroids_main[cluster] + spread * nrng.normal(size=MAIN_DIM) / MAIN_DIM ** 0.5
            alt_vec[word] = centroids_alt[cluster] + spread * nrng.normal(size=ALT_DIM) / ALT_DIM ** 0.5

    for k, pool in enumerate(title_pools):
        for title in pool:
            if " " not in title:
                place(title, k, 0.8)
    for title in generic_titles:
        place(title, None, 1.0)
    for action in actions:
        place(action, None, 1.0)
    for word in ("further", "exploit"):
        place(word, None, 1.0)

    # --- topics -----------------------------------------------------------
    n_distinct = max(4, round(n_motions / (1 + REPEAT_SHARE)))
    topic_cluster: dict[str, int] = {}
    topic_words: list[str] = []

    def new_topic(cluster: int, two_words: bool) -> str:
        head = words.new()
        place(head, cluster, 0.7)
        topic = head
        if two_words:
            tail = words.new()
            place(tail, cluster, 1.2)
            topic = f"{head} {tail}"
        topic_cluster[topic] = cluster
        return topic

    # Counts are exact rather than drawn, so that every seed gives the
    # program the same amount of work; the seed picks which items.
    # A topic-related CoPA's cluster holds topics in proportion to the
    # CoPA's size, so that it can draw its members from there.
    two_word = set(rnd.sample(range(n_distinct), round(TWO_WORD_SHARE * n_distinct)))
    mean_size = sum(topic_sizes) / len(topic_sizes)
    per_cluster = _apportion(n_distinct, topic_sizes + [mean_size] * (n_clusters - n_topic_copas))
    clusters = [k for k, count in enumerate(per_cluster) for _ in range(count)]
    for i, cluster in enumerate(clusters):
        topic_words.append(new_topic(cluster, i in two_word))

    # --- motions: actions balanced, some topics repeated ------------------
    action_pool = [actions[i % len(actions)] for i in range(n_motions)]
    rnd.shuffle(action_pool)
    pairs = list(zip(action_pool, topic_words))
    used = set(pairs)
    for action in action_pool[n_distinct:]:
        topic = rnd.choice([t for t in topic_words if (action, t) not in used])
        used.add((action, topic))
        pairs.append((action, topic))
    rnd.shuffle(pairs)
    motions = [
        {"id": f"m{i:04d}", "action": a, "topic": t} for i, (a, t) in enumerate(pairs)
    ]
    by_id = {m["id"]: m for m in motions}

    # --- CoPAs and labels -------------------------------------------------
    # (id, name, topic related, manual titles, size, home motion ids)
    covered = rnd.sample([m["id"] for m in motions], round(COVERED_SHARE * n_motions))
    lean_order = rnd.sample(actions, len(actions))

    def leaning_on(leans) -> list:
        return [mid for mid in covered if by_id[mid]["action"] in leans]

    copas = []
    general_ids = []
    for g in range(N_GENERAL):
        cid = f"g{g + 1}"
        general_ids.append(cid)
        copas.append((cid, GENERAL_NAMES[g], False, [], general_sizes[g], leaning_on(lean_order[g::N_GENERAL])))
    for j in range(n_topic_copas):
        titles = rnd.sample([t for t in title_pools[j]], 5)
        home = [mid for mid in covered if topic_cluster[by_id[mid]["topic"]] == j]
        copas.append((f"t{j + 1:02d}", f"Theme {title_pools[j][0]}", True, titles, topic_sizes[j], home))
    for j in range(n_action_copas):
        if j == 0:
            name, leans = "Coercion", lean_order[:LARGEST_LEANS]
        else:
            leans = [lean_order[j % len(actions)]]
            name = f"Stance {leans[0]}"
        titles = rnd.sample(generic_titles, 3)
        copas.append((f"a{j + 1:02d}", name, False, titles, action_sizes[j], leaning_on(leans)))

    members = {c[0]: set() for c in copas}

    def fill(cid: str, size: int, home: list):
        """Add covered motions up to ``size``, HOME_SHARE of them from home."""
        need = size - len(members[cid])
        home_set = set(home)
        home_free = [mid for mid in home if mid not in members[cid]]
        away_free = [mid for mid in covered if mid not in members[cid] and mid not in home_set]
        n_home = min(len(home_free), need - round((1 - HOME_SHARE) * need))
        members[cid] |= set(rnd.sample(home_free, n_home) + rnd.sample(away_free, need - n_home))

    # Generals fill first.  Each covered motion that no general holds then
    # joins a non-general CoPA with room, from its home where it can.  Last,
    # the non-general CoPAs fill up to their sizes.
    for cid, *_, size, home in copas[:N_GENERAL]:
        fill(cid, size, home)
    non_general = copas[N_GENERAL:]
    in_general = set().union(*(members[cid] for cid in general_ids))
    for mid in covered:
        if mid in in_general:
            continue
        room = [c for c in non_general if len(members[c[0]]) < c[4]]
        if not room:
            raise ValueError("the CoPA sizes leave a covered motion without a CoPA")
        at_home = [c for c in room if mid in c[5]]
        members[rnd.choice(at_home or room)[0]].add(mid)
    for cid, *_, size, home in non_general:
        fill(cid, size, home)
    labels = [
        {"motion": m["id"], "copa": cid}
        for m in motions for cid, *_ in copas if m["id"] in members[cid]
    ]

    dataset = {
        "actions": [{"id": a, "surface": a.replace("_", " ")} for a in actions],
        "copas": [
            {
                "id": cid,
                "name": name,
                "topic_related": related,
                "manual_titles": titles,
                "claims": [
                    {"stance": "pro", "template": f"[TOPIC] strengthens {name.lower()}"},
                    {"stance": "con", "template": f"{name} is harmed by [TOPIC]"},
                ],
            }
            for cid, name, related, titles, _, _ in copas
        ],
        "motions": motions,
        "labels": labels,
        "general_copas": general_ids,
    }

    # --- query topics for `copa match`, outside the dataset ---------------
    query_topics = {
        "no_embedding": new_topic(0, False),
        "no_sentences_no_wiki": new_topic(1, False),
    }
    all_topics = topic_words + list(query_topics.values())

    def covered(share: float, forced_in=(), forced_out=()) -> set[str]:
        chosen = set(rnd.sample(topic_words, round(share * len(topic_words))))
        return (chosen | set(forced_in)) - set(forced_out)

    no_embedding = query_topics["no_embedding"]
    no_text = query_topics["no_sentences_no_wiki"]
    in_main = covered(COVER_MAIN, [no_text], [no_embedding])
    in_alt = covered(COVER_ALT)
    in_wiki = covered(COVER_WIKI, [no_embedding], [no_text])
    in_sentences = covered(COVER_SENTENCES, [no_embedding], [no_text])

    # --- embedding files --------------------------------------------------
    topic_word_set = {w for t in all_topics for w in t.split()}
    fillers = [words.new() for _ in range(FILLER_WORDS)]

    def embedding_file(table: dict, dim: int, topics_in: set[str], extra_seed: int) -> str:
        frng = np.random.default_rng([seed, extra_seed])
        keep_topic_words = {w for t in topics_in for w in t.split()}
        rows = [
            _fmt_vec(w, v) for w, v in table.items()
            if w not in topic_word_set or w in keep_topic_words
        ]
        rows += [_fmt_vec(w, frng.normal(size=dim)) for w in fillers]
        return f"{len(rows)} {dim}\n" + "\n".join(rows) + "\n"

    # --- wiki corpus ------------------------------------------------------
    background = {t: rnd.randint(20, 80) for t in generic_titles}
    for pool in title_pools:
        for t in pool:
            background[t] = rnd.randint(0, 3)
    articles = {}
    for topic in all_topics:
        if topic not in in_wiki:
            continue
        pool = title_pools[topic_cluster[topic]]
        links = {t: rnd.randint(1, 6) for t in rnd.sample(pool, 8)}
        links.update({t: rnd.randint(1, 2) for t in rnd.sample(generic_titles, 4)})
        body = sorted(set(links) | set(rnd.sample(pool, 3)) | set(topic.split()))
        articles[topic] = {"link_counts": dict(sorted(links.items())), "body_terms": body}
    wiki = {
        "articles": articles,
        "background": {
            "link_counts": dict(sorted(background.items())),
            "total_links": sum(background.values()) * 4,
        },
    }

    # --- sentence corpus --------------------------------------------------
    sentence_lines = []
    for i, topic in enumerate(all_topics):
        if topic not in in_sentences:
            continue
        vocab = sentence_vocab[topic_cluster[topic]]
        for _ in range(3 + i % 4):
            body = rnd.sample(vocab, 4) + rnd.sample(COMMON_WORDS, 5)
            rnd.shuffle(body)
            sentence = " ".join([topic] + body) + "."
            sentence_lines.append(json.dumps({"topic": topic, "sentence": sentence}))

    # a seen topic under an action it has not been paired with, and two
    # unseen topics: one without an embedding, one without sentences or
    # an article
    first_topic = motions[0]["topic"]
    queries = [
        [next(a for a in actions if (a, first_topic) not in used), first_topic],
        [rnd.choice(actions), no_embedding],
        [rnd.choice(actions), no_text],
    ]

    sizes = {c["id"]: 0 for c in dataset["copas"]}
    for rec in labels:
        sizes[rec["copa"]] += 1
    manifest = {
        "seed": seed,
        "motions": len(motions),
        "copas": len(copas),
        "labels": len(labels),
        "general_copas": sorted(general_ids),
        "sizes": sizes,
        "covered_motions": len({rec["motion"] for rec in labels}),
        "queries": queries,
        "coverage": {
            "embeddings": sum(1 for t in topic_words if t in in_main),
            "alt_embeddings": sum(1 for t in topic_words if t in in_alt),
            "wiki": sum(1 for t in topic_words if t in in_wiki),
            "sentences": sum(1 for t in topic_words if t in in_sentences),
            "distinct_topics": len(topic_words),
        },
    }
    config = {
        "dataset": "dataset.json",
        "embeddings": "embeddings.txt",
        "alt_embeddings": "embeddings_alt.txt",
        "sentence_corpus": "sentences.jsonl",
        "wiki_corpus": "wiki.json",
        "l2_lambda": 0.001,
        "tol": 0.0001,
        "max_iters": 2000,
        "knn_threshold": 0.5,
        "knn_top": 5,
        "nb_alpha": 1.0,
        "threshold_step": 0.01,
        "exclude_general": False,
        **scaled_cutoffs(len(motions)),
    }
    return {
        "dataset.json": json.dumps(dataset, indent=1) + "\n",
        "embeddings.txt": embedding_file(main_vec, MAIN_DIM, in_main, 1),
        "embeddings_alt.txt": embedding_file(alt_vec, ALT_DIM, in_alt, 2),
        "wiki.json": json.dumps(wiki, indent=1) + "\n",
        "sentences.jsonl": "\n".join(sentence_lines) + "\n",
        "config.json": json.dumps(config, indent=1) + "\n",
        "manifest.json": json.dumps(manifest, indent=1) + "\n",
    }


def write_workload(out_dir: str, seed: int, n_motions: int = 689, n_copas: int = 37) -> dict:
    """Write the files into ``out_dir``; returns the manifest.  The config
    names the other files relative to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    files = generate(seed, n_motions, n_copas)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return json.loads(files["manifest.json"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--motions", type=int, default=689)
    parser.add_argument("--copas", type=int, default=37)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = write_workload(args.out, args.seed, args.motions, args.copas)
    print(json.dumps({k: manifest[k] for k in ("motions", "copas", "labels")}))


if __name__ == "__main__":
    main()
