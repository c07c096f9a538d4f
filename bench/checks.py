"""Output checks computed from the generated files alone.

Nothing here imports ``copa``: the dataset, embeddings and config are
parsed again, and BA/KNN scores, eligibility, curves and claims are
recomputed by brute force.  Score matrices arrive as the dense tables
``worker.py`` read through ``ScoreMatrix.get``.  Each check returns a
list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

TOL = 1e-9


class Inputs:
    """The generated workload, parsed independently of the program."""

    def __init__(self, work_dir: str):
        def path(name):
            return os.path.join(work_dir, name)

        with open(path("config.json"), encoding="utf-8") as fh:
            self.config = json.load(fh)
        with open(path("manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        with open(path(self.config["dataset"]), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.motions = [(m["id"], m["action"], m["topic"]) for m in doc["motions"]]
        self.copas = {c["id"]: c for c in doc["copas"]}
        self.copa_ids = [c["id"] for c in doc["copas"]]
        self.labels = {(rec["motion"], rec["copa"]) for rec in doc["labels"]}
        self.members = {cid: set() for cid in self.copa_ids}
        for mid, cid in self.labels:
            self.members[cid].add(mid)
        self.vectors = _read_embeddings(path(self.config["embeddings"]))
        self._units = {}

    def unit_topic_vector(self, topic: str):
        """Normalized sum of the topic's known word vectors, or None."""
        if topic not in self._units:
            known = [self.vectors[w] for w in topic.lower().split() if w in self.vectors]
            total = np.sum(known, axis=0) if known else None
            norm = 0.0 if total is None else float(np.linalg.norm(total))
            self._units[topic] = None if norm == 0.0 else total / norm
        return self._units[topic]

    def topic_eligible(self) -> set:
        cutoff = self.config["topic_min_motions"]
        return {
            cid for cid in self.copa_ids
            if self.copas[cid]["topic_related"] and len(self.members[cid]) >= cutoff
        }


def _read_embeddings(path: str) -> dict:
    """word -> vector; the generator always writes a "count dim" header."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.split()
            if parts:
                table[parts[0].lower()] = np.array([float(v) for v in parts[1:]])
    return table


# ---------------------------------------------------------------------------
# brute-force recomputation
# ---------------------------------------------------------------------------


def brute_ba(inputs: Inputs, action: str, exclude: str | None) -> dict:
    """p(c, action) over every motion except ``exclude``, None below k."""
    k = inputs.config["ba_k"]
    same_action = [m[0] for m in inputs.motions if m[0] != exclude and m[1] == action]
    total = len(same_action)
    scores = {}
    for cid in inputs.copa_ids:
        support = sum(1 for mid in same_action if mid in inputs.members[cid])
        scores[cid] = support / total if total and support >= k else None
    return scores


def brute_knn(inputs: Inputs, topic: str, exclude_id: str | None, exclude_topic: bool) -> dict:
    """Share of the nearest neighbours (sorted cosine, mapped to [0, 1])
    inside each CoPA; all None below the minimum neighbour count."""
    cfg = inputs.config
    query = inputs.unit_topic_vector(topic)
    candidates = []
    if query is not None:
        for mid, _, other in inputs.motions:
            if mid == exclude_id or (exclude_topic and other.lower() == topic.lower()):
                continue
            vec = inputs.unit_topic_vector(other)
            if vec is None:
                continue
            sim = (min(1.0, max(-1.0, float(query @ vec))) + 1.0) / 2.0
            if sim > cfg["knn_threshold"]:
                candidates.append((-sim, mid))
    if len(candidates) < cfg["knn_min_neighbors"]:
        return {cid: None for cid in inputs.copa_ids}
    neighbours = [mid for _, mid in sorted(candidates)[: cfg["knn_top"]]]
    return {
        cid: sum(1 for mid in neighbours if mid in inputs.members[cid]) / len(neighbours)
        for cid in inputs.copa_ids
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


# ---------------------------------------------------------------------------
# eval checks
# ---------------------------------------------------------------------------


def check_eval(inputs: Inputs, report: dict, methods: list) -> list:
    failures = []
    matrices = report.get("matrices")
    outputs = report.get("eval_outputs")
    if not matrices or not outputs:
        return ["no eval result captured"]
    motion_ids = [m[0] for m in inputs.motions]
    by_id = {m[0]: m for m in inputs.motions}
    tables = {}
    for name in methods + ["ensemble"]:
        if name not in matrices:
            return [f"no {name} matrix"]
        mat = matrices[name]
        if sorted(mat["motion_ids"]) != sorted(motion_ids) or sorted(mat["copa_ids"]) != sorted(inputs.copa_ids):
            return [f"{name}: id space differs from the dataset"]
        tables[name] = {
            (mid, cid): mat["scores"][i][j]
            for i, mid in enumerate(mat["motion_ids"])
            for j, cid in enumerate(mat["copa_ids"])
        }
    pairs = list(tables["ensemble"])
    if len({r["digest"] for r in report["commands"] if r["code"] == 0}) > 1:
        failures.append("eval commands wrote different output files")

    # every score finite and in [0, 1]; eligibility per method
    eligible = inputs.topic_eligible()
    for name, table in tables.items():
        bad = [p for p, s in table.items() if s is not None and not (0.0 <= s <= 1.0 and math.isfinite(s))]
        if bad:
            failures.append(f"{name}: {len(bad)} scores outside [0, 1]")
        if name in ("knn", "nb", "w2v"):
            leaked = [p for p, s in table.items() if s is not None and p[1] not in eligible]
            if leaked:
                failures.append(f"{name}: scores {len(leaked)} pairs of non-eligible CoPAs")
        if name == "lr":
            missing = [p for p, s in table.items() if s is None]
            if missing:
                failures.append(f"lr: abstains on {len(missing)} pairs")

    # ensemble = per-pair maximum, abstaining only where every method does
    for pair in pairs:
        scored = [tables[m][pair] for m in methods if tables[m][pair] is not None]
        expected = max(scored) if scored else None
        if not _close(tables["ensemble"][pair], expected):
            failures.append(f"ensemble{pair}: {tables['ensemble'][pair]} != max {expected}")
            break

    # BA and KNN against brute force, on every fold
    for mid in motion_ids:
        _, action, topic = by_id[mid]
        if "ba" in methods:
            expected = brute_ba(inputs, action, exclude=mid)
            for cid in inputs.copa_ids:
                if not _close(tables["ba"][(mid, cid)], expected[cid]):
                    failures.append(f"ba({mid}, {cid}): {tables['ba'][(mid, cid)]} != {expected[cid]}")
                    break
        if "knn" in methods:
            expected = brute_knn(inputs, topic, exclude_id=mid, exclude_topic=True)
            for cid in inputs.copa_ids:
                want = expected[cid] if cid in eligible else None
                if not _close(tables["knn"][(mid, cid)], want):
                    failures.append(f"knn({mid}, {cid}): {tables['knn'][(mid, cid)]} != {want}")
                    break

    # CSV rows equal an exhaustive threshold sweep of the returned matrices
    step = inputs.config["threshold_step"]
    grid = [float(t) for t in np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)]
    for name in methods + ["ensemble"]:
        table = tables[name]
        pr_rows, pa1_rows = _sweep(table, inputs, grid)
        failures += _compare_csv(outputs.get(f"pr_{name}.csv"), name, pr_rows, f"pr_{name}.csv")
        failures += _compare_csv(outputs.get(f"p_at_1_{name}.csv"), name, pa1_rows, f"p_at_1_{name}.csv")
        if name == "ensemble":
            baseline = max(inputs.manifest["sizes"].values()) / len(motion_ids)
            p_at_1 = pa1_rows[0][2] if pa1_rows and pa1_rows[0][0] == 0.0 else 0.0
            if not p_at_1 > baseline:
                failures.append(f"ensemble P@1 {p_at_1:.3f} does not beat the largest-CoPA baseline {baseline:.3f}")

    # summary.json counts equal the generator's counts
    summary = json.loads(outputs.get("summary.json", "{}"))
    man = inputs.manifest
    dataset = summary.get("dataset", {})
    expected = {"motions": man["motions"], "copas": man["copas"], "labels": man["labels"],
                "general_copas": man["general_copas"]}
    for key, value in expected.items():
        if dataset.get(key) != value:
            failures.append(f"summary.json dataset.{key}: {dataset.get(key)} != {value}")
    if summary.get("stats", {}).get("sizes") != man["sizes"]:
        failures.append("summary.json stats.sizes differ from the generator's CoPA sizes")
    return failures


def _sweep(table: dict, inputs: Inputs, grid: list) -> tuple[list, list]:
    truths = inputs.labels
    scored = [(p, s) for p, s in table.items() if s is not None]
    best = {}
    for (mid, cid), s in scored:
        cur = best.get(mid)
        if cur is None or s > cur[0] or (s == cur[0] and cid < cur[1]):
            best[mid] = (s, cid)
    n_motions = len(inputs.motions)
    pr_rows, pa1_rows = [], []
    for t in grid:
        predicted = [p for p, s in scored if s >= t]
        if predicted:
            tp = sum(1 for p in predicted if p in truths)
            pr_rows.append((t, tp / len(predicted), tp / len(truths) if truths else 0.0))
        covered = [(mid, cid) for mid, (s, cid) in best.items() if s >= t]
        if covered:
            hits = sum(1 for p in covered if p in truths)
            pa1_rows.append((t, len(covered) / n_motions, hits / len(covered)))
    return pr_rows, pa1_rows


def _compare_csv(text, method: str, rows: list, file_name: str) -> list:
    if text is None:
        return [f"{file_name} missing"]
    reader = list(csv.reader(io.StringIO(text)))
    body = reader[1:]
    if len(body) != len(rows):
        return [f"{file_name}: {len(body)} rows, sweep gives {len(rows)}"]
    for got, want in zip(body, rows):
        if got[0] != method or not all(_close(float(g), w) for g, w in zip(got[1:], want)):
            return [f"{file_name}: row {got} != sweep {want}"]
    return []


# ---------------------------------------------------------------------------
# match checks
# ---------------------------------------------------------------------------


def parse_match(text: str) -> list:
    """[(copa id, score, name, pro line, con line)] in printed order."""
    lines = text.splitlines()
    rows = []
    for i in range(0, len(lines), 3):
        cid, score, name = lines[i].split("\t")
        rows.append((cid, float(score), name, lines[i + 1], lines[i + 2]))
    return rows


def check_match(inputs: Inputs, report: dict) -> list:
    failures = []
    queries = inputs.manifest["queries"]
    outputs = report.get("match_outputs", {})
    for index, (action, topic) in enumerate(queries):
        text = outputs.get(str(index))
        if text is None:
            continue
        where = f"match {action} {topic!r}"
        try:
            rows = parse_match(text)
        except (ValueError, IndexError):
            failures.append(f"{where}: unparsable output")
            continue
        if sorted(r[0] for r in rows) != sorted(inputs.copa_ids):
            failures.append(f"{where}: lists {len(rows)} CoPAs, not all {len(inputs.copa_ids)}")
        for a, b in zip(rows, rows[1:]):
            if a[1] < b[1] or (a[1] == b[1] and a[0] > b[0] and a[1] != 1.0):
                failures.append(f"{where}: {a[0]} ({a[1]}) printed before {b[0]} ({b[1]})")
                break
        ba = brute_ba(inputs, action, exclude=None)
        knn = brute_knn(inputs, topic, exclude_id=None, exclude_topic=False)
        for cid, score, name, pro, con in rows:
            copa = inputs.copas.get(cid)
            if copa is None:
                failures.append(f"{where}: unknown CoPA {cid!r}")
                break
            claims = {c["stance"]: c["template"].replace("[TOPIC]", topic) for c in copa["claims"]}
            if name != copa["name"] or pro != f"  pro: {claims['pro']}" or con != f"  con: {claims['con']}":
                failures.append(f"{where}: claim lines of {cid} differ from the template")
                break
            floor = max(s for s in (ba[cid], knn[cid], 0.0) if s is not None)
            if score < floor - TOL:
                failures.append(f"{where}: {cid} printed {score} below brute-force BA/KNN {floor}")
                break
    first = {}
    for record in report["commands"]:
        if record["code"] != 0:
            continue
        key = tuple(queries[record["label"]])
        if first.setdefault(key, record["digest"]) != record["digest"]:
            failures.append(f"match {key}: repeated query printed different output")
            break
    return failures
