import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copa.kb import (
    CoPA,
    Claim,
    Motion,
    ParseError,
    Stance,
    ValidationError,
    build_syllogism,
    copa_stats,
    dataset_from_dict,
    instantiate_claim,
    load_dataset,
)
from helpers import build_dataset, default_claims, make_registry, random_dataset, save_dataset
from oracles import without_motion

TOY_DOC = {
    "actions": [{"id": "ban", "surface": "ban"}, {"id": "legalize", "surface": "legalize"}],
    "copas": [
        {
            "id": "c1",
            "name": "Theme one",
            "topic_related": False,
            "manual_titles": [],
            "claims": [
                {"stance": "pro", "template": "[TOPIC] helps"},
                {"stance": "con", "template": "[TOPIC] hurts"},
            ],
        },
        {
            "id": "c2",
            "name": "Theme two",
            "topic_related": False,
            "manual_titles": [],
            "claims": [
                {"stance": "pro", "template": "supporting [TOPIC] is right"},
                {"stance": "con", "template": "supporting [TOPIC] is wrong"},
            ],
        },
    ],
    "motions": [
        {"id": "m1", "action": "ban", "topic": "smoking"},
        {"id": "m2", "action": "legalize", "topic": "gambling"},
        {"id": "m3", "action": "ban", "topic": "cars"},
    ],
    "labels": [
        {"motion": "m1", "copa": "c1"},
        {"motion": "m1", "copa": "c2"},
        {"motion": "m2", "copa": "c1"},
        {"motion": "m3", "copa": "c2"},
    ],
}


def _write(tmp_path, doc):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadDataset:
    def test_toy_counts(self, tmp_path):
        ds = load_dataset(_write(tmp_path, TOY_DOC))
        assert len(ds.motions) == 3
        assert len(ds.copas) == 2
        assert len(ds.labels) == 4
        assert ds.copa("c1").motion_ids == {"m1", "m2"}

    def test_dangling_motion_reference(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["labels"].append({"motion": "m99", "copa": "c1"})
        with pytest.raises(ValidationError, match="m99"):
            load_dataset(_write(tmp_path, doc))

    def test_dangling_copa_reference(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["labels"].append({"motion": "m1", "copa": "c99"})
        with pytest.raises(ValidationError, match="c99"):
            load_dataset(_write(tmp_path, doc))

    def test_unknown_action(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["motions"][0]["action"] = "zap"
        with pytest.raises(ValidationError, match="zap"):
            load_dataset(_write(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in (b"{not json", b'{"actions": \xff}', b'{"actions": ' + b"1" * 5000 + b"}",
                    b"[" * 200_000):
            path.write_bytes(raw)
            with pytest.raises(ParseError):
                load_dataset(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        del doc["motions"][0]["topic"]
        with pytest.raises(ParseError, match="topic"):
            load_dataset(_write(tmp_path, doc))

    def test_copa_without_opposing_claims(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["copas"][0]["claims"][1]["stance"] = "pro"
        with pytest.raises(ValidationError, match="c1"):
            load_dataset(_write(tmp_path, doc))

    @pytest.mark.parametrize("topic", ["smoking", "Smoking", " smoking "])
    def test_duplicate_action_topic_pair(self, tmp_path, topic):
        # topics are compared by name_key, the package's one name rule
        doc = json.loads(json.dumps(TOY_DOC))
        doc["motions"].append({"id": "m4", "action": "ban", "topic": topic})
        with pytest.raises(ValidationError, match="m4"):
            load_dataset(_write(tmp_path, doc))

    @pytest.mark.parametrize("topic", ["", "  "])
    def test_empty_topic(self, tmp_path, topic):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["motions"].append({"id": "m4", "action": "legalize", "topic": topic})
        with pytest.raises(ValidationError, match="motion 'm4': empty topic"):
            load_dataset(_write(tmp_path, doc))

    @pytest.mark.parametrize("kind, record", [
        ("actions", {"id": "legalize", "surface": "allow"}),
        ("copas", {**TOY_DOC["copas"][1], "name": "Theme three"}),
        ("motions", {"id": "m1", "action": "legalize", "topic": "dice"}),
    ])
    def test_duplicate_id(self, tmp_path, kind, record):
        doc = json.loads(json.dumps(TOY_DOC))
        doc[kind].append(record)
        with pytest.raises(ValidationError, match=f"duplicate {kind[:-1]} id '{record['id']}'"):
            load_dataset(_write(tmp_path, doc))

    def test_action_parse_errors_come_before_a_duplicate_action_id(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["actions"] += [{"id": "ban", "surface": "forbid"}, {"id": "tax"}]
        with pytest.raises(ParseError, match="tax"):
            load_dataset(_write(tmp_path, doc))

    def test_topic_related_requires_titles(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["copas"][0]["topic_related"] = True
        with pytest.raises(ValidationError, match="c1"):
            load_dataset(_write(tmp_path, doc))

    def test_general_default_by_name(self):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["copas"][0]["name"] = "Fixable"
        ds = dataset_from_dict(doc)
        assert ds.general_copa_ids == {"c1"}

    def test_general_explicit_unknown_id(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["general_copas"] = ["nope"]
        with pytest.raises(ValidationError, match="nope"):
            load_dataset(_write(tmp_path, doc))

    def test_non_string_titles_and_general_ids(self, tmp_path):
        for titles in ([1, 2], ["ok", None], [["x"]]):
            doc = json.loads(json.dumps(TOY_DOC))
            doc["copas"][1]["manual_titles"] = titles
            with pytest.raises(ParseError, match="c2.*manual title"):
                load_dataset(_write(tmp_path, doc))
        for general in ([["x"]], [1], ["c1", {"id": "c2"}]):
            doc = json.loads(json.dumps(TOY_DOC))
            doc["general_copas"] = general
            with pytest.raises(ParseError, match="general_copas"):
                load_dataset(_write(tmp_path, doc))

    def test_stance_flag_round_trip(self, tmp_path):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["labels"][0]["claim_stance_pro_means_support"] = False
        ds = load_dataset(_write(tmp_path, doc))
        assert ds.label_flags[("m1", "c1")] is False


class TestRoundTrip:
    def test_sample_dataset(self, sample_dataset, tmp_path):
        out = tmp_path / "copy.json"
        save_dataset(sample_dataset, out)
        assert load_dataset(out) == sample_dataset

    def test_random_datasets(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(25):
            ds = random_dataset(rng)
            out = tmp_path / f"ds{i}.json"
            save_dataset(ds, out)
            assert load_dataset(out) == ds


class TestCopaStats:
    def test_forced_counts(self):
        ds = build_dataset(
            motions=[("m1", "ban", "a"), ("m2", "ban", "b")],
            copas=[("c1", "one"), ("c2", "two")],
            labels=[("m1", "c1"), ("m1", "c2"), ("m2", "c1")],
        )
        st_ = copa_stats(ds)
        assert st_.covered_fraction == 1.0
        assert st_.mean_copas_per_motion == 1.5
        assert st_.sizes["c1"] == 2
        assert st_.max_copas_per_motion == 2

    def test_empty_labels(self):
        ds = build_dataset(
            motions=[("m1", "ban", "a"), ("m2", "ban", "b")],
            copas=[("c1", "one"), ("c2", "two")],
            labels=[],
        )
        st_ = copa_stats(ds)
        assert st_.covered_fraction == 0.0
        assert st_.mean_copas_per_motion == 0.0
        assert st_.max_copas_per_motion == 0
        off_diag = st_.overlap[~np.eye(2, dtype=bool)]
        assert np.all(off_diag == 0.0)

    def test_overlap_diagonal_and_integrality(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ds = random_dataset(rng)
            st_ = copa_stats(ds)
            members = {
                cid: {m for m, c in ds.labels if c == cid} for cid in st_.copa_ids
            }
            for i, ci in enumerate(st_.copa_ids):
                if members[ci]:
                    assert st_.overlap[i, i] == 1.0
                for j, cj in enumerate(st_.copa_ids):
                    value = st_.overlap[i, j] * len(members[ci]) if members[ci] else 0.0
                    assert abs(value - len(members[ci] & members[cj])) < 1e-9
                    assert 0.0 <= st_.overlap[i, j] <= 1.0

    def test_covered_fraction_matches_double_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            ds = random_dataset(rng)
            st_ = copa_stats(ds)
            covered = 0
            for m in ds.motions:
                if any((m.id, c.id) in ds.labels for c in ds.copas):
                    covered += 1
            assert st_.covered_fraction == covered / len(ds.motions)

    def test_exclude_general(self):
        ds = build_dataset(
            motions=[("m1", "ban", "a"), ("m2", "ban", "b")],
            copas=[("c1", "one"), ("g", "General stuff")],
            labels=[("m1", "c1"), ("m1", "g"), ("m2", "g")],
            general=("g",),
        )
        st_ = copa_stats(ds, exclude_general=True)
        assert st_.copa_ids == ("c1",)
        assert st_.covered_fraction == 0.5
        assert st_.mean_copas_per_motion == 0.5
        assert "g" not in st_.sizes


class TestInstantiateClaim:
    def test_topic_substitution(self):
        claim = Claim("[TOPIC] works efficiently", Stance.PRO)
        motion = Motion("m", "disband", "NATO")
        assert instantiate_claim(claim, motion) == "NATO works efficiently"

    def test_no_token_unchanged(self):
        claim = Claim("nothing to replace", Stance.CON)
        assert instantiate_claim(claim, Motion("m", "ban", "x")) == "nothing to replace"

    def test_multiple_occurrences(self):
        claim = Claim("[TOPIC] vs [TOPIC]", Stance.PRO)
        motion = Motion("m", "ban", "smoking")
        assert instantiate_claim(claim, motion) == "smoking vs smoking"

    @given(
        template=st.text(min_size=1, max_size=60),
        topic=st.text(min_size=1, max_size=20).filter(lambda t: "[TOPIC]" not in t),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_when_topic_lacks_token(self, template, topic):
        motion = Motion("m", "ban", topic)
        once = instantiate_claim(Claim(template, Stance.PRO), motion)
        twice = instantiate_claim(Claim(once, Stance.PRO), motion)
        assert once == twice


class TestBuildSyllogism:
    def test_reference_three_liner(self, sample_dataset):
        ds = sample_dataset
        motion = next(m for m in ds.motions if m.topic == "solar energy")
        lines = build_syllogism(
            motion,
            ds.copa("clean_energy"),
            Stance.PRO,
            ds.actions,
            minor_override="Solar energy is a form of clean energy.",
        ).lines()
        assert lines == (
            "Humanity must embrace clean energy in order to fight climate change.",
            "Solar energy is a form of clean energy.",
            "Therefore, humanity must further exploit solar energy.",
        )

    def test_default_minor_and_conclusion(self, sample_dataset):
        ds = sample_dataset
        motion = next(m for m in ds.motions if m.topic == "smoking")
        syl = build_syllogism(motion, ds.copa("personal_freedom"), Stance.PRO, ds.actions)
        assert syl.minor == "smoking relates to Personal freedom"
        assert syl.conclusion == "Therefore, we should ban smoking."

    def test_con_stance_uses_con_claim(self, sample_dataset):
        ds = sample_dataset
        motion = next(m for m in ds.motions if m.topic == "smoking")
        syl = build_syllogism(motion, ds.copa("personal_freedom"), Stance.CON, ds.actions)
        assert syl.major == "Society has a duty to protect people from the harms of smoking"

    def test_unknown_stance_defensive(self):
        registry = make_registry()
        broken = CoPA(
            "c", "broken", False, (),
            (Claim("a", Stance.PRO), Claim("b", Stance.PRO)),  # bypasses validation
            frozenset(),
        )
        with pytest.raises(ValidationError, match="CoPA 'c' has no con claim"):
            build_syllogism(Motion("m", "ban", "x"), broken, Stance.CON, registry)


def test_without_motion_shrinks_everything():
    ds = build_dataset(
        motions=[("m1", "ban", "a"), ("m2", "ban", "b"), ("m3", "legalize", "c")],
        copas=[("c1", "one"), ("c2", "two")],
        labels=[("m1", "c1"), ("m2", "c1"), ("m3", "c2")],
    )
    fold = without_motion(ds, "m2")
    assert fold.motion_ids == ("m1", "m3")
    assert fold.copa("c1").motion_ids == {"m1"}
    assert ("m2", "c1") not in fold.labels
    # the original is untouched
    assert ds.copa("c1").motion_ids == {"m1", "m2"}


def test_without_motion_is_the_file_without_the_motion(tmp_path):
    """The fold keeps every other field: actions, claims, titles,
    ``topic_related``, the general ids and the other motions' flags."""
    doc = json.loads(json.dumps(TOY_DOC))
    doc["actions"][0]["conclusion"] = "[TOPIC] must go"
    doc["copas"][1].update(topic_related=True, manual_titles=["Gambling", "Cars"])
    doc["general_copas"] = ["c2"]
    doc["labels"][0]["claim_stance_pro_means_support"] = False
    doc["labels"][3]["claim_stance_pro_means_support"] = True
    ds = load_dataset(_write(tmp_path, doc))
    fold = without_motion(ds, "m2")
    doc["motions"] = [m for m in doc["motions"] if m["id"] != "m2"]
    doc["labels"] = [label for label in doc["labels"] if label["motion"] != "m2"]
    assert fold == load_dataset(_write(tmp_path, doc))
    assert fold.actions == ds.actions and fold.general_copa_ids == {"c2"}
    assert [replace(c, motion_ids=frozenset()) for c in fold.copas] == [
        replace(c, motion_ids=frozenset()) for c in ds.copas]
    assert fold.label_flags == {("m1", "c1"): False, ("m3", "c2"): True}
    assert (fold.motion_ids, fold.copa_ids) == (("m1", "m3"), ("c1", "c2"))


def test_default_claims_are_opposing():
    pro, con = default_claims("x")
    assert {pro.stance, con.stance} == {Stance.PRO, Stance.CON}
