import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import copa
from copa import classifiers as clfmod
from copa.classifiers import TopicSentenceCorpus
from copa.cli import AppConfig, ConfigError, _guarded, main
from copa.features import FEATURE_NAMES
from copa.kb import ParseError, ValidationError, load_dataset
from copa.textsim import MAX_SET_PAIRS, DomainError, EmbeddingStore, WikiCorpus
from helpers import EMBEDDING_TOKENS, TEXT, load_bench_generator, load_bench_module

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny self-contained dataset + stores + config for CLI runs."""
    root = tmp_path_factory.mktemp("cliws")
    dataset = {
        "actions": [
            {"id": "ban", "surface": "ban"},
            {"id": "legalize", "surface": "legalize"},
        ],
        "copas": [
            {
                "id": "c1", "name": "Theme one", "topic_related": True,
                "manual_titles": ["alpha"],
                "claims": [
                    {"stance": "pro", "template": "[TOPIC] helps"},
                    {"stance": "con", "template": "[TOPIC] hurts"},
                ],
            },
            {
                "id": "c2", "name": "Theme two", "topic_related": True,
                "manual_titles": ["beta"],
                "claims": [
                    {"stance": "pro", "template": "more [TOPIC] please"},
                    {"stance": "con", "template": "less [TOPIC] please"},
                ],
            },
        ],
        "motions": [
            {"id": "m0", "action": "ban", "topic": "t0"},
            {"id": "m1", "action": "ban", "topic": "t1"},
            {"id": "m2", "action": "ban", "topic": "t2"},
            {"id": "m3", "action": "legalize", "topic": "u0"},
            {"id": "m4", "action": "legalize", "topic": "u1"},
            {"id": "m5", "action": "legalize", "topic": "u2"},
        ],
        "labels": [
            {"motion": "m0", "copa": "c1"},
            {"motion": "m1", "copa": "c1"},
            {"motion": "m2", "copa": "c1"},
            {"motion": "m3", "copa": "c2"},
            {"motion": "m4", "copa": "c2"},
            {"motion": "m5", "copa": "c2"},
        ],
    }
    (root / "ds.json").write_text(json.dumps(dataset))

    lines = ["6 3"]
    vectors = {
        "t0": "1.0 0.1 0.0", "t1": "0.9 0.2 0.0", "t2": "0.95 0.0 0.1",
        "u0": "0.0 0.1 1.0", "u1": "0.1 0.0 0.9", "u2": "0.0 0.2 0.95",
    }
    lines += [f"{w} {v}" for w, v in vectors.items()]
    (root / "emb.txt").write_text("\n".join(lines) + "\n")

    corpus_lines = [
        json.dumps({"topic": t, "sentence": f"something about {t} and banning"})
        for t in ("t0", "t1", "t2")
    ] + [
        json.dumps({"topic": u, "sentence": f"different words for {u} entirely"})
        for u in ("u0", "u1", "u2")
    ]
    (root / "sent.jsonl").write_text("\n".join(corpus_lines) + "\n")

    config = {
        "dataset": str(root / "ds.json"),
        "embeddings": str(root / "emb.txt"),
        "sentence_corpus": str(root / "sent.jsonl"),
        "ba_k": 1,
        "knn_min_neighbors": 1,
        "topic_min_motions": 1,
        "tol": 0.0001,
        "max_iters": 150,
        "threshold_step": 0.25,
        "methods": ["ba", "knn", "w2v", "nb", "lr"],
    }
    (root / "config.json").write_text(json.dumps(config))

    ba_only = dict(config)
    ba_only["methods"] = ["ba"]
    del ba_only["embeddings"]
    del ba_only["sentence_corpus"]
    (root / "config_ba.json").write_text(json.dumps(ba_only))
    return root


@pytest.fixture()
def runner():
    return CliRunner()


class TestStatsCommand:
    def test_sample_dataset_stats(self, runner, monkeypatch):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(main, ["--config", "data/config.json", "stats"])
        assert result.exit_code == 0
        assert "motions: 15" in result.output
        assert "copas: 6" in result.output

    def test_exclude_general_flag(self, runner, monkeypatch):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(
            main, ["--config", "data/config.json", "--exclude-general", "stats"]
        )
        assert result.exit_code == 0
        assert "general_excluded: True" in result.output
        assert "size framework" not in result.output


def _trimmed_sample(path, drop):
    """The sample dataset without its motions, all but one of them, or its
    CoPAs (``drop`` names which), and the labels that no longer apply."""
    doc = json.loads((ROOT / "data" / "sample_dataset.json").read_text())
    if "motion" in drop:
        doc["motions"] = doc["motions"][:1] if drop == "all but one motion" else []
    if "copas" in drop:
        doc["copas"], doc["general_copas"] = [], []
    motions, copas = {m["id"] for m in doc["motions"]}, {c["id"] for c in doc["copas"]}
    doc["labels"] = [l for l in doc["labels"] if l["motion"] in motions and l["copa"] in copas]
    path.write_text(json.dumps(doc))
    return path


def _package_error_classes():
    """Every exception class that a ``copa`` module defines."""
    modules = [importlib.import_module(f"copa.{info.name}")
               for info in pkgutil.iter_modules(copa.__path__)]
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__]


class TestExitCodes:
    @pytest.mark.parametrize("error", _package_error_classes(), ids=lambda cls: cls.__name__)
    def test_every_package_error_exits_with_its_documented_code(self, capsys, error):
        def body():
            raise error("what went wrong")

        with pytest.raises(SystemExit) as exited:
            _guarded(body)
        assert exited.value.code == {"ConfigError": 2, "CliDomainError": 3}.get(error.__name__, 4)
        assert capsys.readouterr().err == "error: what went wrong\n"

    @pytest.mark.parametrize("drop, args, code, message", [
        ("all but one motion", ["eval"], 4,
         "leave-one-out needs at least 2 motions, the dataset has 1"),
        ("copas", ["eval"], 4, "leave-one-out needs at least one CoPA, the dataset has none"),
        ("copas", ["match", "ban", "smoking"], 4,
         "the lr method needs at least one CoPA, the dataset has none"),
        ("copas", ["match", "ban", "smoking", "--method", "lr"], 4,
         "the lr method needs at least one CoPA, the dataset has none"),
        ("motions", ["match", "ban", "smoking"], 4,
         "the lr method needs at least 1 motion, the dataset has 0"),
        ("motions", ["match", "ban", "smoking", "--method", "lr"], 4,
         "the lr method needs at least 1 motion, the dataset has 0"),
        ("motions and copas", ["match", "ban", "smoking"], 4,
         "the lr method needs at least 1 motion, the dataset has 0"),
        ("motions and copas", ["eval"], 4,
         "leave-one-out needs at least 2 motions, the dataset has 0"),
        ("motions", ["features"], 0, None),
        ("copas", ["features"], 0, None),
        ("motions and copas", ["features"], 0, None),
    ])
    def test_dataset_too_small_for_the_command(self, runner, tmp_path, monkeypatch,
                                               drop, args, code, message):
        monkeypatch.chdir(ROOT)
        path = _trimmed_sample(tmp_path / "ds.json", drop)
        if args == ["eval"]:
            args = ["eval", "--out", str(tmp_path / "out")]
        result = runner.invoke(main, ["--config", "data/config.json", *args],
                               env={"COPA_DATASET": str(path)})
        assert result.exit_code == code, result.output
        if message is None:  # an empty feature table: the header only
            header = FEATURE_NAMES + ("motion_id", "copa_id", "label")
            assert result.output == ",".join(header) + "\n"
        else:
            assert result.output == f"error: {message}\n"

    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["--config", "/nope/missing.json", "stats"])
        assert result.exit_code == 2

    def test_unknown_config_key(self, runner, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text('{"no_such_key": 1}')
        result = runner.invoke(main, ["--config", str(bad), "stats"])
        assert result.exit_code == 2

    def test_config_file_with_a_byte_order_mark(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + (ROOT / "data" / "config.json").read_bytes())
        result = runner.invoke(main, ["--config", str(cfg), "stats"])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: config {cfg}:1: starts with a UTF-8 byte-order mark\n"

    def test_invalid_hyperparameter(self, runner, tmp_path, workspace):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"dataset": str(workspace / "ds.json"), "ba_k": 0}))
        result = runner.invoke(main, ["--config", str(bad), "stats"])
        assert result.exit_code == 2

    def test_no_dataset_configured(self, runner, tmp_path):
        empty = tmp_path / "c.json"
        empty.write_text("{}")
        result = runner.invoke(main, ["--config", str(empty), "stats"])
        assert result.exit_code == 2

    def test_unknown_action_is_domain_error(self, runner, workspace):
        result = runner.invoke(
            main, ["--config", str(workspace / "config.json"), "match", "zap", "t0"]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", [["match", "ban", ""], ["invent", "ban", "", "c1"],
                                         ["match", "ban", "  "], ["invent", "ban", "\t", "c1"],
                                         ["match", "ban", "\t"], ["invent", "ban", "  ", "c1"]])
    def test_empty_topic_is_domain_error(self, runner, workspace, command):
        """A query topic the dataset loader would reject in a motion: one
        whose ``name_key`` is empty."""
        result = runner.invoke(main, ["--config", str(workspace / "config.json"), *command])
        assert result.exit_code == 3, result.output
        assert result.output == "error: empty topic\n"

    def test_unknown_copa_is_domain_error(self, runner, workspace):
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "invent", "ban", "t0", "nope"],
        )
        assert result.exit_code == 3

    def test_missing_dataset_file_is_io_error(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": str(tmp_path / "absent.json")}))
        result = runner.invoke(main, ["--config", str(cfg), "stats"])
        assert result.exit_code == 4

    @pytest.mark.parametrize("kind", ["actions", "copas", "motions"])
    def test_duplicate_id_is_io_error(self, runner, tmp_path, kind):
        doc = json.loads((ROOT / "data" / "sample_dataset.json").read_text())
        doc[kind].append(doc[kind][0])
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["stats"], env={"COPA_DATASET": str(path)})
        assert result.exit_code == 4
        assert f"duplicate {kind[:-1]} id {doc[kind][0]['id']!r}" in result.output

    def test_malformed_dataset_is_io_error(self, runner, tmp_path):
        broken = tmp_path / "ds.json"
        broken.write_text("{oops")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": str(broken)}))
        result = runner.invoke(main, ["--config", str(cfg), "stats"])
        assert result.exit_code == 4

    def test_bad_data_files_are_io_errors(self, runner, workspace, tmp_path):
        bad_emb = tmp_path / "emb.txt"
        bad_emb.write_text((workspace / "emb.txt").read_text().replace("0.95 0.0 0.1", "nan 0.0 0.1"))
        bad_sent = tmp_path / "sent.jsonl"
        bad_sent.write_text('{"topic": "t0", "sentence": "trunc\n')
        bad_wiki = tmp_path / "wiki.json"
        bad_wiki.write_text(json.dumps({"articles": {"t0": {"link_counts": {"x": "many"}}}}))
        base = json.loads((workspace / "config.json").read_text())
        for key, path in (("embeddings", bad_emb), ("sentence_corpus", bad_sent),
                          ("wiki_corpus", bad_wiki)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({**base, key: str(path)}))
            for args in (["eval", "--out", str(tmp_path / "out")], ["match", "ban", "t0"]):
                result = runner.invoke(main, ["--config", str(cfg), *args])
                assert result.exit_code == 4, (key, args, result.output)
                assert str(path) in result.output

    def test_embedding_header_count_mismatch_is_io_error(self, runner, workspace, tmp_path):
        bad_emb = tmp_path / "emb.txt"
        bad_emb.write_text((workspace / "emb.txt").read_text().replace("6 3\n", "7 3\n", 1))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**json.loads((workspace / "config.json").read_text()),
                                   "embeddings": str(bad_emb)}))
        result = runner.invoke(main, ["--config", str(cfg), "match", "ban", "t0"])
        assert result.exit_code == 4, result.output
        assert f"{bad_emb}: the header counts 7 records, the file has 6" in result.output
        assert "Traceback" not in result.output

    def test_non_string_dataset_entries_are_io_errors(self, runner, workspace, tmp_path):
        doc = json.loads((workspace / "ds.json").read_text())
        titles = {**doc, "copas": [{**doc["copas"][0], "manual_titles": [1, 2]}, doc["copas"][1]]}
        general = {**doc, "general_copas": [["x"]]}
        for command, bad_doc, message in (("features", titles, "manual title"),
                                          ("stats", general, "general_copas")):
            (tmp_path / "ds.json").write_text(json.dumps(bad_doc))
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"dataset": str(tmp_path / "ds.json")}))
            result = runner.invoke(main, ["--config", str(cfg), command])
            assert result.exit_code == 4, result.output
            assert message in result.output

    def test_wiki_record_not_an_object_is_io_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        bad_wiki = tmp_path / "wiki.json"
        bad_wiki.write_text(json.dumps({"articles": {"nato": []}}))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            **json.loads((ROOT / "data" / "config.json").read_text()), "wiki_corpus": str(bad_wiki)
        }))
        result = runner.invoke(main, ["--config", str(cfg), "match", "disband", "NATO"])
        assert result.exit_code == 4, result.output
        assert str(bad_wiki) in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "env_key", ["COPA_DATASET", "COPA_EMBEDDINGS", "COPA_WIKI_CORPUS", "COPA_SENTENCE_CORPUS"]
    )
    def test_non_utf8_data_file_is_io_error(self, runner, tmp_path, monkeypatch, env_key):
        monkeypatch.chdir(ROOT)
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff")
        result = runner.invoke(main, ["--config", "data/config.json", "match", "ban", "smoking"],
                               env={env_key: str(bad)})
        assert result.exit_code == 4, result.output
        assert str(bad) in result.output and "UTF-8" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("env_key, name", [
        ("COPA_DATASET", "sample_dataset.json"), ("COPA_EMBEDDINGS", "toy_embeddings.txt"),
        ("COPA_WIKI_CORPUS", "wiki_corpus.json"), ("COPA_SENTENCE_CORPUS", "sentence_corpus.jsonl"),
    ])
    def test_byte_order_mark_in_a_data_file_is_io_error(self, runner, tmp_path, monkeypatch,
                                                        env_key, name):
        monkeypatch.chdir(ROOT)
        bom = tmp_path / name
        bom.write_bytes(b"\xef\xbb\xbf" + (ROOT / "data" / name).read_bytes())
        result = runner.invoke(main, ["--config", "data/config.json", "match", "ban", "smoking"],
                               env={env_key: str(bom)})
        assert result.exit_code == 4, result.output
        assert f"{bom}:1: starts with a UTF-8 byte-order mark" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("env_key, method", [
        ("COPA_EMBEDDINGS", "w2v"), ("COPA_SENTENCE_CORPUS", "nb"), ("COPA_WIKI_CORPUS", "lr"),
    ])
    def test_empty_store_path_is_io_error(self, runner, monkeypatch, env_key, method):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(main, ["--config", "data/config.json", "match", "ban", "smoking",
                                      "--method", method], env={env_key: ""})
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("loader, args, code", [
        ("dataset", ["stats"], 4),
        ("wiki_corpus", ["features"], 4),
        ("config", ["stats"], 2),
    ])
    def test_deeply_nested_json_exits_cleanly(self, runner, workspace, tmp_path, loader, args,
                                              code):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 200_000)
        cfg = workspace / "config.json"
        if loader == "config":
            cfg = nested
        elif loader == "dataset":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"dataset": str(nested)}))
        result = runner.invoke(main, ["--config", str(cfg), *args],
                               env={"COPA_WIKI_CORPUS": str(nested)} if loader == "wiki_corpus" else {})
        assert result.exit_code == code, result.output
        assert str(nested) in result.output and "recursion" in result.output
        assert "Traceback" not in result.output

    def test_embedding_norm_overflow_exits_4_without_a_warning(self, tmp_path):
        lines = (ROOT / "data" / "toy_embeddings.txt").read_text().splitlines()
        assert lines[1].startswith("smoking 0.90 ")
        lines[1] = lines[1].replace("smoking 0.90 ", "smoking 1e200 ")
        emb = tmp_path / "emb.txt"
        emb.write_text("\n".join(lines) + "\n")
        env = {**os.environ, "COPA_EMBEDDINGS": str(emb)}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "copa.cli", "--config", "data/config.json", "match", "ban",
             "smoking", "--method", "knn"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 4, result.stderr
        assert result.stdout == ""
        assert str(emb) in result.stderr and "'smoking'" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("record", [
        {"topic": "smoking", "sentence": None},
        {"topic": "smoking", "sentence": ["a"]},
        {"topic": None, "sentence": "a"},
    ])
    def test_non_string_sentence_record_is_io_error(self, runner, tmp_path, monkeypatch, record):
        monkeypatch.chdir(ROOT)
        bad = tmp_path / "sent.jsonl"
        bad.write_text(json.dumps({"topic": "smoking", "sentence": "fine"}) + "\n"
                       + json.dumps(record) + "\n")
        result = runner.invoke(main, ["--config", "data/config.json", "match", "ban", "smoking",
                                      "--method", "nb"], env={"COPA_SENTENCE_CORPUS": str(bad)})
        assert result.exit_code == 4, result.output
        assert f"{bad}:2" in result.output and "string 'sentence'" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("body_terms", [5, [1, 2], "solar panel"])
    def test_wiki_body_terms_not_a_list_of_strings_is_io_error(self, runner, tmp_path,
                                                               monkeypatch, body_terms):
        monkeypatch.chdir(ROOT)
        bad = tmp_path / "wiki.json"
        bad.write_text(json.dumps({"articles": {"smoking": {"body_terms": body_terms}}}))
        result = runner.invoke(main, ["--config", "data/config.json", "match", "ban", "smoking",
                                      "--method", "lr"], env={"COPA_WIKI_CORPUS": str(bad)})
        assert result.exit_code == 4, result.output
        assert str(bad) in result.output
        assert "'body_terms' must be a list of strings" in result.output
        assert "Traceback" not in result.output

    def test_stores_no_method_reads_are_not_loaded(self, runner, workspace, tmp_path):
        broken = tmp_path / "broken.txt"
        broken.write_text("{oops")
        base = json.loads((workspace / "config.json").read_text())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            **base, "alt_embeddings": str(broken), "wiki_corpus": str(broken),
            "methods": ["ba", "knn", "w2v", "nb"],
        }))
        result = runner.invoke(main, ["--config", str(cfg), "eval", "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["--config", str(cfg), "match", "ban", "t0"])
        assert result.exit_code == 0, result.output
        # lr and the features command read every store
        for args in (["match", "ban", "t0", "--method", "lr"], ["features"]):
            result = runner.invoke(main, ["--config", str(cfg), *args])
            assert result.exit_code == 4, (args, result.output)
            assert str(broken) in result.output

    @pytest.mark.parametrize("method, key, first", [
        ("knn", "embeddings", "knn"), ("w2v", "embeddings", "knn"),
        ("nb", "sentence_corpus", "nb"),
    ])
    def test_missing_required_path_exits_2_before_loading(self, runner, workspace, tmp_path,
                                                          method, key, first):
        """``first`` is the first method of the configured five that needs
        ``key``; the ensemble and eval stop there, before loading the wiki
        corpus that ``lr`` reads."""
        base = json.loads((workspace / "config.json").read_text())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**{k: v for k, v in base.items() if k != key},
                                   "wiki_corpus": str(tmp_path / "no_such_file.json")}))
        for args, named in ((["match", "ban", "t0", "--method", method], method),
                            (["match", "ban", "t0"], first),
                            (["eval", "--out", str(tmp_path / "o")], first)):
            result = runner.invoke(main, ["--config", str(cfg), *args])
            assert result.exit_code == 2, (args, result.output)
            assert f"error: method '{named}' requires the '{key}' path" in result.output
            assert "no_such_file" not in result.output

    def test_fold_error_names_held_out_motion(self, runner, workspace, tmp_path, monkeypatch):
        def broken(model, motion):
            raise RuntimeError("trainer failed")

        monkeypatch.setattr(clfmod, "predict_ba", broken)
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config_ba.json"), "eval", "--out", str(tmp_path)],
        )
        assert result.exit_code == 4
        assert "'m0'" in result.output
        assert "trainer failed" in result.output


class TestMatchCommand:
    def test_impossible_threshold_empty_success(self, runner, workspace):
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "match", "ban", "t0",
             "--method", "ba", "--threshold", "1.01"],
        )
        assert result.exit_code == 0
        assert result.output.strip() == ""

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_a_usage_error(self, runner, workspace, threshold):
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "match", "ban", "t0",
             "--method", "ba", "--threshold", threshold],
        )
        assert result.exit_code == 2, result.output
        assert "'--threshold'" in result.output and "not a finite number" in result.output
        assert "Traceback" not in result.output

    def test_ba_scores_ranked(self, runner, workspace):
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "match", "ban", "fresh",
             "--method", "ba"],
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l and not l.startswith(" ")]
        assert lines[0].startswith("c1\t1\t")
        assert "pro: fresh helps" in result.output

    def test_matched_copa_prints_instantiated_claims(self, runner, monkeypatch):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(
            main,
            ["--config", "data/config.json", "match", "disband", "NATO",
             "--method", "lr"],
        )
        assert result.exit_code == 0
        assert "pro: NATO works efficiently" in result.output
        assert "con: NATO fails to achieve its goals" in result.output

    def test_claims_hold_the_topic_without_its_surrounding_space(self, runner, monkeypatch):
        # the query's topic is matched by name_key, so its scores are those of "Smoking"
        monkeypatch.chdir(ROOT)
        spaced, plain = (runner.invoke(main, ["--config", "data/config.json", "match", "ban", t])
                         for t in (" Smoking ", "Smoking"))
        assert spaced.exit_code == 0 and plain.exit_code == 0, spaced.output
        assert "pushes Smoking into" in plain.output
        assert spaced.output == plain.output

    def test_unreachable_tol_still_answers(self):
        """Every fit of a query stops once its objective stalls, however
        small ``tol`` and however large ``max_iters``."""
        env = {**os.environ, "COPA_TOL": "1e-300", "COPA_MAX_ITERS": "1000000000"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "copa.cli", "--config", "data/config.json", "match", "ban",
             "smoking"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "personal_freedom" in result.stdout

    @pytest.mark.parametrize("method", ["knn", "ensemble"])
    @pytest.mark.parametrize("name", ["@query", "@@@@"])
    def test_a_dataset_motion_may_have_any_id(self, runner, tmp_path, monkeypatch, method, name):
        """The query's id is no dataset motion's, so KNN's self-exclusion
        drops no dataset motion: renaming m01 (ban, smoking) changes no
        output."""
        monkeypatch.chdir(ROOT)
        doc = json.loads((ROOT / "data" / "sample_dataset.json").read_text())
        for record in doc["motions"] + doc["labels"]:
            for field in ("id", "motion"):
                if record.get(field) == "m01":
                    record[field] = name
        renamed = tmp_path / "ds.json"
        renamed.write_text(json.dumps(doc))
        args = ["--config", "data/config.json", "match", "subsidize", "smoking", "--method", method]
        want = runner.invoke(main, args)
        got = runner.invoke(main, args, env={"COPA_DATASET": str(renamed)})
        assert want.exit_code == 0 and got.exit_code == 0, got.output
        assert want.output.count("\t") >= 3
        assert got.output == want.output

    def test_ensemble_takes_max_of_methods(self, runner, workspace, monkeypatch):
        cfgpath = workspace / "config.json"
        out_ens = runner.invoke(
            main, ["--config", str(cfgpath), "match", "ban", "t0", "--method", "ensemble"]
        )
        assert out_ens.exit_code == 0
        per_method = {}
        for m in ("ba", "knn", "w2v", "nb", "lr"):
            r = runner.invoke(
                main, ["--config", str(cfgpath), "match", "ban", "t0", "--method", m]
            )
            assert r.exit_code == 0
            for line in r.output.splitlines():
                if line and not line.startswith(" "):
                    cid, score, _ = line.split("\t")
                    per_method[cid] = max(per_method.get(cid, 0.0), float(score))
        for line in out_ens.output.splitlines():
            if line and not line.startswith(" "):
                cid, score, _ = line.split("\t")
                assert float(score) == pytest.approx(per_method[cid], abs=1e-9)


class TestInventCommand:
    def test_reference_syllogism(self, runner, monkeypatch):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(
            main,
            ["--config", "data/config.json", "invent", "further_exploit",
             "solar energy", "clean_energy", "--stance", "pro",
             "--minor", "Solar energy is a form of clean energy."],
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "Humanity must embrace clean energy in order to fight climate change.",
            "Solar energy is a form of clean energy.",
            "Therefore, humanity must further exploit solar energy.",
        ]

    def test_syllogism_holds_the_topic_without_its_surrounding_space(self, runner, monkeypatch):
        monkeypatch.chdir(ROOT)
        spaced, plain = (
            runner.invoke(main, ["--config", "data/config.json", "invent", "ban", t, "black_market"])
            for t in (" Smoking ", "Smoking"))
        assert spaced.exit_code == 0 and plain.exit_code == 0, spaced.output
        lines = plain.output.splitlines()
        assert lines[1].startswith("Smoking relates to ")
        assert lines[2] == "Therefore, we should ban Smoking."
        assert spaced.output == plain.output


class TestEvalCommand:
    def test_ba_only_without_embeddings_succeeds(self, runner, workspace, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config_ba.json"), "eval", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "pr_ba.csv").exists()
        assert (out / "p_at_1_ba.csv").exists()
        assert (out / "summary.json").exists()
        assert not (out / "pr_knn.csv").exists()

    def test_summary_contents(self, runner, workspace, tmp_path):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["--config", str(workspace / "config_ba.json"), "eval", "--out", str(out)],
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dataset"]["motions"] == 6
        assert summary["dataset"]["copas"] == 2
        assert summary["baseline_largest"]["precision"] == 0.5
        assert summary["stats"]["covered_fraction"] == 1.0

    def test_reruns_are_byte_identical(self, runner, workspace, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["--config", str(workspace / "config.json"), "eval", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_bench_tracer_sees_every_traced_name(self, runner, data_dir, tmp_path, monkeypatch):
        """The per-layer benchmark wraps copa's functions by name and checks
        each fit's gradient from ``logreg_fit``'s arguments; a rename or a
        signature change would blind it."""
        trace = load_bench_module("trace")
        modules = {name: importlib.import_module(f"copa.{name}") for name in
                   ("kb", "textsim", "features", "classifiers", "evaluation", "cli")}
        tracer = trace.Tracer(modules)
        # the fits each trainer returns, to hold the tracer's step counts against;
        # train_w2v_lr returns None for each CoPA it did not fit
        returned = {"w2v": [], "feature_lr": []}
        train_w2v_lr, train_feature_lr = clfmod.train_w2v_lr, clfmod.train_feature_lr

        def w2v_recording(*args, **kwargs):
            fits = train_w2v_lr(*args, **kwargs)
            returned["w2v"].extend(fit for fit in fits if fit is not None)
            return fits

        def feature_lr_recording(*args, **kwargs):
            model = train_feature_lr(*args, **kwargs)
            returned["feature_lr"].append(model[1])
            return model

        monkeypatch.setattr(clfmod, "train_w2v_lr", w2v_recording)
        monkeypatch.setattr(clfmod, "train_feature_lr", feature_lr_recording)
        monkeypatch.chdir(data_dir.parent)
        tracer.install()
        try:
            tracer.enabled = True
            result = runner.invoke(main, ["--config", "data/config.json", "eval",
                                          "--out", str(tmp_path / "out")])
        finally:
            tracer.uninstall()
        assert result.exit_code == 0, result.output
        # the per-pair references live in tests/oracles.py, not in the package
        assert sorted(tracer.absent) == ["features.compute_features", "kb.Dataset.without_motion",
                                         "textsim.set_similarity", "textsim.term_similarity"]
        # every fit is called from its trainer, checked, and converged
        fits = {kind: (f["calls"] > 0, f["unchecked"], f["unconverged"])
                for kind, f in tracer.fits.items()}
        assert fits == {"w2v": (True, 0, 0), "feature_lr": (True, 0, 0)}
        # on_step fires once per accepted step of every fit
        for kind, returned_fits in returned.items():
            assert tracer.fits[kind]["calls"] == len(returned_fits), kind
            assert tracer.fits[kind]["iters"] == sum(f.n_iters for f in returned_fits) > 0, kind
        # every scorer's span fires, so no method reaches classifiers past the tracer
        for name in ("train_ba", "predict_ba", "predict_knn", "train_nb", "predict_nb",
                     "train_w2v_lr", "predict_w2v", "train_feature_lr", "predict_feature_lr"):
            assert tracer.calls[f"classifiers.{name}"] > 0, name


class TestFeaturesCommand:
    def test_row_count_and_header(self, runner, workspace):
        result = runner.invoke(
            main, ["--config", str(workspace / "config.json"), "features"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 20  # 17 features + motion_id + copa_id + label
        assert header[-3:] == ["motion_id", "copa_id", "label"]
        assert len(lines) - 1 == 6 * 2

    def test_written_file(self, runner, workspace, tmp_path):
        out = tmp_path / "features.csv"
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "features", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text().count("\n") == 13  # header + 12 rows

    def test_fields_are_quoted_when_they_need_it(self, runner, workspace, tmp_path):
        # a motion id holding a comma, a quote and a line break stays one field
        odd = 'm,"0\nx'
        doc = json.loads((workspace / "ds.json").read_text())
        doc["motions"][0]["id"] = odd
        doc["labels"][0]["motion"] = odd
        (tmp_path / "ds.json").write_text(json.dumps(doc))
        cfg = tmp_path / "c.json"
        base = json.loads((workspace / "config.json").read_text())
        cfg.write_text(json.dumps({**base, "dataset": str(tmp_path / "ds.json")}))
        out = tmp_path / "features.csv"
        result = runner.invoke(main, ["--config", str(cfg), "features"])
        written = runner.invoke(main, ["--config", str(cfg), "features", "--out", str(out)])
        assert result.exit_code == 0 and written.exit_code == 0, result.output
        assert out.read_text(encoding="utf-8") == result.output
        rows = list(csv.reader(io.StringIO(result.output, newline="")))
        assert len(rows) == 13 and {len(row) for row in rows} == {20}
        assert [row[-3] for row in rows[1:4]] == [odd, odd, "m1"]

    def test_exact_sum_bound_exits_4_naming_the_copa(self, runner, workspace, tmp_path):
        # m_t = {"ban", "t0"} against 4,097 titles is 8,194 term pairs; against
        # 4,096 it is 8,192 = MAX_SET_PAIRS, the most one set similarity may sum
        def features_with_titles(n):
            doc = json.loads((workspace / "ds.json").read_text())
            titles = [f"title {i}" for i in range(n)]
            doc["copas"][1] = {**doc["copas"][1], "manual_titles": titles}
            (tmp_path / "ds.json").write_text(json.dumps(doc))
            cfg = tmp_path / "c.json"
            base = json.loads((workspace / "config.json").read_text())
            cfg.write_text(json.dumps({**base, "dataset": str(tmp_path / "ds.json")}))
            return runner.invoke(main, ["--config", str(cfg), "features"])

        result = features_with_titles(4097)
        assert result.exit_code == 4, result.output
        assert "'c2'" in result.output and "exact-sum bound" in result.output
        assert "Traceback" not in result.output
        assert 2 * 4096 == MAX_SET_PAIRS
        result = features_with_titles(4096)
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 1 + 6 * 2

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        manifest = load_bench_generator().write_workload(
            str(tmp_path), seed=2, n_motions=150, n_copas=37)
        outputs, matches = [], []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            )
            result = subprocess.run(
                [sys.executable, "-m", "copa.cli", "--config", "config.json", "features"],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
            # a new query: KNN's similarity row and the feature LR's inputs
            action, topic = manifest["queries"][0]
            result = subprocess.run(
                [sys.executable, "-m", "copa.cli", "--config", "config.json", "match",
                 action, topic],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            matches.append(result.stdout)
        assert outputs[0].count(b"\n") == 150 * 37 + 1
        assert outputs[0] == outputs[1]
        assert matches[0].count(b"\t") > 0
        assert matches[0] == matches[1]


class TestEnvOverrides:
    def test_env_dataset_override(self, runner, workspace, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": "/nonexistent.json"}))
        result = runner.invoke(
            main,
            ["--config", str(cfg), "stats"],
            env={"COPA_DATASET": str(workspace / "ds.json")},
        )
        assert result.exit_code == 0
        assert "motions: 6" in result.output

    def test_env_bad_value_is_config_error(self, runner, workspace):
        result = runner.invoke(
            main,
            ["--config", str(workspace / "config.json"), "stats"],
            env={"COPA_BA_K": "not-a-number"},
        )
        assert result.exit_code == 2


class TestAppConfig:
    def test_defaults(self):
        cfg = AppConfig.load(None, env={})
        assert cfg.ba_k == 5
        assert cfg.methods == ("ba", "knn", "w2v", "nb", "lr")

    def test_env_methods_comma_list(self):
        cfg = AppConfig.load(None, env={"COPA_METHODS": "ba,knn"})
        assert cfg.methods == ("ba", "knn")

    def test_env_bool_parsing(self):
        cfg = AppConfig.load(None, env={"COPA_EXCLUDE_GENERAL": "true"})
        assert cfg.exclude_general is True
        with pytest.raises(ConfigError):
            AppConfig.load(None, env={"COPA_EXCLUDE_GENERAL": "maybe"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            AppConfig.load(None, env={"COPA_METHODS": "ba,rnn"})


class TestConfigTyping:
    """Each config value is checked against its key's declared type and
    range when the config loads; a bad one exits 2 naming the key."""

    @pytest.mark.parametrize("key, raw", [
        ("ba_k", "1e999"),
        ("ba_k", "2.7"),
        ("ba_k", "true"),
        ("max_iters", "null"),
        ("knn_top", "[3]"),
        ("l2_lambda", "Infinity"),
        ("tol", "NaN"),
        ("nb_alpha", "true"),
        ("knn_threshold", "-Infinity"),
        ("dataset", "5"),
        ("wiki_corpus", '"a\\u0000b"'),
        ("embeddings", '"\\ud800"'),
        ("methods", '["ba", "ba"]'),
        ("methods", '["ba", 1]'),
        ("threshold_step", "0.3"),
        ("threshold_step", "1e-300"),
    ])
    def test_bad_value_exits_2_naming_the_key(self, runner, workspace, tmp_path, key, raw):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"dataset": {json.dumps(str(workspace / "ds.json"))}, "{key}": {raw}}}')
        result = runner.invoke(main, ["--config", str(cfg), "stats"])
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("env", [{"COPA_TOL": "nan"}, {"COPA_L2_LAMBDA": "inf"},
                                     {"COPA_METHODS": "ba,nb,ba"}, {"COPA_BA_K": "2.7"}])
    def test_bad_env_value_exits_2(self, runner, workspace, env):
        result = runner.invoke(main, ["--config", str(workspace / "config_ba.json"), "stats"],
                               env=env)
        assert result.exit_code == 2, result.output
        assert next(iter(env))[len("COPA_"):].lower() in result.output

    def test_over_long_integer_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ba_k": ' + "1" * 5000 + "}")
        result = runner.invoke(main, ["--config", str(cfg), "stats"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_values_load_as_declared_types(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ba_k": 3.0, "l2_lambda": 1, "dataset": null, "threshold_step": 0.25}')
        loaded = AppConfig.load(str(cfg), env={"COPA_KNN_THRESHOLD": "0.25", "COPA_MAX_ITERS": "7"})
        assert (loaded.ba_k, loaded.l2_lambda, loaded.knn_threshold, loaded.max_iters) == (
            3, 1.0, 0.25, 7
        )
        assert type(loaded.ba_k) is int and type(loaded.l2_lambda) is float
        assert loaded.dataset is None
        assert loaded.thresholds == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_sample_config_loads_unchanged(self):
        doc = json.loads((ROOT / "data" / "config.json").read_text())
        loaded = AppConfig.load(str(ROOT / "data" / "config.json"), env={})
        assert {key: getattr(loaded, key) for key in doc} == {**doc, "methods": tuple(doc["methods"])}


CONFIG_KEYS = [f.name for f in dataclasses.fields(AppConfig)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text()
    | st.sampled_from([0, 1, 2, 0.25, 1e999, -1e999, "ba,knn", "true", "0.5", "inf"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@given(doc=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=6),
       real_dataset=st.booleans())
@settings(max_examples=150, deadline=None)
def test_any_json_config_loads_or_is_a_config_error(workspace, doc, real_dataset):
    if real_dataset:
        doc["dataset"] = str(workspace / "ds.json")
    path = workspace / "fuzz_config.json"
    path.write_text(json.dumps(doc))
    try:
        AppConfig.load(str(path), env={})
    except ConfigError:
        pass
    result = CliRunner().invoke(main, ["--config", str(path), "stats"])
    assert result.exit_code in (0, 2, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


# any line a file may hold: JSON values, sentence records with any field
# values, and text that is not JSON
SENTENCE_LINES = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({"topic": JSON_VALUES | st.sampled_from(["t0", " T1 ", "u2"]),
                           "sentence": JSON_VALUES | TEXT}).map(json.dumps),
    TEXT,
)
EMBEDDING_LINES = st.lists(EMBEDDING_TOKENS, max_size=5).map(" ".join)


def _fuzz_file(workspace, name, lines, raw):
    path = workspace / name
    if raw is not None:
        path.write_bytes(raw)
    else:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _assert_documented_exit(workspace, args, env):
    result = CliRunner().invoke(main, ["--config", str(workspace / "config.json"), *args], env=env)
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info


@given(lines=st.lists(SENTENCE_LINES, max_size=5), raw=st.none() | st.binary(max_size=16))
@settings(max_examples=150, deadline=None)
def test_any_sentence_file_loads_or_is_a_domain_error(workspace, lines, raw):
    path = _fuzz_file(workspace, "fuzz_sentences.jsonl", lines, raw)
    try:
        TopicSentenceCorpus.from_jsonl(path)
    except DomainError:
        pass
    _assert_documented_exit(workspace, ["match", "ban", "t0", "--method", "nb"],
                            {"COPA_SENTENCE_CORPUS": str(path)})


@given(lines=st.lists(EMBEDDING_LINES, max_size=6), raw=st.none() | st.binary(max_size=16))
@settings(max_examples=150, deadline=None)
def test_any_embedding_file_loads_or_is_a_domain_error(workspace, lines, raw):
    path = _fuzz_file(workspace, "fuzz_embeddings.txt", lines, raw)
    try:
        EmbeddingStore.from_file(path)
    except DomainError:
        pass
    _assert_documented_exit(workspace, ["match", "ban", "t0", "--method", "ensemble"],
                            {"COPA_EMBEDDINGS": str(path)})


# dataset and wiki documents: well-formed ones, which reach validation and
# often load, ones with any JSON value in a field one time in eight, and
# files that are not such documents at all


def _mostly(valid, other=JSON_VALUES):
    """``valid`` seven draws in eight, ``other`` otherwise."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 5 else valid)


ACTION_IDS = st.sampled_from(["ban", "legalize", "fight"])
MOTION_IDS = st.sampled_from(["m0", "m1", "m2", "m3"])
COPA_IDS = st.sampled_from(["c1", "c2", "c3"])
TOPICS = st.sampled_from(["t0", "T0", "u1", "t0 u1", "alpha", "qzx", " "])
CLAIMS = st.just([{"stance": "pro", "template": "[TOPIC] helps"},
                  {"stance": "con", "template": "[TOPIC] hurts"}])
BAD_CLAIMS = st.lists(st.fixed_dictionaries(
    {"stance": st.sampled_from(["pro", "con", " Con", "maybe"]) | JSON_VALUES,
     "template": JSON_VALUES | TEXT}), max_size=3) | JSON_VALUES


def _record_key(record):
    # unique ids (or unique records, for labels) in most lists, so that
    # validation gets past the duplicate-id checks
    return repr(record.get("id", record) if isinstance(record, dict) else record)


def _dataset_docs(field, claims):
    """Dataset documents whose every list, record and field is drawn
    through ``field`` (a strategy -> strategy map)."""

    def records(fields, optional=None, **kwargs):
        record = field(st.fixed_dictionaries(fields, optional=optional or {}))
        return field(st.lists(record, unique_by=_record_key, **kwargs))

    return st.fixed_dictionaries(
        {
            "actions": records({"id": field(ACTION_IDS), "surface": field(TEXT)},
                               {"conclusion": field(TEXT)}, min_size=1, max_size=3),
            "copas": records({
                "id": field(COPA_IDS), "name": field(TEXT), "topic_related": field(st.booleans()),
                "manual_titles": field(st.lists(field(TOPICS), max_size=3)),
                "claims": claims,
            }, max_size=3),
            "motions": records({"id": field(MOTION_IDS), "action": field(ACTION_IDS),
                                "topic": field(TOPICS)}, max_size=4),
            "labels": records({"motion": field(MOTION_IDS), "copa": field(COPA_IDS)},
                              {"claim_stance_pro_means_support": field(st.booleans())},
                              max_size=5),
        },
        optional={"general_copas": field(st.lists(field(COPA_IDS), max_size=2))},
    )


@st.composite
def _loadable_dataset_docs(draw):
    """Dataset documents that pass validation and run folds: the motion
    ids drawn first, 2-4 motions with distinct (action, topic) pairs over
    the document's actions, 1-3 CoPAs, and labels over the drawn ids."""
    actions = draw(st.lists(ACTION_IDS, min_size=1, max_size=3, unique=True))
    motion_ids = draw(st.lists(MOTION_IDS, min_size=2, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(actions), TOPICS), unique=True,
                          min_size=len(motion_ids), max_size=len(motion_ids)))
    copa_ids = draw(st.lists(COPA_IDS, min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.tuples(st.sampled_from(motion_ids), st.sampled_from(copa_ids)),
                           max_size=6, unique=True))
    return {
        "actions": [{"id": a, "surface": draw(TEXT)} for a in actions],
        "copas": [{"id": cid, "name": draw(TEXT), "topic_related": draw(st.booleans()),
                   "manual_titles": draw(st.lists(TOPICS, min_size=1, max_size=3)),
                   "claims": draw(CLAIMS)} for cid in copa_ids],
        "motions": [{"id": mid, "action": action, "topic": topic}
                    for mid, (action, topic) in zip(motion_ids, pairs)],
        "labels": [{"motion": mid, "copa": cid} for mid, cid in labels],
    }


DATASET_DOCS = (_dataset_docs(lambda strategy: strategy, CLAIMS)
                | _dataset_docs(_mostly, _mostly(CLAIMS, BAD_CLAIMS)))
# half the examples are documents that load and run leave-one-out folds;
# the other half are any of the documents above, JSON values or raw bytes
DATASET_FILES = (st.tuples(_loadable_dataset_docs(), st.none())
                 | st.tuples(DATASET_DOCS | JSON_VALUES, st.none() | st.binary(max_size=16)))
COUNTS = _mostly(st.integers(0, 5))
WIKI_DOCS = st.fixed_dictionaries({}, optional={
    "articles": _mostly(st.dictionaries(
        st.sampled_from(["t0", " T1", "u2", "alpha"]) | TEXT,
        _mostly(st.fixed_dictionaries({}, optional={
            "link_counts": _mostly(st.dictionaries(TOPICS | TEXT, COUNTS, max_size=3)),
            "body_terms": _mostly(st.lists(_mostly(TOPICS), max_size=3)),
        })),
        max_size=3,
    )),
    "background": _mostly(st.fixed_dictionaries({}, optional={
        "link_counts": _mostly(st.dictionaries(TOPICS, COUNTS, max_size=3)),
        "total_links": COUNTS,
    })),
})


@given(file=DATASET_FILES)
@settings(max_examples=150, deadline=None)
def test_any_dataset_file_loads_or_is_a_parse_or_validation_error(workspace, file):
    doc, raw = file
    path = _fuzz_file(workspace, "fuzz_dataset.json", [json.dumps(doc)], raw)
    try:
        load_dataset(path)
    except (ParseError, ValidationError):
        pass
    for args in (["stats"], ["features"], ["match", "ban", "t0", "--method", "ensemble"],
                 ["eval", "--out", str(workspace / "fuzz_eval")]):
        _assert_documented_exit(workspace, args, {"COPA_DATASET": str(path)})


@given(doc=WIKI_DOCS | JSON_VALUES, raw=st.none() | st.binary(max_size=16))
@settings(max_examples=150, deadline=None)
def test_any_wiki_file_loads_or_is_a_domain_error(workspace, doc, raw):
    path = _fuzz_file(workspace, "fuzz_wiki.json", [json.dumps(doc)], raw)
    try:
        WikiCorpus.from_file(path)
    except DomainError:
        pass
    _assert_documented_exit(workspace, ["features"], {"COPA_WIKI_CORPUS": str(path)})
