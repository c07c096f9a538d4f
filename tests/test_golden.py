"""The sample data's command outputs, compared byte for byte.

``tests/golden/sample_eval`` holds the files that
``copa --config data/config.json eval`` writes, and
``tests/golden/sample_eval_exclude_general`` those of the same command
with ``--exclude-general``.  ``tests/golden/sample_match`` holds the
stdout of ``copa match`` for three queries under each method and the
ensemble, one file ``<action>_<topic>_<method>.txt`` each (spaces in the
topic become ``_``), and ``tests/golden/sample_features.csv`` the stdout
of ``copa features``.  A change that moves a number on purpose
regenerates them from the repository root:

    copa --config data/config.json eval --out tests/golden/sample_eval
    copa --config data/config.json --exclude-general eval \\
        --out tests/golden/sample_eval_exclude_general
    for q in "subsidize|solar energy" "disband|NATO" "ban|smoking"; do
        a=${q%%|*}; t=${q#*|}
        for m in ba knn w2v nb lr ensemble; do
            copa --config data/config.json match "$a" "$t" --method $m \\
                > "tests/golden/sample_match/${a}_${t// /_}_$m.txt"
        done
    done
    copa --config data/config.json features > tests/golden/sample_features.csv

and says in CHANGES.md which numbers moved and why.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from copa import features, kb, textsim
from copa.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

MATCH_QUERIES = (("subsidize", "solar energy"), ("disband", "NATO"), ("ban", "smoking"))
MATCH_METHODS = ("ba", "knn", "w2v", "nb", "lr", "ensemble")


def _run(monkeypatch, *args) -> bytes:
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, ["--config", "data/config.json", *args])
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name, flags", [
    ("sample_eval", []),
    ("sample_eval_exclude_general", ["--exclude-general"]),
])
def test_sample_eval_matches_the_golden_files(tmp_path, monkeypatch, name, flags):
    out = tmp_path / name
    _run(monkeypatch, *flags, "eval", "--out", str(out))
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for file in want:
        assert (out / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


@pytest.mark.parametrize("method", MATCH_METHODS)
@pytest.mark.parametrize("action, topic", MATCH_QUERIES)
def test_sample_match_matches_the_golden_file(monkeypatch, action, topic, method):
    got = _run(monkeypatch, "match", action, topic, "--method", method)
    file = f"{action}_{topic.replace(' ', '_')}_{method}.txt"
    assert got == (GOLDEN / "sample_match" / file).read_bytes()


def test_sample_features_match_the_golden_file(monkeypatch):
    assert _run(monkeypatch, "features") == (GOLDEN / "sample_features.csv").read_bytes()


def test_the_commands_never_call_the_per_pair_references(tmp_path, monkeypatch):
    """The per-pair references that tests compare the program against are
    no part of the commands: with each patched to raise wherever a
    ``copa`` module binds it, the sample eval, an ensemble match and
    features still give their golden outputs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command called a per-pair reference")

    references = (textsim.term_similarity, textsim.set_similarity, features.compute_features)
    for name, module in list(sys.modules.items()):
        if name == "copa" or name.startswith("copa."):
            for attr, value in list(vars(module).items()):
                if any(value is ref for ref in references):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(kb.Dataset, "without_motion", refuse)
    assert features.set_similarity is refuse  # bound by name, so patched there too
    test_sample_eval_matches_the_golden_files(tmp_path, monkeypatch, "sample_eval", [])
    test_sample_match_matches_the_golden_file(monkeypatch, "subsidize", "solar energy", "ensemble")
    test_sample_features_match_the_golden_file(monkeypatch)
