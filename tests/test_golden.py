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

from copa import kb
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


#: the per-pair references that tests compare the program against; they
#: live in tests/oracles.py
PER_PAIR_REFERENCES = ("term_similarity", "_dict_cosine", "set_similarity", "compute_features")


def test_the_commands_never_call_the_per_pair_references():
    """No command can call a per-pair reference: no ``copa`` module binds
    one under its name, and a ``Dataset`` has no ``without_motion``."""
    bound = [(name, attr) for name, module in sorted(sys.modules.items())
             if name == "copa" or name.startswith("copa.")
             for attr in PER_PAIR_REFERENCES if hasattr(module, attr)]
    assert bound == []
    assert not hasattr(kb.Dataset, "without_motion")
