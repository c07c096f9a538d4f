"""The sample eval's output files, compared byte for byte.

``tests/golden/sample_eval`` holds the files that
``copa --config data/config.json eval`` writes, and
``tests/golden/sample_eval_exclude_general`` those of the same command
with ``--exclude-general``.  A change that moves a number on purpose
regenerates both from the repository root:

    copa --config data/config.json eval --out tests/golden/sample_eval
    copa --config data/config.json --exclude-general eval \\
        --out tests/golden/sample_eval_exclude_general

and says in CHANGES.md which numbers moved and why.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from copa.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name, flags", [
    ("sample_eval", []),
    ("sample_eval_exclude_general", ["--exclude-general"]),
])
def test_sample_eval_matches_the_golden_files(tmp_path, monkeypatch, name, flags):
    monkeypatch.chdir(ROOT)
    out = tmp_path / name
    result = CliRunner().invoke(main, ["--config", "data/config.json", *flags,
                                       "eval", "--out", str(out)])
    assert result.exit_code == 0, result.output
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for file in want:
        assert (out / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file
