"""``tools/check_docs.py`` in both directions, over a temporary tree: a
knob or ``REPRO_*`` variable must have a docs table row, and a row must
not name a variable no code reads or a knob ``KNOBS`` no longer has."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402
from repro.autotune.knobs import KNOBS  # noqa: E402

KNOB_TABLE = "| Knob | Kind |\n|---|---|\n" + "".join(f"| `{name}` | numeric |\n" for name in KNOBS)
ENV_TABLE = "\nProse.\n\n| Variable | Effect |\n|---|---|\n| `REPRO_CHUNK_BYTES` | chunk size |\n"


@pytest.mark.parametrize("knob_row,env_row,needle", [
    ("", "", None),
    ("| `num_streams` | numeric |\n", "", "knob table row 'num_streams' is not a key"),
    ("", "| `REPRO_GONE` | removed |\n", "a table row names REPRO_GONE, which no code"),
], ids=["covering", "stale-knob", "stale-env"])
def test_a_minimal_tree(tmp_path, monkeypatch, capsys, knob_row, env_row, needle):
    """One source file reading REPRO_CHUNK_BYTES and tables covering it
    and every real knob pass; one stale row more is one problem."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "chunks.py").write_text('import os\nos.environ.get("REPRO_CHUNK_BYTES")\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "autotuning.md").write_text(KNOB_TABLE + knob_row + ENV_TABLE + env_row)
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(check_docs, "SRC_DIR", str(tmp_path / "src"))
    status, out = check_docs.main([]), capsys.readouterr().out
    if needle is None:
        assert status == 0, out
    else:
        assert status == 1 and "1 problem(s)" in out and needle in out, out


def test_the_real_docs_pass(capsys):
    assert check_docs.main([]) == 0, capsys.readouterr().out
