"""``tools/check_docs.py`` in both directions, over a temporary tree: a
``REPRO_*`` variable must have a docs table row, and a row must not name
a variable no code reads; a command, script path or ``repro.*`` name the
docs name must still exist."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402

ENV_TABLE = "\nProse.\n\n| Variable | Effect |\n|---|---|\n| `REPRO_CHUNK_BYTES` | chunk size |\n"


@pytest.mark.parametrize("env_row,prose,needle", [
    ("", "", None),
    ("| `REPRO_GONE` | removed |\n", "", "a table row names REPRO_GONE, which no code"),
    ("", "Run `python tools/gone.py`.\n", "names tools/gone.py, which does not exist"),
    ("", "Run `python -m repro.gone`.\n", "`python -m repro.gone` names no runnable module"),
    ("", "See `repro.core.comm_hooks.Fp16Hook.wire_ratio`.\n", None),
    ("", "See `repro.core.comm_hooks.gone_hook`.\n",
     "stale reference repro.core.comm_hooks.gone_hook"),
], ids=["covering", "stale-env", "stale-script", "stale-command", "resolving-name",
        "stale-name"])
def test_a_minimal_tree(tmp_path, monkeypatch, capsys, env_row, prose, needle):
    """One source file reading REPRO_CHUNK_BYTES and a table covering it
    pass; one stale row, script, command or dotted name more is one
    problem.  ``repro.gone`` is a package without a ``__main__.py``: a
    module reference to it resolves, running it does not.  A dotted name
    resolves in full, down to the attribute."""
    (tmp_path / "src" / "repro" / "gone").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "gone" / "__init__.py").write_text("")
    (tmp_path / "src" / "chunks.py").write_text('import os\nos.environ.get("REPRO_CHUNK_BYTES")\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "performance.md").write_text(ENV_TABLE + env_row + "\n" + prose)
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(check_docs, "SRC_DIR", str(tmp_path / "src"))
    status, out = check_docs.main([]), capsys.readouterr().out
    if needle is None:
        assert status == 0, out
    else:
        assert status == 1 and "1 problem(s)" in out and needle in out, out


def test_the_real_docs_pass(capsys):
    assert check_docs.main([]) == 0, capsys.readouterr().out
