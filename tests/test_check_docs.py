"""``tools/check_docs.py`` in both directions, over a temporary tree: a
knob, autotune option or ``REPRO_*`` variable must have a docs table
row, and a row must not name a variable no code reads, a knob ``KNOBS``
no longer has or an option ``Autotuner`` no longer takes; a command or
script path the docs name must still exist."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402
from repro.autotune.knobs import KNOBS  # noqa: E402

KNOB_TABLE = "| Knob | Kind |\n|---|---|\n" + "".join(f"| `{name}` | numeric |\n" for name in KNOBS)
ENV_TABLE = "\nProse.\n\n| Variable | Effect |\n|---|---|\n| `REPRO_CHUNK_BYTES` | chunk size |\n"
OPTIONS = sorted(check_docs.autotune_options())


def option_table(names):
    return "\n| Option | Default | Meaning |\n|---|---|---|\n" + "".join(
        f"| `{name}` | - | - |\n" for name in names
    )


@pytest.mark.parametrize("knob_row,env_row,options,prose,needle", [
    ("", "", OPTIONS, "", None),
    ("| `num_streams` | numeric |\n", "", OPTIONS, "", "knob table row 'num_streams' is not a key"),
    ("", "| `REPRO_GONE` | removed |\n", OPTIONS, "", "a table row names REPRO_GONE, which no code"),
    ("", "", OPTIONS + ["sampler_thread"], "",
     "option table row 'sampler_thread' is not a keyword parameter"),
    ("", "", OPTIONS[1:], "", f"autotune option {OPTIONS[0]} missing from the Option table"),
    ("", "", OPTIONS, "Run `python tools/gone.py`.\n", "names tools/gone.py, which does not exist"),
    ("", "", OPTIONS, "Run `python -m repro.gone`.\n", "`python -m repro.gone` names no runnable module"),
], ids=["covering", "stale-knob", "stale-env", "stale-option", "missing-option",
        "stale-script", "stale-command"])
def test_a_minimal_tree(tmp_path, monkeypatch, capsys, knob_row, env_row, options, prose, needle):
    """One source file reading REPRO_CHUNK_BYTES and tables covering it,
    every real knob and every real autotune option pass; one stale or
    missing row, script or command more is one problem.  ``repro.gone``
    is a package without a ``__main__.py``: a module reference to it
    resolves, running it does not."""
    (tmp_path / "src" / "repro" / "gone").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "gone" / "__init__.py").write_text("")
    (tmp_path / "src" / "chunks.py").write_text('import os\nos.environ.get("REPRO_CHUNK_BYTES")\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "autotuning.md").write_text(
        KNOB_TABLE + knob_row + ENV_TABLE + env_row + option_table(options) + "\n" + prose
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(check_docs, "SRC_DIR", str(tmp_path / "src"))
    status, out = check_docs.main([]), capsys.readouterr().out
    if needle is None:
        assert status == 0, out
    else:
        assert status == 1 and "1 problem(s)" in out and needle in out, out


def test_the_real_docs_pass(capsys):
    assert check_docs.main([]) == 0, capsys.readouterr().out
