"""Docstring-coverage gate for the public ``repro.comm`` API.

Wraps ``tools/check_docstrings.py`` (the same script CI runs as a
standalone step) so the requirement is enforced by the tier-1 suite
too: every public module, class, and function in the communication
layer must carry a docstring.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docstrings import DEFAULT_TARGETS, check_file  # noqa: E402


def test_public_comm_api_has_docstrings():
    problems = []
    for target in DEFAULT_TARGETS:
        problems.extend(
            f"{path.relative_to(REPO_ROOT)}:{line}: {msg}"
            for path, line, msg in check_file(target)
        )
    assert not problems, "missing docstrings:\n" + "\n".join(problems)
