#!/usr/bin/env python
"""Docstring lint for the public ``repro.comm`` API (pydocstyle-lite).

Checks, without third-party dependencies, that every public module,
class, function, and method in the target files carries a docstring —
the CI gate behind the "document algorithm, α–β complexity and
thread-safety" rule for the communication layer.

Public means: name does not start with ``_``, and for methods, the
defining class is public too.  ``__init__`` and other dunders are
exempt (they are documented by their class).

Usage::

    python tools/check_docstrings.py [paths...]

With no arguments, checks the default target set (``repro/comm``).
Exits 1 listing every offender as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose public API must be fully documented.
DEFAULT_TARGETS = [
    REPO_ROOT / "src" / "repro" / "comm" / "algorithms.py",
    REPO_ROOT / "src" / "repro" / "comm" / "backends.py",
    REPO_ROOT / "src" / "repro" / "comm" / "process_group.py",
    REPO_ROOT / "src" / "repro" / "comm" / "transport.py",
    REPO_ROOT / "src" / "repro" / "comm" / "distributed.py",
    REPO_ROOT / "src" / "repro" / "comm" / "store.py",
]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def check_file(path: Path) -> list:
    """Return ``(path, line, message)`` tuples for missing docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    if not ast.get_docstring(tree):
        problems.append((path, 1, "module is missing a docstring"))

    def visit(node, inside_public_class: bool, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = _is_public(child.name)
                if public and not ast.get_docstring(child):
                    problems.append(
                        (path, child.lineno, f"class {prefix}{child.name} is missing a docstring")
                    )
                visit(child, public, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_public(child.name):
                    continue
                if isinstance(node, ast.ClassDef) and not inside_public_class:
                    continue
                if not ast.get_docstring(child):
                    problems.append(
                        (path, child.lineno, f"def {prefix}{child.name} is missing a docstring")
                    )

    visit(tree, True, "")
    return problems


def main(argv) -> int:
    """CLI entry point; returns the process exit code."""
    targets = [Path(arg) for arg in argv] if argv else DEFAULT_TARGETS
    problems = []
    for target in targets:
        if target.is_dir():
            for sub in sorted(target.rglob("*.py")):
                problems.extend(check_file(sub))
        else:
            problems.extend(check_file(target))
    for path, line, message in problems:
        try:
            shown = path.relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: {message}")
    if problems:
        print(f"\n{len(problems)} missing docstring(s)")
        return 1
    print(f"docstring check passed for {len(targets)} target(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
