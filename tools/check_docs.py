#!/usr/bin/env python
"""Docs/code consistency gate: the documented-variables guarantee.

Five checks over ``docs/*.md``, ``README.md``, ``examples/README.md``,
``EXPERIMENTS.md`` and ``DESIGN.md``, all of which must pass for CI to
go green:

1. **Env-var coverage** — every ``REPRO_*`` environment variable read
   anywhere under ``src/`` must appear in a markdown *table row* in the
   docs (the "Runtime environment variables" table in
   ``docs/performance.md`` is the canonical home).  A variable you can
   set but cannot look up is a bug.
2. **No stale rows** — the reverse: every ``REPRO_*`` variable a table
   row names must be read by some Python file of the repo (``src/``,
   or the harness under ``tests/``, ``benchmarks/``, ``examples/``,
   ``tools/``).  A documented variable that no longer exists is a bug
   too.
3. **Dead links** — every relative markdown link must resolve to an
   existing file (anchors are stripped; external ``http(s)``/``mailto``
   links are skipped).
4. **Stale references** — every ``repro.a.b.c`` reference must resolve
   in full: its longest prefix that is a module or package under
   ``src/`` is imported and the rest looked up as attributes.  Renaming
   a package, or deleting a function the docs name, without sweeping
   the docs fails here.
5. **Stale commands and paths** — every ``python -m repro.<module>``
   must name a module that can be run (a ``.py`` file, or a package
   with a ``__main__.py``), and every ``tools/*.py``, ``benchmarks/*.py``
   or ``examples/*.py`` path the docs name must exist.  Deleting a
   script or a CLI without sweeping the docs fails here.

Usage:
    python tools/check_docs.py            # check, exit non-zero on failure
    python tools/check_docs.py -v         # also list everything checked
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
DOC_FILES = ["README.md", "examples/README.md", "EXPERIMENTS.md", "DESIGN.md"]
#: Where the reverse check looks for code reading a ``REPRO_*`` variable.
CODE_DIRS = ["src", "tests", "benchmarks", "examples", "tools"]

ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
MODULE_REF_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
RUN_MODULE_RE = re.compile(r"python -m (repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
SCRIPT_PATH_RE = re.compile(r"(?<![\w/.-])((?:tools|benchmarks|examples)/[\w/.-]*\.py)\b")


def doc_paths():
    docs_dir = os.path.join(REPO_ROOT, "docs")
    paths = [
        os.path.join(docs_dir, name)
        for name in sorted(os.listdir(docs_dir))
        if name.endswith(".md")
    ]
    paths += [os.path.join(REPO_ROOT, rel) for rel in DOC_FILES]
    return [p for p in paths if os.path.isfile(p)]


def env_vars_under(*dirs):
    """Every REPRO_* variable referenced by a .py file under ``dirs``."""
    found = set()
    for root in dirs:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name)) as handle:
                    found.update(ENV_VAR_RE.findall(handle.read()))
    return found


def table_row_text(doc_text: str) -> str:
    """Concatenated text of every markdown table row in the document."""
    rows = [
        line
        for line in doc_text.splitlines()
        if line.lstrip().startswith("|") and not set(line.strip()) <= {"|", "-", " ", ":"}
    ]
    return "\n".join(rows)


def check_env_coverage(docs, verbose):
    """Check 1: every env var read under src/ is in a docs table row."""
    tables = "\n".join(table_row_text(text) for _path, text in docs)
    env_vars = env_vars_under(SRC_DIR)
    problems = [
        f"env var {var} (read under src/) missing from every docs table "
        f"— add it to docs/performance.md's runtime environment variables"
        for var in sorted(env_vars) if var not in tables
    ]
    if verbose:
        print(f"  env-var coverage: {len(env_vars)} env vars checked")
    return problems


def check_stale_rows(docs, verbose):
    """Check 2: table rows name only variables some code reads."""
    read = env_vars_under(*(os.path.join(REPO_ROOT, d) for d in CODE_DIRS))
    problems = []
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for var in sorted(set(ENV_VAR_RE.findall(table_row_text(text))) - read):
            problems.append(
                f"{rel}: a table row names {var}, which no code under "
                f"{', '.join(CODE_DIRS)} reads — drop the row"
            )
    if verbose:
        print(f"  stale rows: {len(read)} REPRO_* vars read by code")
    return problems


def check_links(docs, verbose):
    """Check 3: every relative link target exists."""
    problems = []
    checked = 0
    for path, text in docs:
        base = os.path.dirname(path)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            checked += 1
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(os.path.join(base, target_path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO_ROOT)
                problems.append(f"{rel}: dead link -> {target}")
    if verbose:
        print(f"  links: {checked} relative links checked")
    return problems


def resolves(dotted: str) -> bool:
    """True when ``dotted`` names something: the longest prefix that is
    a module or package under ``src/`` is imported and the rest of the
    name is looked up on it attribute by attribute."""
    parts = dotted.split(".")
    cut = len(parts)
    while cut > 1 and not (
        os.path.isdir(os.path.join(SRC_DIR, *parts[:cut]))
        or os.path.isfile(os.path.join(SRC_DIR, *parts[:cut]) + ".py")
    ):
        cut -= 1
    if cut == len(parts):
        return True
    try:
        target = importlib.import_module(".".join(parts[:cut]))
    except ImportError:
        return False
    for name in parts[cut:]:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def check_module_refs(docs, verbose):
    """Check 4: every repro.a.b.c reference resolves in full."""
    sys.path.insert(0, SRC_DIR)
    problems = []
    refs = set()
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for ref in MODULE_REF_RE.findall(text):
            refs.add(ref)
            if not resolves(ref):
                problems.append(f"{rel}: stale reference {ref} (no such module or attribute)")
    if verbose:
        print(f"  references: {len(refs)} distinct repro.* names resolved")
    return problems


def check_commands_and_paths(docs, verbose):
    """Check 5: ``python -m repro.x`` runs, and named scripts exist."""
    problems = []
    checked = 0
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for module in RUN_MODULE_RE.findall(text):
            checked += 1
            base = os.path.join(SRC_DIR, *module.split("."))
            if not (os.path.isfile(base + ".py")
                    or os.path.isfile(os.path.join(base, "__main__.py"))):
                problems.append(f"{rel}: `python -m {module}` names no runnable module")
        for script in SCRIPT_PATH_RE.findall(text):
            checked += 1
            if not os.path.isfile(os.path.join(REPO_ROOT, script)):
                problems.append(f"{rel}: names {script}, which does not exist")
    if verbose:
        print(f"  commands and paths: {checked} checked")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list what was checked")
    args = parser.parse_args(argv)

    docs = []
    for path in doc_paths():
        with open(path) as handle:
            docs.append((path, handle.read()))
    if args.verbose:
        print(f"checking {len(docs)} markdown files:")

    problems = []
    problems += check_env_coverage(docs, args.verbose)
    problems += check_stale_rows(docs, args.verbose)
    problems += check_links(docs, args.verbose)
    problems += check_module_refs(docs, args.verbose)
    problems += check_commands_and_paths(docs, args.verbose)

    # De-dup (the same stale ref can appear in several files verbatim).
    unique = sorted(set(problems))
    if unique:
        print(f"check_docs: {len(unique)} problem(s):")
        for problem in unique:
            print(f"  - {problem}")
        return 1
    print(f"check_docs OK: {len(docs)} files — tables cover every REPRO_* "
          f"var and name nothing else, no dead links, no stale repro.* "
          f"references, commands or script paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
