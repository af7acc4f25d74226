#!/usr/bin/env python
"""Docs/code consistency gate: the documented-knobs guarantee.

Four checks over ``docs/*.md``, ``README.md``, and
``examples/README.md``, all of which must pass for CI to go green:

1. **Knob coverage** — every ``REPRO_*`` environment variable read
   anywhere under ``src/`` and every autotunable knob in
   ``repro.autotune.knobs.KNOBS`` must appear in a markdown *table row*
   in the docs (the knob tables in ``docs/autotuning.md`` are the
   canonical home).  A knob you can set but cannot look up is a bug.
2. **No stale rows** — the reverse: every ``REPRO_*`` variable a table
   row names must be read by some Python file of the repo (``src/``,
   or the harness under ``tests/``, ``benchmarks/``, ``examples/``,
   ``tools/``), and every row of ``docs/autotuning.md``'s knob table
   (the table headed ``Knob``) must name a ``KNOBS`` key.  A documented
   option that no longer exists is a bug too.
3. **Dead links** — every relative markdown link must resolve to an
   existing file (anchors are stripped; external ``http(s)``/``mailto``
   links are skipped).
4. **Stale module references** — every `` `repro.<something>` ``
   reference must name an importable module path prefix: the first
   segment after ``repro.`` has to exist as ``src/repro/<segment>``
   (package or module) or as an attribute of the ``repro`` package.
   Renaming a package without sweeping the docs fails here.

Usage:
    python tools/check_docs.py            # check, exit non-zero on failure
    python tools/check_docs.py -v         # also list everything checked
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
DOC_FILES = ["README.md", "examples/README.md"]
#: Where the reverse check looks for code reading a ``REPRO_*`` variable.
CODE_DIRS = ["src", "tests", "benchmarks", "examples", "tools"]

ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
MODULE_REF_RE = re.compile(r"\brepro\.([a-zA-Z_][a-zA-Z0-9_]*)")


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


def autotune_knobs():
    sys.path.insert(0, SRC_DIR)
    from repro.autotune.knobs import KNOBS

    return set(KNOBS)


def table_row_text(doc_text: str) -> str:
    """Concatenated text of every markdown table row in the document."""
    rows = [
        line
        for line in doc_text.splitlines()
        if line.lstrip().startswith("|") and not set(line.strip()) <= {"|", "-", " ", ":"}
    ]
    return "\n".join(rows)


def check_knob_coverage(docs, verbose):
    """Check 1: env vars + autotune knobs present in doc knob tables."""
    tables = "\n".join(table_row_text(text) for _path, text in docs)
    problems = []
    env_vars = env_vars_under(SRC_DIR)
    for var in sorted(env_vars):
        if var not in tables:
            problems.append(
                f"env var {var} (read under src/) missing from every "
                f"docs knob table — add it to docs/autotuning.md"
            )
    knobs = autotune_knobs()
    autotuning_tables = next(
        (table_row_text(text) for path, text in docs
         if path.endswith(os.path.join("docs", "autotuning.md"))),
        "",
    )
    for knob in sorted(knobs):
        if f"`{knob}`" not in autotuning_tables:
            problems.append(
                f"autotunable knob {knob} missing from the knob table in "
                f"docs/autotuning.md"
            )
    if verbose:
        print(f"  knob coverage: {len(env_vars)} env vars, "
              f"{len(knobs)} autotune knobs checked")
    return problems


def knob_table_names(doc_text: str) -> list:
    """First-cell names (backticks stripped) of the rows of every table
    whose header's first cell is ``Knob``."""
    names, in_table = [], False
    for line in doc_text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.lstrip().startswith("|"):
            in_table = False
        elif cells[0] == "Knob":
            in_table = True
        elif in_table and not set(line.strip()) <= {"|", "-", " ", ":"}:
            names.append(cells[0].strip("`"))
    return names


def check_stale_rows(docs, verbose):
    """Check 2: table rows name only variables and knobs that exist."""
    read = env_vars_under(*(os.path.join(REPO_ROOT, d) for d in CODE_DIRS))
    knobs = autotune_knobs()
    problems = []
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for var in sorted(set(ENV_VAR_RE.findall(table_row_text(text))) - read):
            problems.append(
                f"{rel}: a table row names {var}, which no code under "
                f"{', '.join(CODE_DIRS)} reads — drop the row"
            )
        if path.endswith(os.path.join("docs", "autotuning.md")):
            for name in knob_table_names(text):
                if name not in knobs:
                    problems.append(
                        f"{rel}: knob table row {name!r} is not a key of "
                        f"repro.autotune.knobs.KNOBS — drop the row"
                    )
    if verbose:
        print(f"  stale rows: {len(read)} REPRO_* vars read by code, "
              f"{len(knobs)} autotune knobs")
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


def check_module_refs(docs, verbose):
    """Check 4: repro.<segment> references resolve to real modules."""
    sys.path.insert(0, SRC_DIR)
    import repro

    problems = []
    refs = set()
    for path, text in docs:
        rel = os.path.relpath(path, REPO_ROOT)
        for match in MODULE_REF_RE.finditer(text):
            segment = match.group(1)
            refs.add(segment)
            pkg_dir = os.path.join(SRC_DIR, "repro", segment)
            module_file = pkg_dir + ".py"
            if (
                os.path.isdir(pkg_dir)
                or os.path.isfile(module_file)
                or hasattr(repro, segment)
            ):
                continue
            problems.append(
                f"{rel}: stale reference repro.{segment} "
                f"(no src/repro/{segment} module/package or repro attribute)"
            )
    if verbose:
        print(f"  module refs: {len(refs)} distinct repro.* prefixes checked")
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
    problems += check_knob_coverage(docs, args.verbose)
    problems += check_stale_rows(docs, args.verbose)
    problems += check_links(docs, args.verbose)
    problems += check_module_refs(docs, args.verbose)

    # De-dup (the same stale ref can appear in several files verbatim).
    unique = sorted(set(problems))
    if unique:
        print(f"check_docs: {len(unique)} problem(s):")
        for problem in unique:
            print(f"  - {problem}")
        return 1
    print(f"check_docs OK: {len(docs)} files — knob tables cover every "
          f"REPRO_* var and autotunable knob and name nothing else, no dead "
          f"links, no stale repro.* references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
