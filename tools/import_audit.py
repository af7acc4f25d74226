#!/usr/bin/env python
"""Import-graph audit of ``src/repro`` (ROADMAP item 8).

Two reports, both from the AST — nothing is imported or executed:

1. **Function-level imports** — every ``import repro...`` / ``from
   repro... import`` written inside a function body.  Each one is either
   an import cycle held open by hand or a dependency hidden from the
   module's header; the list is what a "collapse duplicate paths" PR
   works down.
2. **Unreached modules** — every ``repro.*`` module that no test,
   benchmark, example, tool or doc reaches.  A root file reaches the
   modules it imports (a name imported from a package is followed through
   the package's re-exports to the module that defines it) and the
   modules it names in prose (``repro.x.y`` in a ``.md`` file); a reached
   module reaches what it imports, transitively.  Packages
   (``__init__``) are never listed: executing one proves nothing about
   its submodules being used.

Report mode (the default) always exits 0.  ``--check`` fails on five
regressions this repo has already paid for once:

* a function-level import of checkpoint code inside ``repro.checkpoint``,
  ``repro.sharded``, ``repro.utils`` or ``repro.resilience`` (an
  import triangle between them was removed once already);
* any import of ``repro.telemetry.metrics`` inside ``repro.comm`` or
  ``repro.core``: training writes no metric, every series is folded
  from the rank's record ring when read;
* any import of ``repro.checkpoint`` or ``repro.telemetry.health``
  inside ``repro.core``: the wrappers report their own facts, and each
  subsystem reports for itself;
* more function-level imports under ``src/`` than
  ``MAX_FUNCTION_LEVEL_IMPORTS``;
* an unused top-level import in a ``src/`` module other than a package
  ``__init__``: a name an import binds that the module's AST names
  nowhere else and ``__all__`` does not list.

Usage:
    python tools/import_audit.py            # print both reports
    python tools/import_audit.py --check    # same, exit 1 on the gate
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
ROOT_DIRS = ["tests", "benchmarks", "examples", "tools", "docs"]
ROOT_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
GATED_PACKAGES = ("repro.checkpoint", "repro.sharded", "repro.utils", "repro.resilience")
CHECKPOINT_MODULES = ("repro.checkpoint", "repro.utils.checkpoint", "repro.sharded.checkpoint")
#: (importing packages, packages they must not import at any level, why).
FORBIDDEN_IMPORTS = (
    (("repro.comm", "repro.core"), ("repro.telemetry.metrics",),
     "writes metrics on the training path"),
    (("repro.core",), ("repro.checkpoint", "repro.telemetry.health"),
     "reports a subsystem's facts from a wrapper"),
)
#: The function-level import count may only go down.
MAX_FUNCTION_LEVEL_IMPORTS = 37
MODULE_REF_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: One import statement: (line, target module, imported names, enclosing function or "").
Import = Tuple[int, str, Tuple[str, ...], str]


def within(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def source_modules() -> Dict[str, str]:
    """``dotted name -> path`` of every module under ``src/repro``."""
    modules = {}
    for dirpath, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                dotted = os.path.relpath(path, SRC_DIR)[:-3].replace(os.sep, ".")
                modules[dotted.removesuffix(".__init__")] = path
    return modules


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every name a module-level import in ``path``
    binds that no other node of the module's AST names and ``__all__``
    does not list."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        if name not in used
    ]


def scan(path: str, module: str = "") -> Tuple[List[Import], List[str]]:
    """One file's ``repro`` imports (with the function each sits in) and
    the dotted names it reaches through them — ``nn.Linear`` after
    ``from repro import nn`` is the reference ``repro.nn.Linear``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    found: List[Import] = []
    bound: Dict[str, str] = {}  # local name -> dotted repro name

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    found.append((child.lineno, alias.name, (), function))
                    local = alias.asname or alias.name.partition(".")[0]
                    bound[local] = alias.name if alias.asname else local
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:  # relative: resolve against the importing module
                    base = module.split(".")
                    is_package = os.path.basename(path) == "__init__.py"
                    base = base[: len(base) - child.level + is_package]
                    target = ".".join(base + ([target] if target else []))
                found.append(
                    (child.lineno, target, tuple(a.name for a in child.names), function)
                )
                for alias in child.names:
                    bound[alias.asname or alias.name] = f"{target}.{alias.name}"
            inner = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            visit(child, inner)

    visit(tree, "")
    refs = []
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and within(bound.get(node.id, ""), ("repro",)):
            refs.append(".".join([bound[node.id]] + chain[::-1]))
    return [entry for entry in found if within(entry[1], ("repro",))], refs


class Graph:
    """Source modules, their imports, and name resolution through
    package re-exports."""

    def __init__(self):
        self.modules = source_modules()
        scans = {name: scan(path, name) for name, path in self.modules.items()}
        self.imports = {name: found for name, (found, _) in scans.items()}
        self.refs = {name: refs for name, (_, refs) in scans.items()}

    def is_package(self, module: str) -> bool:
        return os.path.basename(self.modules.get(module, "")) == "__init__.py"

    def resolve(self, target: str, name: str, seen=()) -> str:
        """The module ``from target import name`` actually reaches."""
        if f"{target}.{name}" in self.modules:
            return f"{target}.{name}"
        if self.is_package(target) and (target, name) not in seen:
            for _, source, names, function in self.imports[target]:
                if name in names and not function and source != target:
                    return self.resolve(source, name, seen + ((target, name),))
        return target

    def named(self, dotted: str) -> str:
        """The module a dotted reference (``repro.nn.Linear``) lands in."""
        module, rest = dotted, []
        while module and module not in self.modules:
            module, _, last = module.rpartition(".")
            rest.append(last)
        return self.resolve(module, rest[-1]) if module and rest else module

    def targets(self, imports: List[Import], refs: List[str]) -> Iterator[str]:
        for _, target, names, _ in imports:
            for dotted in [f"{target}.{name}" for name in names] or [target]:
                yield self.named(dotted)
        for dotted in refs:
            yield self.named(dotted)


def root_files() -> Iterator[str]:
    for rel in ROOT_FILES:
        yield os.path.join(REPO_ROOT, rel)
    for rel in ROOT_DIRS:
        for dirpath, _dirs, files in os.walk(os.path.join(REPO_ROOT, rel)):
            for name in files:
                if name.endswith((".py", ".md")):
                    yield os.path.join(dirpath, name)


def reached_modules(graph: Graph) -> Set[str]:
    frontier: List[str] = []
    for path in root_files():
        if not os.path.isfile(path):
            continue
        if path.endswith(".py"):
            frontier.extend(graph.targets(*scan(path)))
            continue
        with open(path) as handle:
            frontier.extend(map(graph.named, MODULE_REF_RE.findall(handle.read())))
    reached: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        if module and not graph.is_package(module):
            frontier.extend(graph.targets(graph.imports[module], graph.refs[module]))
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any of the five gates fails")
    args = parser.parse_args(argv)
    graph = Graph()

    lazy = [
        (module, line, target, names, function)
        for module in sorted(graph.modules)
        for line, target, names, function in graph.imports[module]
        if function
    ]
    print(f"function-level repro imports under src/: {len(lazy)}")
    violations = []
    for module, line, target, names, function in lazy:
        rel = os.path.relpath(graph.modules[module], REPO_ROOT)
        what = f"from {target} import {', '.join(names)}" if names else f"import {target}"
        gated = within(module, GATED_PACKAGES) and within(target, CHECKPOINT_MODULES)
        print(f"  {rel}:{line}: {what}  (in {function}){'  <-- GATE' if gated else ''}")
        if gated:
            violations.append(f"{rel}:{line}")

    for importers, forbidden, why in FORBIDDEN_IMPORTS:
        for module in sorted(graph.modules):
            if not within(module, importers):
                continue
            for line, target, names, _ in graph.imports[module]:
                landed = [target] + [graph.named(f"{target}.{name}") for name in names]
                hit = next((m for m in landed if within(m, forbidden)), None)
                if hit is not None:
                    rel = os.path.relpath(graph.modules[module], REPO_ROOT)
                    violations.append(f"{rel}:{line}")
                    print(f"GATE: {rel}:{line} imports {hit}: {why}")
    if len(lazy) > MAX_FUNCTION_LEVEL_IMPORTS:
        violations.append(f"{len(lazy)} function-level imports")
        print(f"GATE: {len(lazy)} function-level imports, more than "
              f"{MAX_FUNCTION_LEVEL_IMPORTS}")

    for module in sorted(graph.modules):
        path = graph.modules[module]
        if graph.is_package(module):
            continue
        for line, name in unused_imports(path):
            rel = os.path.relpath(path, REPO_ROOT)
            violations.append(f"{rel}:{line}")
            print(f"GATE: {rel}:{line} imports {name}, which the module never uses")

    reached = reached_modules(graph)
    unreached = sorted(
        m for m in graph.modules if m not in reached and not graph.is_package(m)
    )
    print(f"\nmodules no test, bench, example, tool or doc reaches: {len(unreached)}")
    for module in unreached:
        print(f"  {module}  ({os.path.relpath(graph.modules[module], REPO_ROOT)})")

    if violations:
        print(f"\nGATE: {len(violations)} violation(s): {', '.join(violations)}")
    return 1 if args.check and violations else 0


if __name__ == "__main__":
    sys.exit(main())
