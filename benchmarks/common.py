"""Shared benchmark-harness utilities.

Every bench prints the rows/series the corresponding paper table or
figure reports (visible with ``pytest benchmarks/ --benchmark-only -s``)
and writes them to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
can cite the regenerated numbers.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def report(name: str, title: str, headers: Sequence[str], rows: List[Sequence]) -> str:
    """Render, print, and persist one table; returns the rendered text."""
    text = render_table(title, headers, rows)
    save_text(name, text)
    return text


def save_text(name: str, text: str) -> None:
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
