"""Programmatic access to every paper experiment.

Each function returns the rows of one paper table/figure; the benchmark
harness (``benchmarks/bench_*.py``) wraps these with timing, shape
assertions and the rendered tables under ``benchmarks/results/``.
"""

from repro.experiments import ablations, figures

__all__ = ["figures", "ablations"]
