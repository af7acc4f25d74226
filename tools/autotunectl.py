#!/usr/bin/env python
"""Render and gate autotuner reports.

Reads the JSON report the online autotuner serves at
``ddp_stats()["autotune"]`` (written to disk by
``examples/autotune_demo.py --report`` or any training script) and
renders it for humans: tuner state, the knob taxonomy with each knob's
safe range, the applied-config log, and the search history tail.

Gate mode (CI): ``--check-safe-ranges`` exits non-zero if any config
the tuner ever applied or visited falls outside the documented safe
ranges in ``repro.autotune.knobs.KNOBS`` — the enforcement end of the
documented-knobs guarantee.

Usage:
    python tools/autotunectl.py autotune_report.json
    python tools/autotunectl.py autotune_report.json --check-safe-ranges
    python tools/autotunectl.py autotune_report.json --history 20
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.autotune import TunedConfig, validate_config  # noqa: E402


def fmt_config(config: dict) -> str:
    chunk_kib = config["chunk_bytes"] // 1024
    return (
        f"bucket_cap={config['bucket_cap_mb']} MB chunk={chunk_kib} KiB "
        f"alg={config['algorithm']} "
        f"hook={config['comm_hook'] or '-'}"
    )


def render(report: dict, history_tail: int) -> None:
    print(
        f"state: {report['state']}  windows: {report['windows_closed']}  "
        f"applied: {report['applied_changes']}  "
        f"rollbacks: {report['rollbacks']}  retunes: {report['retunes']}"
    )
    print(f"active: {fmt_config(report['active_config'])}")
    print(f"best:   {fmt_config(report['best_config'])} "
          f"({report['best_time_s'] * 1e3:.2f} ms/iter, "
          f"{report['configs_measured']} configs measured)")

    print("\nknobs (documented safe ranges):")
    for row in report.get("knobs", []):
        env = row["env"] or "-"
        print(f"  {row['knob']:<14} {row['kind']:<11} default={row['default']!s:<9} "
              f"range={row['safe_range']:<26} env={env}")
        print(f"  {'':<14} signal: {row['signal']}")

    applied = report.get("applied_log", [])
    print(f"\napplied configs ({len(applied)}):")
    for entry in applied:
        print(f"  window {entry['window']:>3} [{entry['state']:>10}] "
              f"{'+'.join(entry['changes'])}: {fmt_config(entry['config'])}")

    history = report.get("history", [])
    tail = history[-history_tail:] if history_tail else []
    if tail:
        print(f"\nsearch history (last {len(tail)} of {len(history)} windows):")
        for entry in tail:
            print(f"  window {entry['window']:>3} [{entry['state']:>10}] "
                  f"{entry['measured_s'] * 1e3:8.2f} ms  "
                  f"{fmt_config(entry['config'])}")


def check_safe_ranges(report: dict) -> list:
    """Every config the tuner applied or visited, validated; returns
    a list of violation strings (empty = compliant)."""
    violations = []
    seen = [("active", report["active_config"]), ("best", report["best_config"])]
    seen += [(f"applied@{e['window']}", e["config"])
             for e in report.get("applied_log", [])]
    seen += [(f"history@{e['window']}", e["config"])
             for e in report.get("history", [])]
    for label, config in seen:
        try:
            validate_config(TunedConfig(**config))
        except (ValueError, TypeError) as err:
            violations.append(f"{label}: {err}")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="autotune report JSON "
                        "(the ddp_stats()['autotune'] payload)")
    parser.add_argument("--history", type=int, default=10, metavar="N",
                        help="show the last N history windows (0 hides)")
    parser.add_argument("--check-safe-ranges", action="store_true",
                        help="exit non-zero if any applied/visited config "
                        "violates the documented safe ranges")
    args = parser.parse_args(argv)

    with open(args.report) as handle:
        report = json.load(handle)
    if not report or not report.get("enabled"):
        print("report is empty or autotuning was not enabled")
        return 1

    render(report, args.history)

    if args.check_safe_ranges:
        violations = check_safe_ranges(report)
        if violations:
            print(f"\nSAFE-RANGE VIOLATIONS ({len(violations)}):")
            for violation in violations:
                print(f"  {violation}")
            return 1
        total = 2 + len(report.get("applied_log", [])) + len(report.get("history", []))
        print(f"\nsafe-range check OK: {total} configs validated against KNOBS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
