#!/usr/bin/env python
"""Offline comm-health analysis over a flight-recorder dump.

Loads a :func:`repro.debug.flight_recorder.dump_json` file (per rank:
the collective records, the incidents and the rank's folded metrics)
and runs the live health check, ``analyze_dumps``, over it — the same
rules over the same data ``health_report()`` reads — then prints
the attributed diagnoses: which rank is a persistent straggler, which
link is slow, which rank trails the collective frontier,
without needing the run to still be alive.

Usage::

    python tools/healthctl.py flight_recorder.json              # report
    python tools/healthctl.py flight_recorder.json --json out.json
    python tools/healthctl.py flight_recorder.json --fail-on-diagnosis

``--fail-on-diagnosis`` exits 1 when any anomaly is attributed — CI's
false-positive gate runs it over a fault-free chaos-smoke dump, so a
detector that starts crying wolf fails the build instead of eroding
trust in the verdicts.  An unreadable file exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.telemetry.health import analyze_dumps, render_diagnoses  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healthctl",
        description="Attribute comm anomalies from a flight-recorder dump.",
    )
    parser.add_argument("path", help="flight-recorder JSON (debug.dump_json)")
    parser.add_argument(
        "--json",
        metavar="OUT",
        help="also write the report (ranks + diagnoses) as JSON",
    )
    parser.add_argument(
        "--fail-on-diagnosis",
        action="store_true",
        help="exit 1 if any anomaly is attributed (CI false-positive gate)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.path) as handle:
            dumps = json.load(handle)["flight_recorders"]
        diagnoses = analyze_dumps(dumps)
        ranks = [dump["rank"] for dump in dumps]
        records = sum(len(dump["records"]) for dump in dumps)
    except FileNotFoundError:
        print(f"healthctl: no such file: {args.path}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"healthctl: {args.path} is not a flight-recorder dump: {exc!r}",
              file=sys.stderr)
        return 2

    print(f"analyzed ranks {ranks}: {records} collective records")
    print(render_diagnoses(diagnoses), end="")

    if args.json:
        report = {"path": args.path, "ranks": ranks,
                  "diagnoses": [d.as_dict() for d in diagnoses]}
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")

    if args.fail_on_diagnosis and diagnoses:
        print("healthctl: anomalies attributed and --fail-on-diagnosis set",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
