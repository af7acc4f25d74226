"""Rule-based anomaly attribution over per-rank flight-recorder dumps.

Detectors read the efficiency-accounting metrics and the cross-rank
collective frontier, and emit
:class:`~repro.telemetry.health.diagnosis.Diagnosis` verdicts:

* **persistent_straggler** — one rank's sends stall *multiple* peers:
  the per-source receive-stall counters concentrate on one sending rank
  across ≥ 2 receivers.
* **slow_link** — the same stall dominance, but concentrated on exactly
  one (src → dst) edge: the link, not the rank, is sick (the
  arXiv:1711.00705 approach of ranking links by achieved vs expected
  bandwidth; the cost-model expectation rides along in the evidence as
  ``comm.model_efficiency``).
* **desync_precursor** — one rank's collective-sequence frontier trails
  the group's leader by many collectives: the drift that ends in the
  hang the hang watch catches, visible while everyone is still
  alive.

One entry point, :func:`analyze_dumps`, reads the one post-mortem
format — :func:`~repro.debug.flight_recorder.dump_all`'s per-rank dumps
(records, incidents and the rank's folded metrics snapshot).  The live
check (:func:`health_report`) runs it over ``dump_all()``;
``tools/healthctl.py`` runs it over a ``dump_json`` file.  It is a pure
function of its input with fixed thresholds (the module constants
below), so a seeded fault plan produces the same diagnoses on every run,
and a dump gives the verdicts the live check gave.

Thresholds are deliberately conservative: the CI chaos gate fails if a
fault-free run produces *any* diagnosis, so every rule requires both an
absolute floor and a dominance ratio before it speaks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.debug.flight_recorder import dump_all, seq_frontier
from repro.debug.levels import DEBUG
from repro.telemetry.health.diagnosis import (
    DESYNC_PRECURSOR,
    PERSISTENT_STRAGGLER,
    SLOW_LINK,
    Diagnosis,
)
from repro.telemetry.metrics import registry_for

_STALL_FROM = re.compile(r"^comm\.recv_stall_s\.from_rank_(-?\d+)$")

#: Minimum total stall (seconds) attributed to one source before the
#: straggler/slow-link rule may speak.
STALL_FLOOR_S = 0.2
#: Top source's stall must exceed the runner-up by this factor.
#: Synchronous collectives cascade waits (everyone eventually waits on
#: the slowest), so perfect concentration never happens; 2x over the
#: runner-up with the absolute floor already met is decisive.
STALL_DOMINANCE = 2.0
#: Receivers that must report the stall for it to be a *rank* problem;
#: fewer makes it an *edge* problem.
STRAGGLER_MIN_REPORTERS = 2
#: A receiver counts as a reporter above this share of the top source's
#: total stall.
REPORTER_SHARE = 0.15
#: Frontier spread (collectives) before the desync rule flags a laggard.
DESYNC_SEQ_SPREAD = 8


@dataclass
class Signals:
    """The fused per-rank inputs every detector reads."""

    #: stall[dst][src] = receive-wait seconds dst attributed to src.
    stall: Dict[int, Dict[int, float]]
    #: Per-group, per-rank highest started collective sequence.
    frontier: Dict[int, Dict[int, int]]
    #: Per-rank mean cost-model efficiency (evidence; may be empty).
    model_efficiency: Dict[int, float]


def _signals(dumps: Sequence[dict]) -> Signals:
    """Fuse per-rank dumps into :class:`Signals`: the frontier from the
    records, everything else from each dump's ``"metrics"`` snapshot.
    Partial dumps are tolerated."""
    dumps = [d for d in dumps if isinstance(d, dict) and d.get("rank", -1) >= 0]
    stall: Dict[int, Dict[int, float]] = {}
    model_eff: Dict[int, float] = {}
    for dump in dumps:
        rank = dump["rank"]
        metrics = dump.get("metrics") or {}
        counters = metrics.get("counters", {})
        for name, value in counters.items():
            match = _STALL_FROM.match(name)
            if match:
                stall.setdefault(rank, {})[int(match.group(1))] = float(value)
        eff = metrics.get("histograms", {}).get("comm.model_efficiency")
        if eff and eff.get("count"):
            model_eff[rank] = float(eff.get("mean", 0.0))
    return Signals(
        stall=stall,
        frontier=seq_frontier(dumps),
        model_efficiency=model_eff,
    )


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------
def _detect_stall_culprit(signals: Signals) -> List[Diagnosis]:
    """Straggler vs slow link from the per-source stall attribution."""
    totals: Dict[int, float] = {}
    stall_rows = signals.stall
    for dst, by_src in stall_rows.items():
        for src, seconds in by_src.items():
            totals[src] = totals.get(src, 0.0) + seconds
    if not totals:
        return []
    top_src = max(totals, key=totals.get)
    top_total = totals[top_src]
    if top_total < STALL_FLOOR_S:
        return []
    others = sorted((v for s, v in totals.items() if s != top_src), reverse=True)
    runner_up = others[0] if others else 0.0
    if top_total < STALL_DOMINANCE * max(runner_up, 1e-9):
        return []
    reporters = sorted(
        dst
        for dst, by_src in stall_rows.items()
        if by_src.get(top_src, 0.0) >= REPORTER_SHARE * top_total
    )
    confidence = min(1.0, 1.0 - runner_up / top_total)
    evidence = {
        "stall_from_culprit_s": round(top_total, 4),
        "runner_up_stall_s": round(runner_up, 4),
        "reporters": reporters,
        "stall_by_receiver_s": {
            dst: round(by_src.get(top_src, 0.0), 4)
            for dst, by_src in sorted(stall_rows.items())
            if by_src.get(top_src)
        },
    }
    if signals.model_efficiency:
        evidence["model_efficiency_by_rank"] = {
            rank: round(value, 4)
            for rank, value in sorted(signals.model_efficiency.items())
        }
    if len(reporters) >= STRAGGLER_MIN_REPORTERS:
        return [
            Diagnosis(
                kind=PERSISTENT_STRAGGLER,
                summary=(
                    f"rank {top_src} stalls {len(reporters)} receiving peers "
                    f"for {top_total:.2f}s total — "
                    f"{top_total / max(runner_up, 1e-9):.1f}x any other rank"
                ),
                culprit_rank=top_src,
                confidence=confidence,
                evidence=evidence,
            )
        ]
    dst = reporters[0] if reporters else max(
        stall_rows, key=lambda d: stall_rows[d].get(top_src, 0.0)
    )
    return [
        Diagnosis(
            kind=SLOW_LINK,
            summary=(
                f"edge {top_src}→{dst} is the only stalled path "
                f"({stall_rows.get(dst, {}).get(top_src, 0.0):.2f}s of "
                f"receive wait concentrates on one link)"
            ),
            culprit_edge=(top_src, dst),
            confidence=confidence,
            evidence=evidence,
        )
    ]


def _detect_desync_precursor(signals: Signals) -> List[Diagnosis]:
    out: List[Diagnosis] = []
    for group, per_rank in sorted(signals.frontier.items()):
        if len(per_rank) < 2:
            continue
        leader = max(per_rank, key=per_rank.get)
        laggard = min(per_rank, key=per_rank.get)
        spread = per_rank[leader] - per_rank[laggard]
        if spread < DESYNC_SEQ_SPREAD:
            continue
        out.append(
            Diagnosis(
                kind=DESYNC_PRECURSOR,
                summary=(
                    f"rank {laggard} trails the collective frontier of group "
                    f"{group} by {spread} collectives (leader rank {leader} "
                    f"at seq {per_rank[leader]}, laggard at "
                    f"{per_rank[laggard]})"
                ),
                culprit_rank=laggard,
                confidence=min(1.0, spread / (4.0 * DESYNC_SEQ_SPREAD) + 0.5),
                evidence={
                    "group": group,
                    "seq_by_rank": dict(sorted(per_rank.items())),
                    "spread": spread,
                },
            )
        )
    return out


def analyze_dumps(dumps: Optional[Sequence[dict]] = None) -> List[Diagnosis]:
    """Run every detector over per-rank flight-recorder dumps.

    ``dumps`` are :meth:`~repro.debug.flight_recorder.FlightRecorder.dump`
    dicts — live from :func:`~repro.debug.flight_recorder.dump_all`, or
    ``json.load``-ed from a ``dump_json`` file (what ``tools/healthctl.py``
    does).  With no argument this is the live health check over
    ``dump_all()``, and — live only — the diagnosis count is published as
    the ``health.diagnoses_active`` gauge (rank −1) so a Prometheus alert
    can fire on it.
    """
    live = dumps is None
    signals = _signals(dump_all() if live else dumps)
    diagnoses = _detect_stall_culprit(signals) + _detect_desync_precursor(signals)
    if live and DEBUG.telemetry:
        registry_for(-1).gauge("health.diagnoses_active").set(len(diagnoses))
    return diagnoses


# ----------------------------------------------------------------------
# health_report(rank)
# ----------------------------------------------------------------------
_HIST_SUMMARY_FIELDS = ("count", "mean", "min", "max", "p50", "p95", "p99")


def health_report(rank: Optional[int] = None) -> dict:
    """One rank's health report.

    Efficiency summaries come from this rank's registry, whose snapshot
    folds in the rank's records not yet read; the diagnosis list is
    cross-rank (all registries live in this process).
    """
    snap = registry_for(rank).snapshot()
    hists = snap.get("histograms", {})
    counters = snap.get("counters", {})

    def summarize(name: str) -> Optional[dict]:
        summary = hists.get(name)
        if not summary or not summary.get("count"):
            return None
        return {k: summary[k] for k in _HIST_SUMMARY_FIELDS if k in summary}

    enabled = DEBUG.telemetry
    return {
        "enabled": enabled,
        "achieved_busbw_gbps": summarize("comm.achieved_busbw_gbps"),
        "chunk_pipeline_utilization": summarize("comm.chunk_pipeline_utilization"),
        "collective_latency_s": summarize("comm.collective_latency_s"),
        "model_efficiency": summarize("comm.model_efficiency"),
        "recv_stall_s": float(counters.get("comm.recv_stall_s", 0.0)),
        "collectives_accounted": int(
            counters.get("health.collectives_accounted", 0)
        ),
        "diagnoses": (
            [d.as_dict() for d in analyze_dumps()] if enabled else []
        ),
    }
