"""Rule-based anomaly attribution over the fused health signals.

Detectors read the efficiency-accounting metrics, the resilience
counters and incidents, and the cross-rank collective frontier, and emit
:class:`~repro.telemetry.health.diagnosis.Diagnosis` verdicts:

* **persistent_straggler** — one rank's sends stall *multiple* peers:
  the per-source receive-stall counters concentrate on one sending rank
  across ≥ 2 receivers.
* **slow_link** — the same stall dominance, but concentrated on exactly
  one (src → dst) edge: the link, not the rank, is sick (the
  arXiv:1711.00705 approach of ranking links by achieved vs expected
  bandwidth; the cost-model expectation rides along in the evidence as
  ``comm.model_efficiency``).
* **overlap_collapse** — a rank's comm/compute overlap ratio fell to a
  fraction of its own earlier healthy level (paper Fig. 4 regression).
* **retransmit_storm** — transport retransmit/corruption counters grow
  far faster than collectives complete: a lossy or corrupting wire,
  attributed to the receiving rank (and, when the rings retained the
  resilience incidents, to the modal source edge).
* **desync_precursor** — one rank's collective-sequence frontier trails
  the group's leader by many collectives: the drift that ends in the
  hang the hang watch catches, visible while everyone is still
  alive.

Two entry points share the rules: :func:`analyze_snapshots` fuses live
registry snapshots and the record rings (what ``ddp_stats()["health"]``
serves), and :func:`analyze_ticks` replays a
:meth:`~repro.telemetry.observatory.sampler.MetricsSampler.dump_jsonl`
file offline (what ``tools/healthctl.py`` serves).  Both are pure
functions of their inputs with deterministic thresholds, so a seeded
fault plan produces the same diagnoses on every run.

Thresholds are deliberately conservative: the CI chaos gate fails if a
fault-free run produces *any* diagnosis, so every rule requires both an
absolute floor and a dominance ratio before it speaks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.debug.flight_recorder import all_recorders, seq_frontier
from repro.debug.levels import DEBUG
from repro.telemetry.health.diagnosis import (
    DESYNC_PRECURSOR,
    OVERLAP_COLLAPSE,
    PERSISTENT_STRAGGLER,
    RETRANSMIT_STORM,
    SLOW_LINK,
    Diagnosis,
)
from repro.telemetry.metrics import all_snapshots, registry_for

_STALL_FROM = re.compile(r"^comm\.recv_stall_s\.from_rank_(-?\d+)$")

#: Transport counters that count as storm events (receiver-attributed):
#: evidence of *loss* only — a redelivery that found the message in the
#: sender's log, or a checksum failure.  ``transport.retries`` is not
#: one: it also counts every expired wait slice on a merely late peer
#: (nothing sent yet, nothing to redeliver), which on a loaded box
#: reaches storm rates with zero faults.  It rides along as evidence.
_STORM_COUNTERS = ("transport.retransmits", "transport.corrupt_detected")
#: The resilience incidents that name a storm event's source edge.
_STORM_INCIDENTS = ("retransmit", "corrupt_detected")


@dataclass
class Thresholds:
    """Detector knobs; defaults tuned so healthy runs stay silent."""

    #: Minimum total stall (seconds) attributed to one source before the
    #: straggler/slow-link rule may speak.
    stall_floor_s: float = 0.2
    #: Top source's stall must exceed the runner-up by this factor.
    #: Synchronous collectives cascade waits (everyone eventually waits
    #: on the slowest), so perfect concentration never happens; 2x over
    #: the runner-up with the absolute floor already met is decisive.
    stall_dominance: float = 2.0
    #: Receivers that must report the stall for it to be a *rank*
    #: problem; fewer makes it an *edge* problem.
    straggler_min_reporters: int = 2
    #: A receiver counts as a reporter above this share of the top
    #: source's total stall.
    reporter_share: float = 0.15
    #: Minimum storm events (retransmits + corruptions).
    storm_min_events: int = 20
    #: ... and at least this many events per accounted collective.
    storm_events_per_collective: float = 0.5
    #: Overlap-collapse rule: need this many samples, a healthy early
    #: mean, and a late mean at most this fraction of the early one.
    overlap_min_samples: int = 6
    overlap_healthy: float = 0.4
    overlap_collapse_factor: float = 0.5
    #: Desync rule: frontier spread (collectives) before flagging.
    desync_seq_spread: int = 8


@dataclass
class Signals:
    """The fused per-rank inputs every detector reads."""

    ranks: List[int]
    #: stall[dst][src] = receive-wait seconds dst attributed to src.
    stall: Dict[int, Dict[int, float]]
    #: Per-rank storm-event counts (retransmits + corruption).
    storm_events: Dict[int, float]
    #: Per-rank transport counter detail (evidence).
    transport: Dict[int, Dict[str, float]]
    #: Per-rank accounted-collective counts.
    collectives: Dict[int, float]
    #: Per-rank overlap-ratio history, oldest first.
    overlap: Dict[int, List[float]]
    #: Per-group, per-rank highest started collective sequence.
    frontier: Dict[int, Dict[int, int]]
    #: Per-rank mean cost-model efficiency (evidence; may be empty).
    model_efficiency: Dict[int, float]


def _signals_from_snapshots(
    snapshots: Sequence[dict],
    frontier: Optional[Dict[int, Dict[int, int]]] = None,
    overlap_series: Optional[Dict[int, List[float]]] = None,
) -> Signals:
    """Normalize registry-style per-rank snapshots into :class:`Signals`.

    Accepts both live ``MetricsRegistry.snapshot()`` dicts and the
    ``per_rank`` entries of a sampler tick (same shape minus histogram
    sample lists).  Ragged or partial snapshots are tolerated.
    """
    ranks: List[int] = []
    stall: Dict[int, Dict[int, float]] = {}
    storm: Dict[int, float] = {}
    transport: Dict[int, Dict[str, float]] = {}
    collectives: Dict[int, float] = {}
    overlap: Dict[int, List[float]] = dict(overlap_series or {})
    model_eff: Dict[int, float] = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        rank = snap.get("rank")
        if rank is None or rank < 0:
            continue
        ranks.append(rank)
        counters = snap.get("counters", {}) or {}
        for name, value in counters.items():
            match = _STALL_FROM.match(name)
            if match:
                stall.setdefault(rank, {})[int(match.group(1))] = float(value)
        events = sum(float(counters.get(name, 0.0)) for name in _STORM_COUNTERS)
        if events:
            storm[rank] = events
        detail = {
            name: float(counters[name])
            for name in (*_STORM_COUNTERS, "transport.retries",
                         "transport.duplicates_dropped")
            if counters.get(name)
        }
        if detail:
            transport[rank] = detail
        collectives[rank] = float(counters.get("health.collectives_accounted", 0.0))
        hists = snap.get("histograms", {}) or {}
        overlap_hist = hists.get("iteration.overlap_ratio_dist")
        if rank not in overlap and overlap_hist and overlap_hist.get("samples"):
            overlap[rank] = [float(v) for v in overlap_hist["samples"]]
        eff = hists.get("comm.model_efficiency")
        if eff and eff.get("count"):
            model_eff[rank] = float(eff.get("mean", 0.0))
    return Signals(
        ranks=sorted(set(ranks)),
        stall=stall,
        storm_events=storm,
        transport=transport,
        collectives=collectives,
        overlap=overlap,
        frontier=dict(frontier or {}),
        model_efficiency=model_eff,
    )


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------
def _detect_stall_culprit(
    signals: Signals, th: Thresholds, exclude: frozenset = frozenset()
) -> List[Diagnosis]:
    """Straggler vs slow link from the per-source stall attribution.

    ``exclude`` removes retransmit-storm culprits from the matrix on
    both axes: as receivers their waits measure retransmission backoff,
    not peer speed, and as senders they are late *because* of the storm
    — either way the storm diagnosis already owns that time, and
    leaving it in would drown a co-occurring straggler's signal.
    """
    totals: Dict[int, float] = {}
    stall_rows = {
        dst: {src: s for src, s in by_src.items() if src not in exclude}
        for dst, by_src in signals.stall.items()
        if dst not in exclude
    }
    for dst, by_src in stall_rows.items():
        for src, seconds in by_src.items():
            totals[src] = totals.get(src, 0.0) + seconds
    if not totals:
        return []
    top_src = max(totals, key=totals.get)
    top_total = totals[top_src]
    if top_total < th.stall_floor_s:
        return []
    others = sorted((v for s, v in totals.items() if s != top_src), reverse=True)
    runner_up = others[0] if others else 0.0
    if top_total < th.stall_dominance * max(runner_up, 1e-9):
        return []
    reporters = sorted(
        dst
        for dst, by_src in stall_rows.items()
        if by_src.get(top_src, 0.0) >= th.reporter_share * top_total
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
    if len(reporters) >= th.straggler_min_reporters:
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


def _detect_retransmit_storm(
    signals: Signals, th: Thresholds,
    storm_edges: Optional[Dict[int, Dict[int, int]]] = None,
) -> List[Diagnosis]:
    total_events = sum(signals.storm_events.values())
    if total_events < th.storm_min_events:
        return []
    total_collectives = sum(signals.collectives.values())
    culprit = max(signals.storm_events, key=signals.storm_events.get)
    # Rate-gate on the culprit rank itself: its incident count must be a
    # real fraction of the collectives *it* ran, so a long healthy run
    # with a handful of absorbed retries stays silent.
    culprit_collectives = max(1.0, signals.collectives.get(culprit, 0.0))
    if signals.storm_events[culprit] < (
        th.storm_events_per_collective * culprit_collectives
    ):
        return []
    evidence = {
        "total_storm_events": int(total_events),
        "collectives_accounted": int(total_collectives),
        "events_by_rank": {
            rank: int(v) for rank, v in sorted(signals.storm_events.items())
        },
        "transport_counters": {
            rank: detail for rank, detail in sorted(signals.transport.items())
        },
    }
    edge = None
    if storm_edges and storm_edges.get(culprit):
        src = max(storm_edges[culprit], key=storm_edges[culprit].get)
        edge = (src, culprit)
        evidence["incidents_by_source"] = dict(sorted(storm_edges[culprit].items()))
    share = signals.storm_events[culprit] / total_events
    return [
        Diagnosis(
            kind=RETRANSMIT_STORM,
            summary=(
                f"transport absorbed {int(total_events)} retransmit/"
                f"corruption events over {int(total_collectives)} collectives; "
                f"rank {culprit} received {share:.0%} of them"
                + (f" (mostly from rank {edge[0]})" if edge else "")
            ),
            culprit_rank=culprit,
            culprit_edge=edge,
            confidence=min(1.0, 0.5 + share / 2.0),
            evidence=evidence,
        )
    ]


def _detect_overlap_collapse(signals: Signals, th: Thresholds) -> List[Diagnosis]:
    out: List[Diagnosis] = []
    for rank in sorted(signals.overlap):
        values = [v for v in signals.overlap[rank] if v == v]  # drop NaN
        if len(values) < th.overlap_min_samples:
            continue
        half = len(values) // 2
        early = sum(values[:half]) / half
        late = sum(values[half:]) / (len(values) - half)
        if early >= th.overlap_healthy and late <= th.overlap_collapse_factor * early:
            out.append(
                Diagnosis(
                    kind=OVERLAP_COLLAPSE,
                    summary=(
                        f"rank {rank}'s comm/compute overlap fell from "
                        f"{early:.2f} to {late:.2f} — communication is no "
                        f"longer hidden by backward compute"
                    ),
                    culprit_rank=rank,
                    confidence=min(1.0, 1.0 - late / max(early, 1e-9)),
                    evidence={
                        "early_overlap_mean": round(early, 4),
                        "late_overlap_mean": round(late, 4),
                        "samples": len(values),
                    },
                )
            )
    return out


def _detect_desync_precursor(signals: Signals, th: Thresholds) -> List[Diagnosis]:
    out: List[Diagnosis] = []
    for group, per_rank in sorted(signals.frontier.items()):
        if len(per_rank) < 2:
            continue
        leader = max(per_rank, key=per_rank.get)
        laggard = min(per_rank, key=per_rank.get)
        spread = per_rank[leader] - per_rank[laggard]
        if spread < th.desync_seq_spread:
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
                confidence=min(1.0, spread / (4.0 * th.desync_seq_spread) + 0.5),
                evidence={
                    "group": group,
                    "seq_by_rank": dict(sorted(per_rank.items())),
                    "spread": spread,
                },
            )
        )
    return out


def _run_detectors(
    signals: Signals,
    th: Thresholds,
    storm_edges: Optional[Dict[int, Dict[int, int]]] = None,
) -> List[Diagnosis]:
    diagnoses: List[Diagnosis] = []
    storms = _detect_retransmit_storm(signals, th, storm_edges)
    diagnoses.extend(storms)
    # A storm receiver's waits measure retransmission backoff, not peer
    # speed — exclude its stall rows so a co-occurring straggler is
    # still attributable (and a storm isn't double-reported as a link).
    storm_ranks = frozenset(d.culprit_rank for d in storms)
    diagnoses.extend(_detect_stall_culprit(signals, th, exclude=storm_ranks))
    diagnoses.extend(_detect_overlap_collapse(signals, th))
    diagnoses.extend(_detect_desync_precursor(signals, th))
    return diagnoses


# ----------------------------------------------------------------------
# live entry point
# ----------------------------------------------------------------------
def _storm_edges_from_incidents() -> Dict[int, Dict[int, int]]:
    """incidents[dst][src] from the ``retransmit`` / ``corrupt_detected``
    incidents in the rings (recorded on the receiving rank, naming ``src``)."""
    edges: Dict[int, Dict[int, int]] = {}
    for rank, ring in all_recorders().items():
        for incident in ring.incidents():
            src = incident.args.get("src")
            if incident.name in _STORM_INCIDENTS and src is not None:
                by_src = edges.setdefault(rank, {})
                by_src[src] = by_src.get(src, 0) + 1
    return edges


def analyze_snapshots(
    snapshots: Optional[Sequence[dict]] = None,
    thresholds: Optional[Thresholds] = None,
) -> List[Diagnosis]:
    """Run every detector over live (or given) per-rank snapshots.

    With no arguments this is the live health check: all registries are
    snapshotted, the record rings supply the frontier and, from their
    resilience incidents, the storm-edge attribution, and — live only —
    the diagnosis count is published as the ``health.diagnoses_active``
    gauge (rank −1) so a Prometheus alert can fire on it.
    """
    th = thresholds or Thresholds()
    live = snapshots is None
    frontier: Dict[int, Dict[int, int]] = {}
    storm_edges: Optional[Dict[int, Dict[int, int]]] = None
    if live:
        snapshots = all_snapshots()
        frontier = seq_frontier()
        storm_edges = _storm_edges_from_incidents()
    signals = _signals_from_snapshots(snapshots, frontier=frontier)
    diagnoses = _run_detectors(signals, th, storm_edges)
    if live and DEBUG.telemetry:
        registry_for(-1).gauge("health.diagnoses_active").set(len(diagnoses))
    return diagnoses


# ----------------------------------------------------------------------
# offline entry point (sampler JSONL dumps → healthctl)
# ----------------------------------------------------------------------
def analyze_ticks(
    ticks: Sequence[dict], thresholds: Optional[Thresholds] = None
) -> dict:
    """Replay a sampler tick log (``dump_jsonl`` records) offline.

    Counters in ticks are cumulative, so the final tick carries the run
    totals; the overlap-ratio *gauge* is followed across ticks to give
    the collapse detector its history; the desync frontier is
    approximated by each rank's ``health.collectives_accounted`` at the
    final tick (sequence numbers and execution counts advance together,
    so a frozen or trailing count is the same drift signal).
    """
    th = thresholds or Thresholds()
    ticks = [t for t in ticks if isinstance(t, dict)]
    if not ticks:
        return {"ticks": 0, "ranks": [], "diagnoses": []}
    final = ticks[-1].get("per_rank", []) or []

    overlap_series: Dict[int, List[float]] = {}
    for tick in ticks:
        for snap in tick.get("per_rank", []) or []:
            rank = snap.get("rank")
            if rank is None or rank < 0:
                continue
            value = (snap.get("gauges", {}) or {}).get("iteration.overlap_ratio")
            if value is not None:
                series = overlap_series.setdefault(rank, [])
                # Gauges repeat between iterations; keep transitions only
                # so the history reflects iterations, not tick cadence.
                if not series or series[-1] != value:
                    series.append(float(value))

    frontier: Dict[int, Dict[int, int]] = {}
    for snap in final:
        rank = snap.get("rank")
        if rank is None or rank < 0:
            continue
        count = (snap.get("counters", {}) or {}).get("health.collectives_accounted")
        if count:
            frontier.setdefault(0, {})[rank] = int(count)

    signals = _signals_from_snapshots(
        final, frontier=frontier, overlap_series=overlap_series
    )
    diagnoses = _run_detectors(signals, th)
    return {
        "ticks": len(ticks),
        "ranks": signals.ranks,
        "collectives_accounted": int(sum(signals.collectives.values())),
        "storm_events": int(sum(signals.storm_events.values())),
        "diagnoses": [d.as_dict() for d in diagnoses],
    }


def analyze_jsonl(path: str, thresholds: Optional[Thresholds] = None) -> dict:
    """Load a ``MetricsSampler.dump_jsonl`` file and analyze it."""
    ticks: List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                ticks.append(json.loads(line))
    report = analyze_ticks(ticks, thresholds)
    report["path"] = path
    return report


# ----------------------------------------------------------------------
# ddp_stats()["health"]
# ----------------------------------------------------------------------
_HIST_SUMMARY_FIELDS = ("count", "mean", "min", "max", "p50", "p95", "p99")


def health_report(rank: Optional[int] = None, overlap_ratio: float = 0.0) -> dict:
    """The per-rank health section ``ddp_stats`` embeds.

    Efficiency summaries come from this rank's registry, whose snapshot
    folds in the rank's records not yet read; the diagnosis list is
    cross-rank (all registries live in this process).
    ``overlap_ratio`` is the caller's, from the reducer's always-on
    iteration profile, so the field is meaningful even with telemetry
    (and thus the accounting) disabled.
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
        "overlap_ratio": float(overlap_ratio),
        "achieved_busbw_gbps": summarize("comm.achieved_busbw_gbps"),
        "chunk_pipeline_utilization": summarize("comm.chunk_pipeline_utilization"),
        "collective_latency_s": summarize("comm.collective_latency_s"),
        "model_efficiency": summarize("comm.model_efficiency"),
        "recv_stall_s": float(counters.get("comm.recv_stall_s", 0.0)),
        "collectives_accounted": int(
            counters.get("health.collectives_accounted", 0)
        ),
        "diagnoses": (
            [d.as_dict() for d in analyze_snapshots()] if enabled else []
        ),
    }
