"""The ``Diagnosis`` verdict object the anomaly detectors emit.

A diagnosis is a machine-readable claim: *this* anomaly class, *this*
culprit (rank, bucket, or wire edge), *this* confident, because of
*this* evidence.  It is the contract between the health engine and its
consumers — ``health_report()`` and the ``healthctl`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The diagnosis taxonomy (documented in docs/observability.md).
PERSISTENT_STRAGGLER = "persistent_straggler"
SLOW_LINK = "slow_link"
DESYNC_PRECURSOR = "desync_precursor"

DIAGNOSIS_KINDS = (
    PERSISTENT_STRAGGLER,
    SLOW_LINK,
    DESYNC_PRECURSOR,
)


@dataclass
class Diagnosis:
    """One attributed anomaly.

    Parameters
    ----------
    kind:
        One of :data:`DIAGNOSIS_KINDS`.
    summary:
        One human-readable sentence naming the culprit and the signal.
    culprit_rank:
        The rank held responsible (straggler, laggard).
    culprit_edge:
        The ``(src, dst)`` wire edge held responsible (slow link).
    culprit_bucket:
        The gradient bucket held responsible, when attributable.
    confidence:
        0..1 — how unambiguous the signal was (dominance ratios and
        sample counts feed it; 1.0 = no competing explanation observed).
    evidence:
        The numbers behind the verdict (metric names → values), so a
        consumer can re-check the rule instead of trusting it.
    """

    kind: str
    summary: str
    culprit_rank: Optional[int] = None
    culprit_edge: Optional[Tuple[int, int]] = None
    culprit_bucket: Optional[int] = None
    confidence: float = 0.5
    evidence: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "summary": self.summary,
            "confidence": round(float(self.confidence), 3),
            "evidence": dict(self.evidence),
        }
        if self.culprit_rank is not None:
            out["culprit_rank"] = self.culprit_rank
        if self.culprit_edge is not None:
            out["culprit_edge"] = list(self.culprit_edge)
        if self.culprit_bucket is not None:
            out["culprit_bucket"] = self.culprit_bucket
        return out


def render_diagnoses(diagnoses: List[Diagnosis]) -> str:
    """Plain-text report table (the ``healthctl`` output format)."""
    if not diagnoses:
        return "no anomalies detected\n"
    lines = [f"{len(diagnoses)} anomaly(ies) detected:"]
    for i, d in enumerate(diagnoses, 1):
        lines.append(f"  [{i}] {d.kind} (confidence {d.confidence:.2f})")
        lines.append(f"      {d.summary}")
        for key, value in sorted(d.evidence.items()):
            lines.append(f"      - {key}: {value}")
    return "\n".join(lines) + "\n"
