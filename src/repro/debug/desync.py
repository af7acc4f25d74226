"""Cross-rank desync diagnosis: fingerprints, diffs, and hang reports.

Two symptom classes from paper §3.2.3 / Fig. 3(a) are diagnosed here:

* **Mismatch** — ranks issued *different* collectives at the same
  sequence number.  :func:`fingerprint` captures everything that must
  agree (op, shape, dtype, nbytes, reduce op / src / root) and
  :func:`render_mismatch` shows the field-level diff, per rank when
  ``REPRO_DEBUG=DETAIL`` published every rank's signature.
* **Desync hang** — some rank stopped issuing collectives, so a peer's
  collective can never complete.  :func:`build_desync_report` merges the
  per-rank flight-recorder snapshots the hang watch gathered through the
  store and names the culprit ranks (never scheduled the stuck
  collective), the laggards (furthest-behind completions), and the
  missing (never responded — crashed or exited).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.debug.flight_recorder import _fmt_record


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype) -> str:
    """``str(dtype)``, remembered: numpy builds the name through a chain
    of ``issubdtype`` calls, 10 µs on the thread issuing every collective."""
    return str(dtype)


def fingerprint(op: str, array=None, **extra) -> dict:
    """The full signature every rank must agree on for one collective."""
    fp = {"op": op, "shape": None, "dtype": None, "nbytes": None}
    if array is not None:
        fp["shape"] = tuple(array.shape)
        fp["dtype"] = _dtype_name(array.dtype)
        fp["nbytes"] = int(array.nbytes)
    fp.update(extra)
    return fp


def describe_fingerprint(fp: Optional[dict]) -> str:
    if not fp:
        return "<none>"
    parts = [f"{key}={fp[key]}" for key in sorted(fp) if key != "op"
             if fp[key] is not None]
    return f"{fp.get('op', '?')}({', '.join(parts)})"


def diff_fingerprints(mine: dict, theirs: dict) -> List[str]:
    """Field-level differences, e.g. ``["shape: (3,) != (4,)"]``."""
    diffs = []
    for key in sorted(set(mine) | set(theirs)):
        a, b = mine.get(key), theirs.get(key)
        if a != b:
            diffs.append(f"{key}: {a} != {b}")
    return diffs


def render_mismatch(
    group_id,
    seq: int,
    rank: int,
    mine: dict,
    leader_rank: int,
    leader: dict,
    peer_signatures: Optional[Dict[int, dict]] = None,
    role: str = "leader",
) -> str:
    """Human-readable cross-rank diff for a ``CollectiveMismatchError``;
    ``role`` names what the reference rank is to the group."""
    lines = [
        f"collective #{seq} mismatch in group {group_id}: ranks disagree on "
        f"what to launch (paper Fig. 3(a) — all ranks must issue collectives "
        f"in the same order with matching type/shape/dtype).",
        f"  rank {rank} issued:        {describe_fingerprint(mine)}",
        f"  {role} rank {leader_rank} issued: {describe_fingerprint(leader)}",
    ]
    diffs = diff_fingerprints(mine, leader)
    if diffs:
        lines.append("  differing fields: " + "; ".join(diffs))
    if peer_signatures:
        lines.append("  per-rank signatures at this sequence:")
        for peer, sig in sorted(peer_signatures.items()):
            marker = " <- differs" if sig != leader else ""
            lines.append(f"    rank {peer}: {describe_fingerprint(sig)}{marker}")
    return "\n".join(lines)


class DesyncReport:
    """The hang watch's verdict on a hung collective."""

    def __init__(
        self,
        group_id,
        detected_by: int,
        stuck: dict,
        timeout: float,
        rank_states: Dict[int, Optional[dict]],
    ):
        self.group_id = group_id
        self.detected_by = detected_by
        self.stuck = stuck  # the detecting rank's in-flight record dict
        self.timeout = timeout
        self.rank_states = rank_states
        self.missing: List[int] = sorted(
            r for r, state in rank_states.items() if state is None
        )
        stuck_seq = stuck.get("seq", 0)
        self.culprits: List[int] = sorted(
            r
            for r, state in rank_states.items()
            if state is None
            or state.get("last_scheduled") is None
            or state["last_scheduled"]["seq"] < stuck_seq
        )
        completed_seqs = {
            r: (state["last_completed"]["seq"]
                if state and state.get("last_completed") else -1)
            for r, state in rank_states.items()
        }
        behind = min(completed_seqs.values()) if completed_seqs else -1
        self.laggards: List[int] = sorted(
            r for r, seq in completed_seqs.items() if seq == behind
        )

    def stuck_description(self) -> str:
        return (
            f"{self.stuck.get('op', '?')}#{self.stuck.get('seq', '?')}"
            f"@pg{self.group_id}"
        )

    def render(self) -> str:
        lines = [
            f"cross-rank desync detected in group {self.group_id} by rank "
            f"{self.detected_by}: collective {self.stuck_description()} did "
            f"not complete within {self.timeout:.1f}s.",
            f"  stuck collective: {_fmt_record(self.stuck)}",
            f"  culprit rank(s) {self.culprits or '<none identified>'} never "
            f"scheduled it; laggard rank(s) {self.laggards} are furthest "
            f"behind.",
        ]
        if self.missing:
            lines.append(
                f"  rank(s) {self.missing} published no state (crashed, "
                f"exited, or running with REPRO_DEBUG=OFF)."
            )
        lines.append("  per-rank state:")
        for rank, state in sorted(self.rank_states.items()):
            if state is None:
                lines.append(f"    rank {rank}: <no response>")
                continue
            last = state.get("last_completed")
            last_desc = (
                f"{last['op']}#{last['seq']}" if last else "<none>"
            )
            inflight = state.get("inflight")
            inflight_desc = (
                f", in flight {inflight['op']}#{inflight['seq']}"
                + (f" [{inflight['context']}]" if inflight.get("context") else "")
                if inflight
                else ""
            )
            status = state.get("status", "running")
            lines.append(
                f"    rank {rank} ({status}): last completed {last_desc}"
                f"{inflight_desc}"
            )
            for blocked in state.get("transport", ()):
                lines.append(
                    f"      transport: blocked {blocked['blocked_s']:.1f}s in "
                    f"recv from rank {blocked['waiting_on']} "
                    f"(tag {blocked['tag']})"
                )
            for record in state.get("tail", ())[-4:]:
                lines.append("      " + _fmt_record(record))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<DesyncReport group={self.group_id} stuck="
            f"{self.stuck_description()} culprits={self.culprits}>"
        )


def build_desync_report(
    group_id,
    detected_by: int,
    stuck: dict,
    timeout: float,
    rank_states: Dict[int, Optional[dict]],
) -> DesyncReport:
    return DesyncReport(group_id, detected_by, stuck, timeout, rank_states)
