"""Prometheus text exposition over a stdlib HTTP exporter.

:func:`prometheus_text` renders every rank's registry in the Prometheus
text exposition format (version 0.0.4): counters become ``_total``
counters, gauges stay gauges, and histograms render as summaries —
``{quantile="..."}`` sample lines plus ``_sum``/``_count`` — all
labelled with ``rank``.  :func:`start_exporter` serves it from a
daemon-threaded ``http.server`` on ``/metrics``, so a real Prometheus
can scrape a training run with zero dependencies::

    scrape_configs:
      - job_name: repro
        static_configs: [{targets: ["localhost:9095"]}]

Opt-in from the environment: ``REPRO_METRICS_PORT=9095`` starts the
exporter (and enables telemetry) at import time via
:func:`maybe_start_from_env`.
"""

from __future__ import annotations

import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from repro.debug.levels import DEBUG
from repro.telemetry import metrics as _metrics
from repro.utils.logging import logger

#: Every emitted metric name gets this prefix (Prometheus namespace).
NAMESPACE = "repro"

#: Histogram quantiles exposed as summary samples.
QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitize a dotted instrument name into a Prometheus metric name."""
    sanitized = _INVALID_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{NAMESPACE}_{sanitized}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(snapshots: Optional[List[dict]] = None) -> str:
    """Render snapshots (default: every rank's live registry) as
    Prometheus text exposition; one ``rank`` label per sample."""
    if snapshots is None:
        snapshots = _metrics.all_snapshots()
    counters: Dict[str, List[str]] = {}
    gauges: Dict[str, List[str]] = {}
    summaries: Dict[str, List[str]] = {}
    for snap in snapshots:
        rank = snap.get("rank")
        label = f'{{rank="{rank}"}}'
        for name, value in sorted(snap.get("counters", {}).items()):
            base = metric_name(name) + "_total"
            counters.setdefault(base, []).append(f"{base}{label} {_fmt(value)}")
        for name, value in sorted(snap.get("gauges", {}).items()):
            base = metric_name(name)
            gauges.setdefault(base, []).append(f"{base}{label} {_fmt(value)}")
        for name, summary in sorted(snap.get("histograms", {}).items()):
            base = metric_name(name)
            lines = summaries.setdefault(base, [])
            for quantile, key in QUANTILES:
                lines.append(
                    f'{base}{{rank="{rank}",quantile="{quantile}"}} '
                    f"{_fmt(summary.get(key, 0.0))}"
                )
            lines.append(f"{base}_sum{label} {_fmt(summary.get('sum', 0.0))}")
            lines.append(f"{base}_count{label} {_fmt(summary.get('count', 0))}")
    out: List[str] = []
    for base, lines in sorted(counters.items()):
        out.append(f"# TYPE {base} counter")
        out.extend(lines)
    for base, lines in sorted(gauges.items()):
        out.append(f"# TYPE {base} gauge")
        out.extend(lines)
    for base, lines in sorted(summaries.items()):
        out.append(f"# TYPE {base} summary")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else "\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] not in ("/metrics", "/"):
            self.send_error(404, "metrics live at /metrics")
            return
        body = prometheus_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # silence stderr
        logger.debug("metrics exporter: " + format, *args)


class PrometheusExporter:
    """A running ``/metrics`` endpoint (construct via :func:`start_exporter`)."""

    def __init__(self, host: str, port: int):
        self._server = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self._closed = False
        self._close_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"metrics-exporter:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop serving and release the port (idempotent, thread-safe)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=1.0)

    def __repr__(self) -> str:
        return f"<PrometheusExporter {self.url}>"


def start_exporter(port: int = 0, host: str = "127.0.0.1") -> PrometheusExporter:
    """Serve ``/metrics`` on ``host:port`` (``port=0`` = ephemeral)."""
    exporter = PrometheusExporter(host, port)
    logger.info("Prometheus exporter serving %s", exporter.url)
    return exporter


_env_exporter: Optional[PrometheusExporter] = None


def maybe_start_from_env() -> Optional[PrometheusExporter]:
    """Start the exporter when ``REPRO_METRICS_PORT`` is set (idempotent).

    Asking for a scrape endpoint implies wanting metrics, so this also
    enables telemetry recording.
    """
    global _env_exporter
    if _env_exporter is not None:
        return _env_exporter
    raw = os.environ.get("REPRO_METRICS_PORT", "").strip()
    if not raw:
        return None
    try:
        port = int(raw)
    except ValueError:
        logger.warning("REPRO_METRICS_PORT=%r is not a port number; ignored", raw)
        return None
    DEBUG.telemetry = True
    _env_exporter = start_exporter(port=port)
    return _env_exporter


def stop_env_exporter() -> None:
    """Close the ``REPRO_METRICS_PORT`` exporter and forget it, so a
    later :func:`maybe_start_from_env` can start fresh (idempotent; the
    lifecycle tests' teardown hook)."""
    global _env_exporter
    if _env_exporter is not None:
        _env_exporter.close()
        _env_exporter = None
