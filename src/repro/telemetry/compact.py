"""Compact a run directory's telemetry: many dead sinks → one summary sink.

Long-lived run directories (every worker that attaches leaves one sink)
accumulate per-writer JSONL sinks that are mostly redundant once their
writers exit: the counters are cumulative snapshots, the info-level events
have served their tailing purpose, and only the warnings/errors and the
aggregate numbers retain diagnostic value.

:func:`compact_run_telemetry` folds every quiescent sink into a single
``compacted-<k>.jsonl`` holding, in timestamp order:

* every kept event (``warning`` and above by default) — incident history
  survives compaction byte-meaningfully;
* one **merged metrics record** (last snapshot per folded sink, merged via
  :func:`repro.telemetry.metrics.merge_snapshots`), so
  :func:`repro.telemetry.report.merged_run_metrics` returns the same
  aggregate before and after;
* one ``telemetry.compacted`` summary event recording what was folded
  (sinks, record/span/event counts, per-span-name wall totals), so the
  per-stage breakdown survives in summarized form.

The folded sink files are then unlinked.  Sinks modified within
``min_age`` seconds are presumed live and left untouched; previous
``compacted-*`` sinks fold like any other, so repeated compactions
converge to one file.  Exposed as ``python -m repro.telemetry compact``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.record import _severity
from repro.telemetry.report import telemetry_dir
from repro.utils.serialization import atomic_write_text, jsonl_line, read_jsonl

__all__ = ["CompactTelemetryStats", "compact_run_telemetry"]

COMPACTED_PREFIX = "compacted-"


@dataclass
class CompactTelemetryStats:
    """What one :func:`compact_run_telemetry` call did."""

    sinks_folded: int = 0
    sinks_skipped_live: int = 0
    records_read: int = 0
    events_kept: int = 0
    events_dropped: int = 0
    spans_summarized: int = 0
    output_path: str = ""
    folded_sinks: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.sinks_folded > 0


def _next_output_name(directory: str) -> str:
    generation = 0
    for name in os.listdir(directory):
        if name.startswith(COMPACTED_PREFIX) and name.endswith(".jsonl"):
            stem = name[len(COMPACTED_PREFIX): -len(".jsonl")]
            try:
                generation = max(generation, int(stem) + 1)
            # repro: ignore[REP008] a foreign file that merely shares the
            # prefix must not block naming; it is simply not a generation.
            except ValueError:
                continue
    return f"{COMPACTED_PREFIX}{generation}.jsonl"


def compact_run_telemetry(
    run_dir: str,
    keep_level: str = "warning",
    min_age: float = 60.0,
) -> CompactTelemetryStats:
    """Fold quiescent sinks under ``<run_dir>/telemetry/`` into one file.

    ``keep_level`` is the minimum event severity that survives verbatim;
    ``min_age`` (seconds since last modification) is the liveness guard —
    a sink whose writer may still be appending is never folded.  Folding
    fewer than two sinks is a no-op: there is nothing to consolidate.
    """
    directory = telemetry_dir(run_dir)
    stats = CompactTelemetryStats()
    try:
        names = sorted(
            name for name in os.listdir(directory) if name.endswith(".jsonl")
        )
    except FileNotFoundError:
        return stats
    now = time.time()
    keep_value = _severity(keep_level)
    foldable: List[str] = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            age = now - os.stat(path).st_mtime
        # repro: ignore[REP008] a sink deleted between listdir and stat has
        # nothing left to fold; skipping it is the correct outcome.
        except OSError:
            continue
        if age < min_age:
            stats.sinks_skipped_live += 1
        else:
            foldable.append(name)
    if len(foldable) < 2:
        return stats

    kept_events: List[dict] = []
    last_metrics: Dict[str, dict] = {}
    span_walls: Dict[str, List[float]] = {}
    for name in foldable:
        sink = name[: -len(".jsonl")]
        for record in read_jsonl(os.path.join(directory, name)):
            stats.records_read += 1
            kind = record.get("type")
            if kind == "metrics":
                last_metrics[sink] = record
            elif kind == "span":
                stats.spans_summarized += 1
                span_name = str(record.get("name", "?"))
                wall = float(record.get("wall_s", 0.0) or 0.0)
                span_walls.setdefault(span_name, []).append(wall)
            elif kind == "event":
                if _severity(str(record.get("level", "info"))) >= keep_value:
                    kept_events.append(record)
                else:
                    stats.events_dropped += 1
    stats.events_kept = len(kept_events)
    stats.sinks_folded = len(foldable)
    stats.folded_sinks = [name[: -len(".jsonl")] for name in foldable]

    merged = merge_snapshots(last_metrics.values())
    kept_events.sort(key=lambda r: float(r.get("ts") or 0.0))
    summary = {
        "type": "event",
        "ts": now,
        "name": "telemetry.compacted",
        "level": "info",
        "sinks": stats.folded_sinks,
        "records": stats.records_read,
        "events_kept": stats.events_kept,
        "events_dropped": stats.events_dropped,
        "spans": stats.spans_summarized,
        "span_wall_s": {
            name: {"count": len(walls), "total": sum(walls), "max": max(walls)}
            for name, walls in sorted(span_walls.items())
        },
    }
    metrics_record = {"type": "metrics", "ts": now}
    metrics_record.update(merged)
    lines = [jsonl_line(record) for record in kept_events]
    lines.append(jsonl_line(metrics_record))
    lines.append(jsonl_line(summary))
    output_name = _next_output_name(directory)
    output_path = os.path.join(directory, output_name)
    # Durability before deletion: the compacted sink lands atomically
    # first, then the folded sinks go — a crash in between costs only
    # double-counted *events* (kept verbatim twice), never lost data...
    atomic_write_text(output_path, "".join(lines))
    for name in foldable:
        try:
            os.unlink(os.path.join(directory, name))
        # repro: ignore[REP008] best-effort unlink; a surviving sink is
        # simply folded again by the next compaction.
        except OSError:
            pass
    stats.output_path = output_path
    return stats
