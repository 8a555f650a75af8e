"""The service read path: status snapshots and per-tenant result reports.

Everything here is *derived* state — folded from the tenant event log, the
per-tenant queues and the canonical merged stores — so status and reports
work on any service directory at any moment, with or without telemetry,
workers attached or not.

:func:`service_status` is the machine-readable snapshot behind
``repro.service status`` (and its ``--json``); :func:`tenant_report_data`
/ :func:`tenant_tables` render each tenant's merged results the way the
paper's figures slice them — mean robust error (RErr) against the
bit-error rate, per model × error source — from nothing but the tenant's
``results.jsonl``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.merge import QUARANTINE_FILENAME
from repro.cluster.queue import JobQueue
from repro.service.registry import ServiceRegistry
from repro.utils.serialization import read_jsonl
from repro.utils.tables import Table

__all__ = [
    "live_service_workers",
    "service_status",
    "tenant_report_data",
    "tenant_tables",
    "service_summary_table",
]


def live_service_workers(service_dir: str, ttl: float = 60.0) -> List[str]:
    """Service-level worker ids whose beacon is fresher than ``ttl`` seconds."""
    workers_dir = ServiceRegistry(service_dir).workers_dir()
    try:
        names = os.listdir(workers_dir)
    except FileNotFoundError:
        return []
    now = time.time()
    alive = []
    for name in names:
        try:
            mtime = os.stat(os.path.join(workers_dir, name)).st_mtime
        # repro: ignore[REP008] a beacon deleted between listdir and stat
        # belongs to a worker that exited; not-alive is the right answer.
        except OSError:
            continue
        if now - mtime <= ttl:
            alive.append(name)
    return sorted(alive)


def service_status(service_dir: str, worker_ttl: float = 60.0) -> Dict:
    """One machine-readable snapshot of a whole service directory.

    Per tenant: the folded registry facts (state, priority), the live queue
    counts, and store progress against the manifest's expected keys — the
    multi-tenant analogue of :func:`repro.cluster.cli.run_status`, cheap
    enough to poll.
    """
    registry = ServiceRegistry(service_dir)
    tenants = {}
    for tenant_id, tenant in sorted(registry.tenants().items()):
        run_dir = registry.tenant_run_dir(tenant_id)
        entry: Dict[str, object] = {
            "state": tenant.state,
            "priority": tenant.priority,
            "expected": tenant.expected,
        }
        if os.path.isdir(run_dir):
            queue = JobQueue(run_dir)
            counts = queue.counts()
            manifest = registry.tenant_manifest(tenant_id)
            expected = manifest.get("expected_keys") or []
            stored_keys = {
                record.get("key")
                for record in read_jsonl(os.path.join(run_dir, "results.jsonl"))
                if isinstance(record.get("key"), str)
            }
            stored = (
                sum(1 for key in expected if key in stored_keys)
                if expected
                else len(stored_keys)
            )
            entry.update(
                queue=counts,
                stored=stored,
                expected=len(expected) or tenant.expected,
                complete=bool(expected) and stored == len(expected),
                failed_items=queue.failed_ids(),
                quarantined=len(
                    read_jsonl(os.path.join(run_dir, QUARANTINE_FILENAME))
                ),
            )
        else:
            entry.update(queue=None, stored=0, complete=False, failed_items=[])
        tenants[tenant_id] = entry
    return {
        "service_dir": registry.service_dir,
        "tenants": tenants,
        "workers": live_service_workers(service_dir, ttl=worker_ttl),
    }


def _store_rows(run_dir: str) -> List[dict]:
    """Canonical-store records that look like result cells."""
    rows = []
    for record in read_jsonl(os.path.join(run_dir, "results.jsonl")):
        if not isinstance(record.get("key"), str):
            continue
        try:
            float(record["error"])
        # repro: ignore[REP008] non-cell records (fences, metadata) share
        # the store; filtering them out silently is this reader's contract.
        except (KeyError, TypeError, ValueError):
            continue
        rows.append(record)
    return rows


def tenant_report_data(
    service_dir: str, tenant_ids: Optional[List[str]] = None
) -> Dict[str, Dict]:
    """Per-tenant report payload (the ``report --json`` body).

    For each tenant, the merged store is grouped the way the paper's
    robustness figures slice results — ``(kind, model, source)`` series
    over the bit-error ``rate`` — with per-group cell counts, mean/min/max
    robust error and mean confidence.  Cells without sweep metadata (hand-
    written stores) fall into a single ``"?"`` group rather than vanishing.
    """
    registry = ServiceRegistry(service_dir)
    tenants = registry.tenants()
    if tenant_ids:
        unknown = sorted(set(tenant_ids) - set(tenants))
        if unknown:
            raise KeyError(f"unknown tenant(s): {', '.join(unknown)}")
        tenants = {t: tenants[t] for t in tenant_ids}
    report: Dict[str, Dict] = {}
    for tenant_id, tenant in sorted(tenants.items()):
        rows = _store_rows(registry.tenant_run_dir(tenant_id))
        groups: Dict[Tuple, List[dict]] = {}
        for record in rows:
            group_key = (
                str(record.get("kind", "?")),
                str(record.get("model", "?")),
                str(record.get("source", "?")),
                record.get("rate"),
            )
            groups.setdefault(group_key, []).append(record)
        series = []
        for (kind, model, source, rate), cells in sorted(
            groups.items(), key=lambda kv: tuple(str(part) for part in kv[0])
        ):
            errors = [float(c["error"]) for c in cells]
            confidences = [float(c.get("confidence", 0.0)) for c in cells]
            series.append(
                {
                    "kind": kind,
                    "model": model,
                    "source": source,
                    "rate": rate,
                    "cells": len(cells),
                    "mean_error": sum(errors) / len(errors),
                    "min_error": min(errors),
                    "max_error": max(errors),
                    "mean_confidence": sum(confidences) / len(confidences),
                }
            )
        report[tenant_id] = {
            "state": tenant.state,
            "priority": tenant.priority,
            "cells": len(rows),
            "expected": tenant.expected,
            "series": series,
        }
    return report


def tenant_tables(report: Dict[str, Dict]) -> List[Table]:
    """Render :func:`tenant_report_data` output as one table per tenant."""
    tables = []
    for tenant_id, entry in sorted(report.items()):
        table = Table(
            title=(
                f"tenant {tenant_id} [{entry['state']}] — RErr vs rate "
                f"({entry['cells']} cell(s))"
            ),
            headers=[
                "kind", "model", "source", "rate", "cells",
                "mean RErr", "min", "max", "mean conf",
            ],
            float_digits=4,
        )
        for series in entry["series"]:
            table.add_row(
                series["kind"], series["model"], series["source"],
                series["rate"], series["cells"], series["mean_error"],
                series["min_error"], series["max_error"],
                series["mean_confidence"],
            )
        tables.append(table)
    return tables


def service_summary_table(status: Dict) -> Table:
    """The one-line-per-tenant overview table of ``repro.service status``."""
    table = Table(
        title=f"service {status['service_dir']}",
        headers=[
            "tenant", "state", "prio", "pending", "leased", "done",
            "failed", "stored", "expected",
        ],
    )
    for tenant_id, entry in sorted(status["tenants"].items()):
        counts = entry.get("queue") or {}
        table.add_row(
            tenant_id, entry["state"], entry["priority"],
            counts.get("pending", "-"), counts.get("leased", "-"),
            counts.get("done", "-"), counts.get("failed", "-"),
            entry.get("stored", 0), entry.get("expected", 0),
        )
    return table
