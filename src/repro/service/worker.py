"""The service worker: one long-lived daemon serving every tenant fairly.

Where :func:`repro.cluster.worker.worker_loop` drains a *single* run
directory, :func:`service_worker_loop` attaches to a *service* directory
(:mod:`repro.service.registry`) and multiplexes across every runnable
tenant:

1. fold the tenant table; requeue expired leases of every runnable tenant
   (crash recovery is cross-tenant — a worker serving tenant A still
   rescues tenant B's abandoned groups);
2. snapshot per-tenant claimable counts and ask the
   :class:`~repro.service.scheduler.FairShareScheduler` which tenant to
   serve — deficit round-robin over priorities, preferring the tenant whose
   context this worker already has warm, stealing when another would
   starve;
3. claim from the picked tenant's ordinary :class:`JobQueue` and execute
   the item with the *same* claim/execute/append/complete body the cluster
   worker uses (:func:`repro.cluster.worker.execute_item`) — heartbeats,
   fault seams, failure containment and shard-append durability included,
   so every single-run guarantee holds per tenant;
4. when a tenant drains, finalize it: merge its shards into its canonical
   store under an ``O_CREAT|O_EXCL`` merge lock (exactly one finalizer per
   tenant fleet-wide) and fold its terminal state (``done``, or ``failed``
   when dead-lettered items remain) into the registry.

The per-run plumbing is the cluster worker's too: one
:class:`~repro.cluster.worker.RunHandle` per runnable tenant (dropped as
soon as the tenant leaves the runnable set, so a resident worker holds only
live tenants' contexts), one :class:`~repro.cluster.worker.WorkerSession`
owning the recorder and arming each tenant's fault schedule only while that
tenant's pick is served, the shared beacon and idle backoff.

Per-pick telemetry: a ``service.dispatch`` span (tenant, reason, item) and
the ``service.locality_hits`` / ``service.locality_misses`` /
``service.steals`` counters that the fair-share tests assert against.  The
``dispatch`` and ``steal`` fault seams fire here, so chaos schedules can
poison the multi-tenant path as precisely as the single-run one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import faults, telemetry
from repro.cluster.merge import MergeStats, merge_shards
from repro.cluster.worker import (
    IdleBackoff,
    RunHandle,
    WorkerSession,
    WorkerStats,
    default_worker_id,
    execute_item,
    touch_beacon,
)
from repro.service.registry import ServiceRegistry
from repro.service.scheduler import FairShareScheduler

__all__ = ["ServiceWorkerStats", "service_worker_loop", "MERGE_LOCK_FILENAME"]

#: Per-tenant finalization lock; exactly one worker merges a drained tenant.
MERGE_LOCK_FILENAME = "merge.lock"

#: A merge lock older than this is a dead finalizer's debris and is broken.
STALE_LOCK_S = 120.0


@dataclass
class ServiceWorkerStats:
    """What one :func:`service_worker_loop` call did, across all tenants."""

    worker_id: str = ""
    items: int = 0
    cells: int = 0
    failures: int = 0
    dead_lettered: int = 0
    requeued: int = 0
    lost_leases: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    steals: int = 0
    context_loads: int = 0
    finalized: List[str] = field(default_factory=list)
    per_tenant: Dict[str, WorkerStats] = field(default_factory=dict)

    def tenant_stats(self, tenant_id: str, worker_id: str) -> WorkerStats:
        if tenant_id not in self.per_tenant:
            self.per_tenant[tenant_id] = WorkerStats(worker_id=worker_id)
        return self.per_tenant[tenant_id]

    def fold(self) -> None:
        """Roll the per-tenant counters up into the service-level ones."""
        self.items = sum(s.items for s in self.per_tenant.values())
        self.cells = sum(s.cells for s in self.per_tenant.values())
        self.failures = sum(s.failures for s in self.per_tenant.values())
        self.dead_lettered = sum(s.dead_lettered for s in self.per_tenant.values())
        self.lost_leases = sum(s.lost_leases for s in self.per_tenant.values())


def _finalize_tenant(
    registry: ServiceRegistry,
    tenant_id: str,
    run: RunHandle,
    stats: ServiceWorkerStats,
) -> bool:
    """Merge a drained tenant's shards and fold its terminal state.

    Guarded by an ``O_CREAT|O_EXCL`` lock file in the tenant's run dir so
    exactly one worker finalizes; the merge itself is idempotent (content
    keys dedupe), so a crashed finalizer costs nothing but a stale lock,
    which the next worker breaks after :data:`STALE_LOCK_S`.
    """
    lock_path = os.path.join(run.run_dir, MERGE_LOCK_FILENAME)
    try:
        lock_age = time.time() - os.stat(lock_path).st_mtime
        if lock_age > STALE_LOCK_S:
            os.unlink(lock_path)
    # repro: ignore[REP008] no lock (or a racing breaker won) — either way
    # the O_EXCL acquisition below decides who finalizes.
    except OSError:
        pass
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False  # another worker is finalizing
    rec = telemetry.get_recorder()
    try:
        os.write(fd, f"{stats.worker_id}\n".encode())
        os.close(fd)
        merge_stats: MergeStats = merge_shards(run.run_dir)
        failed = run.queue.failed_ids()
        state = "failed" if failed else "done"
        registry.set_state(tenant_id, state, worker=stats.worker_id)
        stats.finalized.append(tenant_id)
        rec.count("service.finalized")
        rec.event(
            "service.tenant_finalized",
            level="warning" if failed else "info",
            tenant=tenant_id, state=state, merged=merge_stats.merged,
            duplicates=merge_stats.duplicates, failed_items=len(failed),
        )
        return True
    finally:
        try:
            os.unlink(lock_path)
        # repro: ignore[REP008] best-effort release; a leaked lock is broken
        # as stale by the next finalizer.
        except OSError:
            pass


def service_worker_loop(
    service_dir: str,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    max_poll: Optional[float] = None,
    max_idle: Optional[float] = None,
    max_items: Optional[int] = None,
    exit_when_drained: bool = True,
    seed: int = 0,
    scheduler: Optional[FairShareScheduler] = None,
) -> ServiceWorkerStats:
    """Serve every runnable tenant of ``service_dir`` until there is no work.

    Parameters
    ----------
    worker_id:
        Unique name of this worker (default ``<hostname>-<pid>``); names the
        per-tenant shard files and both beacon levels.
    poll_interval / max_poll:
        Idle-poll backoff, exactly as in the single-run worker loop
        (capped exponential with deterministic jitter).
    max_idle:
        Exit after this many seconds without claiming anything.
    max_items:
        Execute at most this many items across all tenants (testing hook).
    exit_when_drained:
        Exit once no runnable tenant has pending or leased work (the
        default).  ``False`` keeps serving future submissions until
        ``max_idle`` — the resident daemon mode (``--serve``).
    seed:
        Fair-share tie-break seed: workers given distinct seeds spread
        across tenants instead of herding, while a fixed seed makes a
        single worker's dispatch order fully deterministic.
    scheduler:
        An explicit :class:`FairShareScheduler` (testing hook; default one
        is built from ``seed``).
    """
    registry = ServiceRegistry(service_dir)
    worker_id = worker_id or default_worker_id()
    scheduler = scheduler or FairShareScheduler(seed=seed)
    stats = ServiceWorkerStats(worker_id=worker_id)
    runs: Dict[str, RunHandle] = {}
    warm_tenant: Optional[str] = None
    idle = IdleBackoff(poll_interval, max_poll, "service-idle", worker_id)
    # A tenant submitted with telemetry asks service workers without a
    # recorder to record into the *service* directory (one sink per worker).
    with WorkerSession(worker_id, registry.service_dir) as session:
        rec = telemetry.get_recorder()
        rec.event("service.worker_start", worker=worker_id, service_dir=service_dir)
        try:
            while True:
                touch_beacon(registry.workers_dir(), worker_id)
                runnable = registry.runnable()
                # A finalized, paused, done or failed tenant's handle (and
                # with it its unpickled context) goes; a resubmission opens
                # a fresh one.  Single-threaded: never mid-item.
                for tenant_id in [t for t in runs if t not in runnable]:
                    del runs[tenant_id]
                if warm_tenant not in runs:
                    warm_tenant = None
                outstanding: Dict[str, int] = {}
                priorities: Dict[str, float] = {}
                drained_now: List[str] = []
                for tenant_id, tenant in sorted(runnable.items()):
                    run = runs.get(tenant_id)
                    if run is None:
                        run_dir = registry.tenant_run_dir(tenant_id)
                        if not os.path.isdir(run_dir):
                            continue  # registered but never prepared; skip
                        run = runs[tenant_id] = session.open(run_dir)
                        rec = telemetry.get_recorder()
                    requeued = len(run.queue.requeue_expired())
                    if requeued:
                        stats.requeued += requeued
                        rec.count("service.requeued", requeued)
                    counts = run.queue.counts()
                    outstanding[tenant_id] = counts["pending"]
                    priorities[tenant_id] = tenant.priority
                    if counts["pending"] == 0 and counts["leased"] == 0:
                        drained_now.append(tenant_id)

                for tenant_id in drained_now:
                    _finalize_tenant(registry, tenant_id, runs[tenant_id], stats)

                pick = scheduler.pick(outstanding, priorities, warm=warm_tenant)
                if pick is None:
                    if exit_when_drained or idle.expired(max_idle):
                        return stats
                    idle.sleep()
                    continue

                run = runs[pick.tenant]
                with session.armed(run), rec.span(
                    "service.dispatch",
                    worker=worker_id, tenant=pick.tenant, reason=pick.reason,
                ) as span:
                    try:
                        faults.fire("dispatch", pick.tenant)
                        if pick.reason == "steal":
                            stats.steals += 1
                            rec.count("service.steals")
                            faults.fire("steal", pick.tenant)
                    except Exception as exc:  # noqa: BLE001 - containment boundary
                        # A poisoned dispatch costs one pick, not the worker:
                        # nothing is claimed yet, so hand back the credit
                        # and take the next round.
                        scheduler.refund(pick.tenant)
                        span.note(failed=True, exc_type=type(exc).__name__)
                        rec.count("service.dispatch_failures")
                        rec.event(
                            "service.dispatch_failed", level="error",
                            worker=worker_id, tenant=pick.tenant,
                            exc_type=type(exc).__name__, message=str(exc)[:500],
                        )
                        continue
                    item = run.queue.claim(worker_id)
                    span.note(claimed=item is not None)
                    if item is None:
                        # The snapshot went stale (a peer drained the tenant,
                        # or every pending item is backing off); hand the
                        # credit back and take the idle path.
                        scheduler.refund(pick.tenant)
                        rec.count("service.empty_claims")
                        if idle.expired(max_idle):
                            return stats
                        idle.sleep()
                        continue
                    idle.reset()
                    if pick.tenant == warm_tenant and run.warm:
                        stats.locality_hits += 1
                        rec.count("service.locality_hits")
                    else:
                        stats.locality_misses += 1
                        rec.count("service.locality_misses")
                    if not run.warm:
                        stats.context_loads += 1
                        rec.count("service.context_loads")
                    warm_tenant = pick.tenant
                    if runnable[pick.tenant].state == "queued":
                        registry.set_state(pick.tenant, "active", worker=worker_id)
                    tenant_stats = stats.tenant_stats(pick.tenant, worker_id)
                    execute_item(run, item, worker_id, tenant_stats)
                    span.note(items=tenant_stats.items)
                stats.fold()
                if run.queue.is_drained():
                    _finalize_tenant(registry, pick.tenant, run, stats)
                if max_items is not None and stats.items >= max_items:
                    return stats
        finally:
            stats.fold()
            rec.event(
                "service.worker_exit",
                worker=worker_id, items=stats.items, cells=stats.cells,
                locality_hits=stats.locality_hits, steals=stats.steals,
                finalized=len(stats.finalized),
            )
