"""The cluster worker daemon: claim → execute → shard-append → complete.

Run one per process/host against a shared run directory::

    python -m repro.cluster worker <run_dir>

The loop is deliberately simple — all coordination lives in the queue
protocol (:mod:`repro.cluster.queue`):

1. load the pickled :class:`~repro.runtime.spec.SweepContext` once (the
   clean de-quantizations, delta patchers and batch plans then memoize per
   process, exactly as in a ``ParallelExecutor`` worker);
2. claim one work item; while executing its group on the same
   :func:`~repro.runtime.executors.execute_group` every other executor uses
   (which is what makes cluster results bit-identical to serial ones), a
   background thread heartbeats the lease so long groups never look
   abandoned;
3. append the group's results to this worker's **own** shard file —
   single-writer, append-only, so no cross-host write races exist — and
   only then mark the item done;
4. opportunistically requeue expired leases of crashed peers.

If this worker is SIGKILLed mid-group, its lease goes stale and the group
is retried elsewhere; if it instead finishes after losing its lease, the
completion rename fails and its shard records are deduplicated by content
key on merge.  Either way the merged results are complete and exact.

A job that *raises* is contained, not fatal: the worker records the failure
(``worker.item_failures`` counter plus a ``worker.item_failed`` event with
the traceback) and nacks the item back to the queue, which retries it with
backoff or dead-letters it once the run's
:class:`~repro.cluster.queue.RetryPolicy` budget is spent — the loop itself
survives to claim the next item.  The :mod:`repro.faults` seams (claim,
execute, publish, complete, heartbeat) are woven through this flow so chaos
schedules can inject exceptions, stalls, SIGKILLs and torn shard writes at
exactly these points.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

from repro import faults, telemetry
from repro.cluster.broker import (
    CONTEXT_FILENAME,
    SHARDS_DIRNAME,
    WORKERS_DIRNAME,
    read_manifest,
)
from repro.cluster.queue import (
    DEFAULT_LEASE_TIMEOUT,
    JobQueue,
    RetryPolicy,
    WorkItem,
)
from repro.runtime.executors import execute_group
from repro.runtime.spec import EvalJob, SweepContext
from repro.runtime.store import job_metadata
from repro.utils.rng import derived_seed, new_rng
from repro.utils.serialization import append_jsonl, atomic_write_text, jsonl_line

__all__ = [
    "WorkerStats",
    "RunHandle",
    "touch_beacon",
    "execute_item",
    "worker_loop",
    "default_worker_id",
]

#: Legacy fault-injection hook, honoured only by the ``repro.cluster
#: worker`` CLI (never by library callers such as the coordinator's
#: in-process fallback): when set to ``N``, the worker *process* SIGKILLs
#: itself immediately after its ``N``-th successful claim — i.e. mid-group,
#: with the lease held and no results written.  Internally this is now one
#: rule of the general :mod:`repro.faults` harness
#: (:func:`repro.faults.crash_after_claim_plan`); new chaos scenarios should
#: ship a full schedule via :data:`repro.faults.FAULTS_ENV` or the manifest
#: instead.
CRASH_AFTER_CLAIM_ENV = "REPRO_CLUSTER_CRASH_AFTER_CLAIM"


def default_worker_id() -> str:
    """A worker id unique across the hosts sharing a run directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one :func:`worker_loop` call did."""

    worker_id: str = ""
    items: int = 0
    cells: int = 0
    requeued: int = 0
    lost_leases: int = 0
    failures: int = 0
    dead_lettered: int = 0
    item_ids: List[str] = field(default_factory=list)


class _Heartbeat:
    """Background lease refresher for the item currently executing."""

    def __init__(self, queue: JobQueue, item_id: str, interval: float):
        self._queue = queue
        self._item_id = item_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            faults.fire("heartbeat", self._item_id)
            skew = faults.clock_skew("heartbeat", self._item_id)
            self._queue.heartbeat(self._item_id, skew=skew or 0.0)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class RunHandle:
    """What :func:`execute_item` needs of the run a worker serves.

    :func:`worker_loop` builds it from the run's manifest (chunk size,
    checksums, lease timeout, retry policy) after unpickling the
    :class:`~repro.runtime.spec.SweepContext` once.
    """

    queue: JobQueue
    context: SweepContext
    shard_path: str
    chunk_size: Optional[int]
    checksum: bool
    heartbeat_interval: float


class _IdleBackoff:
    """Capped exponential idle-poll backoff with deterministic jitter.

    The ``n``-th consecutive empty poll sleeps
    ``min(poll_interval * 2**n, max_poll)`` scaled by a jitter in
    ``[0.5, 1.5)`` drawn from a stream derived from the worker id through
    :mod:`repro.utils.rng`: an idle fleet polls ever more gently, but any
    deferred (backing-off) item is revisited within ``max_poll``.
    """

    def __init__(self, poll_interval: float, max_poll: Optional[float], worker_id: str):
        self.poll_interval = float(poll_interval)
        self.max_poll = (
            max(self.poll_interval, 2.0) if max_poll is None else float(max_poll)
        )
        self._rng = new_rng(derived_seed("worker-idle", worker_id))
        self._polls = 0
        self._since = time.monotonic()

    def reset(self) -> None:
        """Something was claimed: restart the backoff and the idle clock."""
        self._polls = 0
        self._since = time.monotonic()

    def expired(self, max_idle: Optional[float]) -> bool:
        """Whether more than ``max_idle`` seconds passed without a claim."""
        return max_idle is not None and time.monotonic() - self._since > max_idle

    def sleep(self) -> None:
        delay = min(self.poll_interval * 2.0 ** min(self._polls, 16), self.max_poll)
        time.sleep(delay * (0.5 + self._rng.random()))
        self._polls += 1


def _fault_plan(
    manifest: dict, crash_after_claim: Optional[int]
) -> Optional[faults.FaultPlan]:
    """The fault plan a worker runs under, or ``None``.

    An installed plan wins, then :data:`repro.faults.FAULTS_ENV`, then the
    run manifest (``manifest["faults"]``).  The legacy ``crash_after_claim``
    hook appends its SIGKILL-at-claim rule to whatever else is scheduled.
    """
    plan = faults.current() or faults.plan_from_env()
    if plan is None and manifest.get("faults"):
        plan = faults.FaultPlan.from_json(manifest["faults"])
    if crash_after_claim is None:
        return plan
    crash = faults.crash_after_claim_plan(crash_after_claim)
    if plan is None:
        return crash
    return faults.FaultPlan(rules=list(plan.rules) + list(crash.rules), seed=plan.seed)


def touch_beacon(directory: str, worker_id: str) -> None:
    """Refresh ``<directory>/<worker_id>``, the worker's liveness beacon."""
    path = os.path.join(directory, worker_id)
    try:
        os.utime(path)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        # Atomic create: a reader may look at the beacon at any moment, and
        # a torn write would make a live worker look dead.
        atomic_write_text(path, str(os.getpid()) + "\n")


def worker_loop(
    run_dir: str,
    worker_id: Optional[str] = None,
    lease_timeout: Optional[float] = None,
    poll_interval: float = 0.2,
    max_poll: Optional[float] = None,
    max_idle: Optional[float] = None,
    max_items: Optional[int] = None,
    exit_when_drained: bool = True,
    crash_after_claim: Optional[int] = None,
) -> WorkerStats:
    """Run the claim/execute/append/complete loop until there is no work.

    Parameters
    ----------
    worker_id:
        Unique name of this worker (default ``<hostname>-<pid>``); names the
        shard file and the liveness beacon.
    lease_timeout:
        Lease expiry horizon; defaults to the run's manifest value, so every
        participant agrees on what "abandoned" means.
    poll_interval:
        Initial sleep between claim attempts while the queue is empty.
        Consecutive empty polls back off exponentially, with seeded jitter,
        up to ``max_poll``, so an idle fleet doesn't hammer a shared
        filesystem; any claimed item resets the backoff.
    max_poll:
        Idle-sleep ceiling (default: ``max(poll_interval, 2.0)`` seconds).
    max_idle:
        Exit after this many seconds without claiming anything (``None``: no
        idle limit).
    max_items:
        Execute at most this many items (testing hook).
    exit_when_drained:
        Exit as soon as the queue holds no pending or leased items (the
        default — right for one-shot fleets and coordinator-spawned
        daemons).  ``False`` keeps serving across future submissions to the
        same run directory until ``max_idle`` (or termination) — the
        long-lived daemon mode (``repro.cluster worker --serve``).
    crash_after_claim:
        Legacy fault-injection hook: SIGKILL this process right after the
        ``N``-th successful claim (see :data:`CRASH_AFTER_CLAIM_ENV`; the
        CLI wires the environment variable through, library callers must
        opt in explicitly).  General schedules come from :mod:`repro.faults`
        — installed, via :data:`~repro.faults.FAULTS_ENV`, or via the run
        manifest (``manifest["faults"]``), in that precedence order.
    """
    run_dir = os.path.abspath(run_dir)
    worker_id = worker_id or default_worker_id()
    stats = WorkerStats(worker_id=worker_id)
    manifest = read_manifest(run_dir) or {}
    if lease_timeout is None:
        lease_timeout = manifest.get("lease_timeout") or DEFAULT_LEASE_TIMEOUT
    queue = JobQueue(
        run_dir, lease_timeout=float(lease_timeout),
        retry=RetryPolicy.from_manifest(manifest.get("retry")),
    )
    # A run submitted while telemetry was enabled flags its manifest; a
    # worker with no recorder of its own then records into the run dir (one
    # sink per worker, named like its result shard).  A recorder the caller
    # installed wins: the coordinator's in-process fallback keeps recording
    # into its own sink.
    owns_recorder = bool(manifest.get("telemetry")) and not telemetry.enabled()
    if owns_recorder:
        telemetry.configure(run_dir, name=f"worker-{worker_id}")
    caller_plan = faults.current()
    plan = _fault_plan(manifest, crash_after_claim)
    if plan is not None:
        # Run-scoped rules (scope="run") share their firing budget across
        # the whole fleet through slot files under <run_dir>/faults/.
        plan.bind(os.path.join(run_dir, faults.BUDGET_DIRNAME))
    faults.install(plan)
    rec = telemetry.get_recorder()
    try:
        # The part of a daemon's cold start after its imports and queue
        # set-up: the context unpickle.
        with rec.span("worker.startup", worker=worker_id):
            with open(os.path.join(run_dir, CONTEXT_FILENAME), "rb") as handle:
                context = pickle.load(handle)
        chunk = manifest.get("chunk_size")
        run = RunHandle(
            queue=queue,
            context=context,
            shard_path=os.path.join(
                run_dir, SHARDS_DIRNAME, f"worker-{worker_id}.jsonl"
            ),
            chunk_size=int(chunk) if chunk is not None else None,
            checksum=bool(manifest.get("checksums")),
            heartbeat_interval=max(float(lease_timeout) / 4.0, 0.05),
        )
        beacons = os.path.join(run_dir, WORKERS_DIRNAME)
        idle = _IdleBackoff(poll_interval, max_poll, worker_id)
        rec.event("worker.start", worker=worker_id, run_dir=run_dir)
        try:
            while True:
                touch_beacon(beacons, worker_id)
                requeued = len(queue.requeue_expired())
                if requeued:
                    stats.requeued += requeued
                    rec.count("worker.requeued", requeued)
                item = queue.claim(worker_id)
                if item is None:
                    if exit_when_drained and queue.is_drained():
                        return stats
                    if idle.expired(max_idle):
                        return stats
                    idle.sleep()
                    continue
                idle.reset()
                execute_item(run, item, worker_id, stats)
                if max_items is not None and stats.items >= max_items:
                    return stats
        finally:
            rec.event(
                "worker.exit", worker=worker_id, items=stats.items,
                cells=stats.cells, lost_leases=stats.lost_leases,
                failures=stats.failures,
            )
    finally:
        # A library call (the coordinator's in-process fallback, tests)
        # never leaves a chaos schedule armed.
        faults.install(caller_plan)
        if owns_recorder:
            telemetry.disable()  # flushes the final metrics snapshot
        else:
            rec.flush_metrics()


def execute_item(
    run: RunHandle, item: WorkItem, worker_id: str, stats: WorkerStats
) -> None:
    """Execute one claimed item of ``run`` and publish its results durably.

    Exactly one ``worker.item`` span is recorded per *execution* of an item
    — claim through complete, whether or not the completion rename wins —
    so a lost lease (the item re-executed elsewhere) shows up as one span
    per executing worker, never zero and never two from the same worker.
    """
    rec = telemetry.get_recorder()
    queue = run.queue
    shard_path = run.shard_path
    checksum = run.checksum
    jobs = [EvalJob.from_record(record) for record in item.payload["jobs"]]
    jobs_by_key = {job.content_key: job for job in jobs}
    with rec.span(
        "worker.item", worker=worker_id, item=item.item_id, jobs=len(jobs),
        attempt=item.attempt,
    ) as span:
        try:
            faults.fire("claim", item.item_id)
            with _Heartbeat(queue, item.item_id, run.heartbeat_interval):
                faults.fire("execute", item.item_id)
                output = execute_group(run.context, jobs, chunk_size=run.chunk_size)
            records = []
            for key, cell in output:
                job = jobs_by_key.get(key)
                record = {
                    "key": key,
                    "error": float(cell.error),
                    "confidence": float(cell.confidence),
                    "worker": worker_id,
                    "item": item.item_id,
                    # The fence this execution ran under: the merge layer
                    # rejects lines whose fence is stale for the item, so a
                    # zombie re-publish after a lost lease never lands.
                    "fence": item.fence,
                }
                if job is not None:
                    record.update(job_metadata(job))
                records.append(record)
            faults.fire("publish", item.item_id)
            if faults.should_tear("publish", item.item_id):
                _torn_publish(shard_path, records, checksum=checksum)
            if faults.should_fill_disk("publish", item.item_id):
                _disk_full_publish(shard_path, records, checksum=checksum)
            # Durability before visibility: results reach the shard before
            # the item is marked done, so a done item always has its cells
            # on disk.
            append_jsonl(shard_path, records, checksum=checksum)
            faults.fire("complete", item.item_id)
        except Exception as exc:  # noqa: BLE001 - the containment boundary
            # A poisoned job must cost one attempt, not one worker: record
            # the failure, hand the item back to the retry/dead-letter
            # machinery, and keep the loop alive.
            _record_item_failure(queue, item, exc, worker_id, stats, span)
            rec.flush_metrics()
            return
        completed = queue.complete(item.item_id)
        span.note(cells=len(records), completed=completed)
    stats.items += 1
    stats.cells += len(records)
    stats.item_ids.append(item.item_id)
    rec.count("worker.items")
    rec.count("worker.cells", len(records))
    if not completed:
        # The lease expired mid-execution and someone requeued (and possibly
        # re-ran) the item.  Our shard records stay — the merge dedupes.
        stats.lost_leases += 1
        rec.count("worker.lost_leases")
        rec.event(
            "worker.lease_lost", level="warning",
            worker=worker_id, item=item.item_id,
        )
    # Snapshot after every item so a mid-run `status --json` / `report` sees
    # current counters without waiting for the worker to exit.
    rec.flush_metrics()


def _record_item_failure(
    queue: JobQueue,
    item: WorkItem,
    exc: BaseException,
    worker_id: str,
    stats: WorkerStats,
    span,
) -> None:
    """Report one failed execution to telemetry and the queue."""
    rec = telemetry.get_recorder()
    error = {
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    disposition = queue.nack(item, error, worker=worker_id)
    stats.failures += 1
    if disposition == "failed":
        stats.dead_lettered += 1
    span.note(failed=True, exc_type=error["exc_type"], disposition=disposition)
    rec.count("worker.item_failures")
    rec.event(
        "worker.item_failed", level="error",
        worker=worker_id, item=item.item_id, attempt=item.attempt,
        exc_type=error["exc_type"], message=error["message"][:500],
        disposition=disposition,
    )


def _torn_publish(
    shard_path: str, records: List[dict], checksum: bool = False
) -> None:
    """Chaos hook: die mid-append, leaving a truncated final shard line.

    Writes every record but the last as complete lines, then half of the
    last record's line with no trailing newline, fsyncs so the torn bytes
    are durably on disk, and SIGKILLs the process — exactly what a worker
    killed mid-``append_jsonl`` leaves behind.  The merge layer must skip
    (and count) the torn line, and the item — never completed — is retried
    after lease expiry.
    """
    import signal

    lines = [jsonl_line(record, checksum=checksum) for record in records]
    torn = lines[-1][: max(1, len(lines[-1]) // 2)]
    os.makedirs(os.path.dirname(os.path.abspath(shard_path)), exist_ok=True)
    with open(shard_path, "a", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
        handle.write(torn)
        handle.flush()
        os.fsync(handle.fileno())
    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here


def _disk_full_publish(
    shard_path: str, records: List[dict], checksum: bool = False
) -> None:
    """Chaos hook: run out of disk mid-append — torn line, then ``ENOSPC``.

    Unlike :func:`_torn_publish` the worker *survives*: it writes a torn
    prefix of the first record's line (what a filesystem that filled up
    mid-``write`` leaves behind), fsyncs it durable, then raises the
    ``OSError`` the real syscall would have.  The containment boundary
    nacks the item, the retry republishes the full group, and the merge
    layer skips-and-counts the torn residue.
    """
    import errno

    line = jsonl_line(records[0], checksum=checksum)
    os.makedirs(os.path.dirname(os.path.abspath(shard_path)), exist_ok=True)
    with open(shard_path, "a", encoding="utf-8") as handle:
        handle.write(line[: max(1, len(line) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
    raise OSError(errno.ENOSPC, "No space left on device (injected)", shard_path)
