"""``repro.cluster`` — multi-host distributed sweep execution.

The sweep-execution engine (:mod:`repro.runtime`) made every study an
explicit job graph with location-independent SHA-256 content keys; this
subsystem scales its execution from one process pool to a fleet of worker
processes/hosts that share **only a filesystem**:

* :mod:`repro.cluster.queue` — :class:`JobQueue`: atomically-leased work
  items under ``<run_dir>/queue/`` (claim-by-rename, heartbeats, expiry and
  requeue, so a killed worker's groups are retried elsewhere);
* :mod:`repro.cluster.broker` — :func:`submit_spec` /
  :func:`prepare_run_dir`: shard a :class:`~repro.runtime.spec.SweepSpec`'s
  job groups into work items, publish the pickled context, record the
  manifest;
* :mod:`repro.cluster.worker` — :func:`worker_loop`, the daemon behind
  ``python -m repro.cluster worker <run_dir>``: claim →
  :func:`~repro.runtime.executors.execute_group` on the fused evaluation
  flow → append to a per-worker result shard → complete;
* :mod:`repro.cluster.coordinator` — :class:`ClusterExecutor`, the drop-in
  third executor (``executor="cluster"`` in every sweep driver): submits,
  spawns local daemons when none are attached, streams group results as
  they land, and always terminates (lease recovery + in-process fallback);
* :mod:`repro.cluster.merge` — store tooling: idempotent shard merge into
  the canonical ``results.jsonl`` (content keys dedupe) behind the
  :class:`MergeGuard` integrity gate (fence epochs against zombie writers,
  dead-letter key exclusion, quarantine of rejected records), log
  compaction and run-directory gc;
* :mod:`repro.cluster.integrity` — :func:`verify_run_dir` /
  :func:`repair_run_dir`: the machine-checkable audit of every run-dir
  invariant (leases, fences, checksums, dedupe) and the quarantine-and-
  rewrite path that restores a verify-clean state;
* :mod:`repro.cluster.cli` — the ``submit`` / ``worker`` / ``status`` /
  ``merge`` / ``compact`` / ``gc`` / ``verify`` / ``repair`` commands.

Every worker funnels through the engine's single execution primitive, so
cluster results are **bit-identical** to ``SerialExecutor``'s by
construction — the property ``benchmarks/bench_cluster.py`` asserts before
reporting any speedup.

Importing this module registers the ``"cluster"`` executor with
:func:`repro.runtime.executors.register_executor`.
"""

from repro.cluster.backends import FilesystemQueueBackend, QueueBackend
from repro.cluster.broker import (
    Submission,
    group_item_id,
    prepare_run_dir,
    read_manifest,
    submit_spec,
)
from repro.cluster.coordinator import ClusterExecutor, live_worker_ids, spawn_local_worker
from repro.cluster.failures import FailureReport, ItemFailure, load_failure_report
from repro.cluster.integrity import (
    IntegrityFinding,
    IntegrityReport,
    RepairStats,
    repair_run_dir,
    verify_run_dir,
)
from repro.cluster.merge import (
    QUARANTINE_FILENAME,
    FenceTable,
    MergeGuard,
    ShardTail,
    compact_results,
    discover_shards,
    gc_run_dir,
    merge_records,
    merge_shards,
)
from repro.cluster.queue import (
    DEFAULT_LEASE_TIMEOUT,
    JobQueue,
    RetryPolicy,
    WorkItem,
)
from repro.cluster.worker import WorkerStats, default_worker_id, worker_loop

__all__ = [
    "ClusterExecutor",
    "JobQueue",
    "WorkItem",
    "RetryPolicy",
    "Submission",
    "WorkerStats",
    "FailureReport",
    "ItemFailure",
    "load_failure_report",
    "DEFAULT_LEASE_TIMEOUT",
    "group_item_id",
    "prepare_run_dir",
    "submit_spec",
    "read_manifest",
    "worker_loop",
    "default_worker_id",
    "merge_shards",
    "merge_records",
    "compact_results",
    "gc_run_dir",
    "discover_shards",
    "ShardTail",
    "FenceTable",
    "MergeGuard",
    "QUARANTINE_FILENAME",
    "IntegrityFinding",
    "IntegrityReport",
    "RepairStats",
    "verify_run_dir",
    "repair_run_dir",
    "live_worker_ids",
    "spawn_local_worker",
    "QueueBackend",
    "FilesystemQueueBackend",
]
