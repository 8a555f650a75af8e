"""The cluster coordinator: submit a sweep, babysit workers, stream results.

:class:`ClusterExecutor` is the drop-in third executor beside
:class:`~repro.runtime.executors.SerialExecutor` and
:class:`~repro.runtime.executors.ParallelExecutor` — same
``run(context, groups)`` contract, so every sweep driver gains multi-host
execution through ``executor="cluster"`` (or an explicit instance) with no
other change.  ``run``:

1. publishes the context and job groups to a run directory (a fresh
   temporary one by default; pass ``run_dir=`` to make the run resumable
   and joinable by workers on other hosts), skipping groups the
   directory's canonical store already answers;
2. forks local worker daemons, each running the ``repro.cluster worker``
   command in the child (:func:`spawn_local_worker`), unless live workers
   are already attached to the directory or ``spawn_workers=False``; each
   daemon sets OpenBLAS to an equal share of the host's BLAS threads
   (:func:`blas_thread_env`);
3. polls: incrementally merges worker shards into the canonical store
   (idempotent, content keys dedupe), requeues expired leases so crashed
   workers' groups are retried, restarts dead local daemons within a
   budget, and yields each group's results as soon as its cells are all
   stored — the same streaming contract the other executors honour;
4. if every avenue of delegation is exhausted (daemons kept dying, or no
   worker showed up for ``stall_timeout`` seconds), finishes the remaining
   items **in-process** through the very same queue protocol, so a sweep
   handed to the cluster executor always completes.

Workers run :func:`repro.runtime.executors.execute_group` on the shipped
context — the engine's single execution primitive — so cluster results are
bit-identical to ``SerialExecutor``'s by construction.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults as faults_module
from repro import telemetry
from repro.cluster.broker import (
    WORKERS_DIRNAME,
    group_item_id,
    prepare_run_dir,
)
from repro.cluster.failures import FailureReport
from repro.cluster.merge import (
    MergeGuard,
    ShardTail,
    discover_shards,
    quarantine_entry,
)
from repro.cluster.queue import DEFAULT_LEASE_TIMEOUT, JobQueue, RetryPolicy
from repro.nn.blas import BLAS_THREAD_VARS, blas_share, set_blas_threads
from repro.runtime.executors import GroupOutput, register_executor
from repro.runtime.spec import EvalJob, SweepContext
from repro.runtime.store import ResultStore

__all__ = [
    "BLAS_THREAD_VARS",
    "ClusterExecutor",
    "DaemonHandle",
    "blas_thread_env",
    "live_worker_ids",
    "spawn_local_worker",
]


def live_worker_ids(run_dir: str, ttl: float) -> List[str]:
    """Workers whose liveness beacon is fresher than ``ttl`` seconds."""
    workers_dir = os.path.join(run_dir, WORKERS_DIRNAME)
    try:
        names = os.listdir(workers_dir)
    except FileNotFoundError:
        return []
    now = time.time()
    live = []
    for name in names:
        if name.endswith(".log"):
            continue  # daemon stdout logs share the directory, not beacons
        try:
            if now - os.stat(os.path.join(workers_dir, name)).st_mtime <= ttl:
                live.append(name)
        # repro: ignore[REP008] beacon removed between listdir and stat (gc
        # or a clean worker exit); that worker just isn't live.
        except OSError:
            continue
    return sorted(live)


def blas_thread_env(count: int) -> Dict[str, str]:
    """The thread environment for ``count`` local daemons sharing this host.

    Each daemon would otherwise run a BLAS pool as wide as the host, so
    ``count`` of them oversubscribe the cores.  Instead every variable in
    :data:`BLAS_THREAD_VARS` is set to the daemons' share of the CPUs (at
    least 1, :func:`repro.nn.blas.blas_share`), and each forked daemon
    applies the share to the OpenBLAS it inherited through
    :func:`repro.nn.blas.set_blas_threads`.  The share also sets each
    daemon's shard count: eval forwards split every batch into as many
    shards as OpenBLAS has threads (see :mod:`repro.nn.parallel`), so
    daemons at one thread run unsharded.  If this process's environment
    already sets any of the variables, the user's choice wins: nothing is
    returned and the daemons inherit it.
    """
    share = blas_share(count)
    return {} if share is None else {name: str(share) for name in BLAS_THREAD_VARS}


class DaemonHandle:
    """A forked daemon, behind the part of ``subprocess.Popen`` callers use.

    ``returncode`` is ``None`` while the daemon runs, then its exit code, or
    ``-signal`` when a signal killed it.  As with ``Popen``, a daemon that
    cannot be waited for (``ECHILD``: someone else reaped it) counts as
    exited with code 0.
    """

    def __init__(self, pid: int, args: List[str]):
        self.pid = pid
        self.args = args
        self.returncode: Optional[int] = None

    def _reap(self, options: int) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, options)
            except ChildProcessError:
                self.returncode = 0
            else:
                if pid == self.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> Optional[int]:
        return self._reap(os.WNOHANG)

    def wait(self, timeout: Optional[float] = None) -> int:
        if timeout is None:
            return self._reap(0)
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(self.args, timeout)
            delay = min(delay * 2, remaining, 0.05)
            time.sleep(delay)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                self.poll()  # it exited since the last poll: reap it

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _run_daemon(log_fd: int, argv: List[str], extra_env: Optional[Dict[str, str]]) -> int:
    """The forked child's work: become a fresh worker daemon, run ``argv``."""
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    # New stream objects on the log: the inherited ones may be a test
    # harness's capture files, and their locks may be held by a thread the
    # child does not have.
    sys.stdout = open(1, "a", buffering=1, closefd=False)
    sys.stderr = open(2, "a", buffering=1, closefd=False, errors="backslashreplace")
    try:
        os.environ.update(extra_env or {})
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        # The environment and the manifest schedule the daemon's faults.
        faults_module.install(None)
        # OpenBLAS read its variables when the parent loaded it.
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
        if threads.isdigit():
            set_blas_threads(int(threads))
        from repro.cluster import cli

        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.flush()


def spawn_local_worker(
    run_dir: str,
    worker_id: str,
    poll_interval: float = 0.05,
    extra_env: Optional[Dict[str, str]] = None,
) -> DaemonHandle:
    """Fork one local worker daemon against ``run_dir``.

    The child runs ``python -m repro.cluster worker <run_dir> --id
    <worker_id> --poll <poll_interval>`` in-process, with ``extra_env``
    added to its environment, and logs to ``<run_dir>/workers/<worker_id>.log``.
    It starts as an exec'd daemon would: stdout and stderr go to the log,
    the default SIGTERM and SIGINT handlers are back, no fault plan and no
    telemetry recorder of this process is installed, and OpenBLAS runs at
    the environment's ``OPENBLAS_NUM_THREADS``.  Forking skips the daemon's
    interpreter start and imports.  The child never returns: it exits with
    the command's code, or 1 (the traceback in its log) on any exception.
    Raises ``OSError`` when the fork is refused or unavailable.
    """
    if not hasattr(os, "fork"):
        raise OSError("os.fork is not available on this platform")
    argv = ["worker", run_dir, "--id", worker_id, "--poll", str(poll_interval)]
    log_dir = os.path.join(run_dir, WORKERS_DIRNAME)
    os.makedirs(log_dir, exist_ok=True)
    log_fd = os.open(
        os.path.join(log_dir, f"{worker_id}.log"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()  # else the child would inherit the buffered text
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a multi-threaded process may
            # deadlock the child.  This child takes none of the locks those
            # threads may hold: OpenBLAS parks its pool around fork(), the
            # import lock is held across it, the BLAS pin and telemetry reset
            # theirs after it, and the child writes through new stream
            # objects.  Other threads (idle shard pools) are not used.
            warnings.filterwarnings(
                "ignore",
                message=r".*is multi-threaded, use of fork\(\) may lead to deadlocks",
                category=DeprecationWarning,
            )
            pid = os.fork()
        if pid == 0:  # the daemon: never return into the caller's stack
            code = 1
            try:
                code = _run_daemon(log_fd, argv, extra_env)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code if isinstance(code, int) else 1)
    finally:
        os.close(log_fd)
    return DaemonHandle(pid, argv)


class ClusterExecutor:
    """Execute job groups across worker daemons sharing a filesystem.

    Parameters
    ----------
    run_dir:
        Shared run directory.  ``None`` (the default) uses a fresh temporary
        directory that is removed after the run; pass a path to get a
        resumable run that external workers (other processes or hosts
        mounting the same filesystem) can join with
        ``python -m repro.cluster worker <run_dir>``.
    max_workers:
        Local daemons to spawn when none are attached (default: host CPU
        count, the :class:`ParallelExecutor` convention); never more than
        there are work items.
    lease_timeout:
        Seconds without a heartbeat before a claimed item is considered
        abandoned and retried elsewhere.
    poll_interval:
        Coordinator poll cadence (shard merging, lease expiry, liveness).
    spawn_workers:
        ``False`` delegates exclusively to externally-started workers (the
        coordinator still merges, requeues and — after ``stall_timeout``
        with no live worker — completes in-process rather than hanging).
    chunk_size:
        Forwarded to every worker's :func:`execute_group` (see the serial
        executor; results are identical for every value).
    stall_timeout:
        Seconds without progress or live workers before the coordinator
        falls back to in-process execution (``None``: ``2 * lease_timeout``).
    retry:
        The run's :class:`~repro.cluster.queue.RetryPolicy` (attempt budget
        and backoff); recorded in the manifest so spawned and external
        workers enforce the same budget.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` chaos schedule, propagated
        to every worker through the manifest (the chaos tests' hook).
    checksums:
        Per-line integrity footers on every shard and canonical-store
        append, fleet-wide via the manifest (default on; see
        :mod:`repro.utils.serialization`).  Disable only to produce
        byte-identical legacy logs.

    A run that dead-letters items terminates with **partial results**: the
    failed groups are never yielded, and :attr:`failure_report` holds a
    :class:`~repro.cluster.failures.FailureReport` naming each dead-lettered
    item, its failure record and the content keys it cost.  Runs with no
    failures leave :attr:`failure_report` as ``None``.
    """

    def __init__(
        self,
        run_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = 0.05,
        spawn_workers: bool = True,
        chunk_size: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[faults_module.FaultPlan] = None,
        checksums: bool = True,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.run_dir = run_dir
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        self.spawn_workers = spawn_workers
        self.chunk_size = chunk_size
        self.stall_timeout = (
            2.0 * self.lease_timeout if stall_timeout is None else float(stall_timeout)
        )
        self.retry = retry
        self.fault_plan = fault_plan
        self.checksums = bool(checksums)
        #: The last run's dead-letter report (``None``: nothing failed).
        self.failure_report: Optional[FailureReport] = None

    @property
    def results_path(self) -> Optional[str]:
        """The canonical results file this executor persists to (or ``None``).

        :func:`repro.runtime.engine.run_sweep` consults this so that passing
        ``store=<same run_dir>`` alongside this executor does not append
        every cell a second time — the coordinator's shard merge is already
        writing the canonical log.
        """
        if self.run_dir is None:
            return None
        from repro.runtime.store import RESULTS_FILENAME

        return os.path.join(os.path.abspath(self.run_dir), RESULTS_FILENAME)

    # -- the executor contract ------------------------------------------------

    def run(
        self, context: SweepContext, groups: Sequence[Sequence[EvalJob]]
    ) -> Iterator[GroupOutput]:
        """Yield each group's results as its cells reach the canonical store."""
        return self._run(context, [list(group) for group in groups])

    def _run(
        self, context: SweepContext, groups: List[List[EvalJob]]
    ) -> Iterator[GroupOutput]:
        if not groups:
            return
        own_tmp = self.run_dir is None
        run_dir = os.path.abspath(
            tempfile.mkdtemp(prefix="repro-cluster-") if own_tmp else self.run_dir
        )
        rec = telemetry.get_recorder()
        procs: List[DaemonHandle] = []
        self.failure_report = None
        report = FailureReport()
        # Manual enter/exit rather than `with`: _run is a generator, and the
        # span must close in the same finally that reaps the daemons so it
        # records even when the consuming iterator is abandoned mid-run.
        span = rec.span("cluster.run", run_dir=run_dir, groups=len(groups))
        span.__enter__()
        try:
            store = ResultStore(run_dir, checksum=self.checksums)
            outstanding: Dict[str, List[EvalJob]] = {}
            for group in groups:
                output = self._group_output(store, group)
                if output is not None:
                    yield output  # warm in the canonical store: no queue trip
                else:
                    outstanding[group_item_id(group)] = group
            span.note(warm=len(groups) - len(outstanding))
            if not outstanding:
                return
            prepare_run_dir(
                run_dir,
                context,
                list(outstanding.values()),
                chunk_size=self.chunk_size,
                lease_timeout=self.lease_timeout,
                retry=self.retry,
                fault_plan=self.fault_plan,
                checksums=self.checksums,
            )
            queue = JobQueue(
                run_dir, lease_timeout=self.lease_timeout, retry=self.retry
            )
            guard = MergeGuard(run_dir, queue=queue)
            procs, thread_env = self._maybe_spawn(run_dir, len(outstanding))
            if procs:
                share = thread_env.get(BLAS_THREAD_VARS[0])
                rec.event(
                    "cluster.spawn", workers=len(procs), run_dir=run_dir,
                    blas_threads=int(share) if share else "inherited",
                )
            spawn_failed = (
                self.spawn_workers
                and not procs
                and not live_worker_ids(run_dir, ttl=self.lease_timeout)
            )
            tails: Dict[str, ShardTail] = {}
            restarts_left = self.max_workers
            last_progress = time.monotonic()
            while outstanding:
                merged = self._merge_new(run_dir, store, tails, guard)
                if merged:
                    rec.count("cluster.merged_cells", merged)
                drained = []
                for item_id, group in outstanding.items():
                    output = self._group_output(store, group)
                    if output is not None:
                        drained.append(item_id)
                        yield output
                for item_id in drained:
                    del outstanding[item_id]
                if not outstanding:
                    return
                if merged or drained:
                    last_progress = time.monotonic()
                queue.requeue_expired()
                # Dead-lettered items will never produce results: drop them
                # from the wait set (graceful degradation — the run
                # terminates with partial results plus a failure report
                # instead of spinning forever on a poisoned group).
                for item_id in queue.failed_ids():
                    group = outstanding.pop(item_id, None)
                    if group is None:
                        continue
                    report.add(
                        item_id,
                        queue.failure_record(item_id),
                        keys=[job.content_key for job in group],
                    )
                    # Exclude the dead letter's partial results *by key*:
                    # any cell an earlier attempt already published (and a
                    # prior poll merged) is quarantined out of the live
                    # store, and the guard blocks later shard copies.
                    for job in group:
                        if job.content_key in store:
                            quarantine_entry(
                                run_dir, "dead_letter",
                                key=job.content_key, item=item_id,
                                source="coordinator",
                            )
                            store.discard(job.content_key)
                    last_progress = time.monotonic()
                    rec.count("cluster.dead_lettered")
                    rec.event(
                        "cluster.dead_lettered", level="error",
                        item=item_id, cells=len(group),
                    )
                if not outstanding:
                    return
                procs, restarts_left = self._babysit(
                    run_dir, procs, restarts_left, queue, thread_env
                )
                if spawn_failed or self._stalled(run_dir, queue, procs, last_progress):
                    # Nobody is (or stays) alive to serve the queue: finish
                    # the remaining items here, through the same protocol
                    # (claim, execute, shard-append, complete), so the sweep
                    # always terminates.  Only protocol-expired leases are
                    # stolen — an actively heartbeating worker keeps its
                    # claim (stall detection already proved none is fresh);
                    # items marked done without reachable results (a gc'd
                    # unmerged shard) are re-published.
                    from repro.cluster.worker import worker_loop

                    rec.event(
                        "cluster.fallback", level="warning",
                        items=len(outstanding),
                        reason="spawn failed" if spawn_failed else "stalled",
                    )
                    queue.requeue_expired()
                    if queue.is_drained():
                        for item_id in outstanding:
                            queue.requeue_done(item_id)
                    worker_loop(
                        run_dir,
                        worker_id=f"coordinator-{os.getpid()}",
                        lease_timeout=self.lease_timeout,
                        poll_interval=self.poll_interval,
                        max_idle=self.poll_interval,
                    )
                    last_progress = time.monotonic()
                    continue
                time.sleep(self.poll_interval)
        finally:
            if report:
                self.failure_report = report
                span.note(failed_items=len(report.items), failed_cells=len(report.keys))
                rec.event(
                    "cluster.failure_report", level="warning",
                    items=len(report.items), cells=len(report.keys),
                )
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                    proc.kill()
                    proc.wait()
            span.__exit__(*sys.exc_info())
            if own_tmp:
                shutil.rmtree(run_dir, ignore_errors=True)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _group_output(
        store: ResultStore, group: List[EvalJob]
    ) -> Optional[GroupOutput]:
        """The group's ``(key, CellResult)`` list, or ``None`` if incomplete."""
        output = []
        for job in group:
            cell = store.get(job.content_key)
            if cell is None:
                return None
            output.append((job.content_key, cell))
        return output

    def _maybe_spawn(
        self, run_dir: str, num_items: int
    ) -> Tuple[List[DaemonHandle], Dict[str, str]]:
        """Start the local fleet; returns it and its thread environment."""
        if not self.spawn_workers:
            return [], {}
        if live_worker_ids(run_dir, ttl=self.lease_timeout):
            return [], {}  # external workers already attached: don't double up
        count = max(1, min(self.max_workers, num_items))
        thread_env = blas_thread_env(count)
        procs = []
        for index in range(count):
            try:
                procs.append(
                    spawn_local_worker(
                        run_dir,
                        worker_id=f"local-{os.getpid()}-{index}",
                        poll_interval=self.poll_interval,
                        extra_env=thread_env,
                    )
                )
            # repro: ignore[REP008] spawn refusal *is* the degradation signal
            # — the caller falls back to in-process execution with however
            # many daemons did start.
            except OSError:
                break
        return procs, thread_env

    def _babysit(
        self,
        run_dir: str,
        procs: List[DaemonHandle],
        restarts_left: int,
        queue: JobQueue,
        thread_env: Dict[str, str],
    ):
        """Replace dead local daemons (with the fleet's thread environment)."""
        alive = [proc for proc in procs if proc.poll() is None]
        dead = len(procs) - len(alive)
        if dead and not queue.is_drained():
            telemetry.get_recorder().event(
                "cluster.restart", level="warning",
                dead=dead, restarts_left=restarts_left,
            )
            while restarts_left > 0 and len(alive) < max(1, min(
                self.max_workers, len(queue.pending_ids()) + len(queue.leased_ids())
            )):
                restarts_left -= 1
                try:
                    alive.append(
                        spawn_local_worker(
                            run_dir,
                            worker_id=f"local-{os.getpid()}-r{restarts_left}",
                            poll_interval=self.poll_interval,
                            extra_env=thread_env,
                        )
                    )
                except OSError:
                    restarts_left = 0
                    break
        return alive, restarts_left

    def _stalled(
        self,
        run_dir: str,
        queue: JobQueue,
        procs: List[DaemonHandle],
        last_progress: float,
    ) -> bool:
        if any(proc.poll() is None for proc in procs):
            return False  # our own daemons are alive; give them time
        if time.monotonic() - last_progress <= self.stall_timeout:
            return False
        if live_worker_ids(run_dir, ttl=self.stall_timeout):
            return False  # an idle-looping worker will claim eventually
        # Beacons are only refreshed between items; a worker deep inside a
        # long group announces itself through its lease heartbeats instead.
        freshest = queue.freshest_lease_age()
        return freshest is None or freshest > self.lease_timeout

    def _merge_new(
        self,
        run_dir: str,
        store: ResultStore,
        tails: Dict[str, ShardTail],
        guard: Optional[MergeGuard] = None,
    ) -> int:
        """Incrementally merge fresh shard records; returns new cells stored."""
        from repro.cluster.merge import merge_records

        merged = 0
        for path in discover_shards(run_dir):
            tail = tails.get(path)
            if tail is None:
                tail = tails[path] = ShardTail(path)
            merged += merge_records(
                store, tail.read_new(), guard=guard,
                source=os.path.basename(path),
            ).merged
        return merged


register_executor("cluster", ClusterExecutor)
