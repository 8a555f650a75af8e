"""Cluster-side telemetry: manifest propagation, worker spans, status --json.

The invariant at the heart of this file: **each execution of a work item
produces exactly one ``worker.item`` span** — claim through complete,
whether or not the completion rename wins.  A lost lease therefore shows up
as one span per *executing* worker (plus a ``worker.lost_leases`` counter
on the loser), never zero and never two from the same worker.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import telemetry
from repro.cluster import ClusterExecutor, JobQueue, merge_shards, submit_spec, worker_loop
from repro.cluster.cli import main as cluster_main, run_status
from repro.cluster.queue import DONE, LEASED
from repro.runtime import run_sweep
from repro.telemetry.report import load_run_records, merged_run_metrics
from repro.utils.serialization import read_jsonl


@pytest.fixture(autouse=True)
def no_recorder_leaks():
    telemetry.disable()
    yield
    telemetry.disable()


def worker_item_spans(run_dir):
    return [
        r for r in load_run_records(run_dir)
        if r.get("type") == "span" and r.get("name") == "worker.item"
    ]


def test_manifest_flag_makes_workers_record_their_own_sinks(grid, tmp_path):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submission = submit_spec(run_dir, grid(), lease_timeout=600.0)
    # The submission recorded the manifest flag; this worker starts with no
    # recorder of its own and must auto-configure from it.
    assert not telemetry.enabled()
    stats = worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    assert not telemetry.enabled()  # the worker-owned recorder was torn down
    assert stats.items == len(submission.enqueued)

    spans = worker_item_spans(run_dir)
    assert len(spans) == len(submission.enqueued)
    assert {s["sink"] for s in spans} == {"worker-w1"}
    assert all(s["completed"] is True and s["cells"] >= 1 for s in spans)
    merged = merged_run_metrics(run_dir)
    assert merged["counters"]["worker.items"] == stats.items
    assert merged["counters"]["queue.claims"] == stats.items
    assert merged["counters"].get("worker.lost_leases", 0) == 0


def test_exactly_one_worker_span_per_execution_across_a_lost_lease(grid, tmp_path):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submission = submit_spec(run_dir, grid(), lease_timeout=600.0)
    items = len(submission.enqueued)
    queue = JobQueue(run_dir, lease_timeout=600.0)

    # Worker A executes one item whose lease force-expires mid-execution:
    # its completion rename must fail, its span must still be recorded.
    original_complete = JobQueue.complete
    expired = {}

    def expire_then_complete(self, item_id):
        if not expired:
            expired[item_id] = True
            self.requeue_expired(now=time.time() + 1200.0)
        return original_complete(self, item_id)

    JobQueue.complete = expire_then_complete
    try:
        slow = worker_loop(run_dir, worker_id="slow", lease_timeout=600.0,
                           max_items=1)
    finally:
        JobQueue.complete = original_complete
    assert slow.lost_leases == 1
    (lost_item,) = expired

    # Worker B re-executes the requeued item (and everything else).
    fast = worker_loop(run_dir, worker_id="fast", lease_timeout=600.0)
    assert queue.is_drained()
    assert fast.lost_leases == 0

    spans = worker_item_spans(run_dir)
    # items + 1 executions happened: the lost item ran on both workers.
    assert len(spans) == items + 1
    by_pair = {(s["sink"], s["item"]) for s in spans}
    assert len(by_pair) == len(spans)  # never two spans from one worker
    lost_spans = [s for s in spans if s["item"] == lost_item]
    assert sorted(s["completed"] for s in lost_spans) == [False, True]
    merged = merged_run_metrics(run_dir)
    assert merged["counters"]["worker.lost_leases"] == 1
    assert merged["counters"]["queue.leases_lost"] == 1
    assert merged["counters"]["queue.requeued_expired"] == 1
    assert merged["counters"]["worker.items"] == items + 1


def test_caller_installed_recorder_wins_over_the_manifest_flag(grid, tmp_path):
    run_dir = str(tmp_path / "run")
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    with telemetry.recording(str(tmp_path / "own"), name="mine", echo=None) as rec:
        worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
        assert telemetry.get_recorder() is rec  # not replaced mid-loop
    # Every worker span landed in the caller's sink, not the run dir's.
    assert {s["sink"] for s in worker_item_spans(str(tmp_path / "own"))} == {"mine"}


def test_status_json_surfaces_queue_results_and_lease_counters(grid, tmp_path, capsys):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    merge_shards(run_dir)

    status = run_status(run_dir)
    assert status["complete"] is True
    assert status["stored"] == status["expected"] > 0
    assert status["queue"][LEASED] == 0 and status["queue"][DONE] > 0
    assert status["lost_leases"] == 0
    assert status["telemetry"]["worker.items"] == status["queue"][DONE]

    assert cluster_main(["status", run_dir, "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["complete"] is True
    assert parsed["telemetry"]["worker.cells"] == parsed["stored"]

    # The text rendering surfaces the lease counters when telemetry exists.
    assert cluster_main(["status", run_dir]) == 0
    text = capsys.readouterr().out
    assert "leases: 0 lost, 0 expired requeued" in text


def test_status_works_without_any_telemetry(grid, tmp_path, capsys):
    run_dir = str(tmp_path)
    submit_spec(run_dir, grid(), lease_timeout=600.0)
    worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    merge_shards(run_dir)
    status = run_status(run_dir)
    assert status["telemetry"] is None
    assert status["complete"] is True
    assert cluster_main(["status", run_dir]) == 0
    assert "leases:" not in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="daemons are forks")
def test_the_coordinator_sink_holds_no_daemon_record(grid, tmp_path):
    """Forked daemons record into sinks of their own, never the coordinator's."""
    run_dir, sinks = str(tmp_path / "run"), str(tmp_path / "sinks")
    with telemetry.recording(sinks, name="coordinator", echo=None) as recorder:
        recorder.count("coordinator.before_fork")  # metrics a child could flush
        run_sweep(
            grid(),
            executor=ClusterExecutor(
                run_dir=run_dir, max_workers=2, lease_timeout=10.0, poll_interval=0.01
            ),
        )
    results = read_jsonl(os.path.join(run_dir, "results.jsonl"))
    assert results and all(r["worker"].startswith("local-") for r in results)
    records = load_run_records(sinks)
    assert {r["sink"] for r in records} == {"coordinator"}
    assert len([r for r in records if r["type"] == "metrics"]) == 1
    assert not [r for r in records if r.get("name", "").startswith("worker.")]
    worker_spans = [r for r in load_run_records(run_dir) if r.get("name") == "worker.item"]
    assert {r["sink"] for r in worker_spans} == {
        "worker-" + r["worker"] for r in results
    }
