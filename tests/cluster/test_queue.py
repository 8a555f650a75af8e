"""Tests for the claim-by-rename leased job queue.

The matrix runs once per queue storage backend in :data:`BACKENDS`, each
handed to :class:`JobQueue` as an instance; a second implementation of the
:class:`~repro.cluster.backends.QueueBackend` contract joins by adding an
entry and must honor every lease/retry/fence invariant below.
"""

import time

import pytest

from repro.cluster import FilesystemQueueBackend, JobQueue, RetryPolicy

#: ``{matrix id: factory(run_dir) -> QueueBackend}``.
BACKENDS = {"filesystem": FilesystemQueueBackend}


@pytest.fixture(params=sorted(BACKENDS))
def queue(tmp_path, request):
    backend = BACKENDS[request.param](str(tmp_path))
    return JobQueue(str(tmp_path), lease_timeout=0.2, backend=backend)


@pytest.fixture(params=sorted(BACKENDS))
def retry_queue(tmp_path, request):
    """A queue with a tight, deterministic retry budget and no backoff wait."""
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
    backend = BACKENDS[request.param](str(tmp_path))
    return JobQueue(str(tmp_path), lease_timeout=0.2, retry=policy, backend=backend)


def test_enqueue_claim_complete_lifecycle(queue):
    assert queue.enqueue("a", {"item": "a", "jobs": []})
    assert queue.counts() == {"pending": 1, "leased": 0, "done": 0, "failed": 0}
    item = queue.claim("w1")
    assert item is not None and item.item_id == "a"
    # The claim stamps the attempt count and fence epoch into the payload.
    assert item.payload == {"item": "a", "jobs": [], "attempt": 1, "fence": 1}
    assert item.attempt == 1
    assert item.fence == 1
    assert queue.counts() == {"pending": 0, "leased": 1, "done": 0, "failed": 0}
    assert not queue.is_drained()
    assert queue.complete("a")
    assert queue.counts() == {"pending": 0, "leased": 0, "done": 1, "failed": 0}
    assert queue.is_drained()


def test_enqueue_is_idempotent_across_states(queue):
    assert queue.enqueue("a", {"jobs": []})
    assert not queue.enqueue("a", {"jobs": ["other"]})  # pending: kept as-is
    item = queue.claim("w")
    assert not queue.enqueue("a", {"jobs": []})  # leased
    queue.complete(item.item_id)
    assert not queue.enqueue("a", {"jobs": []})  # done
    assert queue.counts()["done"] == 1


def test_each_item_claimed_exactly_once(queue):
    for index in range(8):
        queue.enqueue(f"item-{index}", {"jobs": []})
    claimed = []
    while True:
        item = queue.claim("w")
        if item is None:
            break
        claimed.append(item.item_id)
    assert sorted(claimed) == [f"item-{i}" for i in range(8)]
    assert queue.claim("w") is None  # nothing claimable twice


def test_requeue_expired_returns_stale_leases(queue):
    queue.enqueue("a", {"jobs": []})
    queue.enqueue("b", {"jobs": []})
    first = queue.claim("w1")
    assert queue.requeue_expired() == []  # fresh lease stays leased
    # Age the lease past the timeout and requeue it.
    assert queue.requeue_expired(now=time.time() + 1.0) == [first.item_id]
    assert queue.counts() == {"pending": 2, "leased": 0, "done": 0, "failed": 0}
    # The requeued item is claimable again.
    again = {queue.claim("w2").item_id, queue.claim("w2").item_id}
    assert first.item_id in again


def test_heartbeat_extends_the_lease(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w1")
    later = time.time() + 1.0
    assert queue.heartbeat("a")
    queue.backend.touch("leased", "a", ts=later)  # simulate a future heartbeat
    assert queue.requeue_expired(now=later + 0.1) == []  # heartbeat counted


def test_complete_after_lost_lease_reports_failure(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w1")
    queue.requeue_expired(now=time.time() + 1.0)  # lease expires
    other = queue.claim("w2")  # another worker takes over
    assert other.item_id == "a"
    # The original worker finishes late: its complete must fail, not clobber.
    queue.release(other.item_id)
    queue.claim("w2")
    assert queue.complete("a")
    assert not queue.complete("a")  # second completion finds nothing


def test_release_and_requeue_done(queue):
    queue.enqueue("a", {"jobs": []})
    queue.claim("w")
    assert queue.release("a")
    assert queue.counts()["pending"] == 1
    queue.claim("w")
    queue.complete("a")
    assert queue.requeue_done("a")
    assert queue.counts() == {"pending": 1, "leased": 0, "done": 0, "failed": 0}


def test_lease_timeout_validation(tmp_path):
    with pytest.raises(ValueError, match="lease_timeout"):
        JobQueue(str(tmp_path), lease_timeout=0.0)


# -- retries and dead-lettering -----------------------------------------------


def _fail(retry_queue, item, exc_type="ValueError", message="boom"):
    return retry_queue.nack(
        item,
        {"exc_type": exc_type, "message": message, "traceback": "tb"},
        worker="w1",
    )


def test_nack_retries_until_the_budget_then_dead_letters(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for attempt in (1, 2):
        item = retry_queue.claim("w1")
        assert item.attempt == attempt
        assert _fail(retry_queue, item) == "retry"
        assert retry_queue.counts()["pending"] == 1
    item = retry_queue.claim("w1")
    assert item.attempt == 3
    assert _fail(retry_queue, item) == "failed"
    assert retry_queue.counts() == {
        "pending": 0, "leased": 0, "done": 0, "failed": 1,
    }
    assert retry_queue.is_drained()  # dead letters never block drain
    assert retry_queue.claim("w1") is None


def test_failure_record_carries_traceback_and_history(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        _fail(retry_queue, retry_queue.claim("w1"))
    assert retry_queue.failed_ids() == ["a"]
    record = retry_queue.failure_record("a")
    failure = record["failure"]
    assert failure["exc_type"] == "ValueError"
    assert failure["message"] == "boom"
    assert failure["traceback"] == "tb"
    assert failure["worker"] == "w1"
    assert failure["attempts"] == 3
    history = record["history"]
    assert [entry["attempt"] for entry in history] == [1, 2, 3]
    assert all(entry["exc_type"] == "ValueError" for entry in history)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_retry_after_defers_the_claim(tmp_path, backend):
    policy = RetryPolicy(max_attempts=3, backoff_base=30.0, jitter=0.0)
    queue = JobQueue(
        str(tmp_path), lease_timeout=0.2, retry=policy,
        backend=BACKENDS[backend](str(tmp_path)),
    )
    queue.enqueue("a", {"item": "a", "jobs": []})
    item = queue.claim("w1")
    assert queue.nack(item, {"exc_type": "E", "message": "m"}, worker="w1") == "retry"
    # Backing off: pending but not claimable until retry_after passes.
    assert queue.counts()["pending"] == 1
    assert queue.claim("w1") is None
    assert queue.counts()["pending"] == 1  # deferral returned it untouched


def test_crash_loop_is_dead_lettered_at_claim(retry_queue):
    """Workers that crash without nacking burn one attempt per claim; the
    claim after the budget dead-letters instead of feeding a fourth worker."""
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        assert retry_queue.claim("w1") is not None  # claimed, then "crashed"
        retry_queue.requeue_expired(now=time.time() + 1.0)
    assert retry_queue.claim("w1") is None
    assert retry_queue.failed_ids() == ["a"]
    failure = retry_queue.failure_record("a")["failure"]
    assert failure["exc_type"] == "WorkerCrashLoop"
    assert failure["attempts"] == 3


def test_retry_failed_requeues_with_fresh_budget(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    retry_queue.enqueue("b", {"item": "b", "jobs": []})
    for _ in range(3):
        items = [retry_queue.claim("w1"), retry_queue.claim("w1")]
        for item in items:
            if item is not None:
                _fail(retry_queue, item)
    assert sorted(retry_queue.failed_ids()) == ["a", "b"]
    assert retry_queue.retry_failed(item_ids=["a"]) == ["a"]
    assert retry_queue.counts()["pending"] == 1
    assert retry_queue.counts()["failed"] == 1
    item = retry_queue.claim("w1")
    assert item.item_id == "a"
    assert item.attempt == 1  # fresh budget
    assert "failure" not in item.payload
    assert len(item.payload["history"]) == 3  # the past is kept
    assert retry_queue.retry_failed() == ["b"]  # default: everything failed


def test_enqueue_does_not_resurrect_dead_letters(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    for _ in range(3):
        _fail(retry_queue, retry_queue.claim("w1"))
    assert not retry_queue.enqueue("a", {"item": "a", "jobs": []})
    assert retry_queue.failed_ids() == ["a"]


def test_attempts_histogram(retry_queue):
    retry_queue.enqueue("a", {"item": "a", "jobs": []})
    retry_queue.enqueue("b", {"item": "b", "jobs": []})
    item = retry_queue.claim("w1")
    retry_queue.complete(item.item_id)
    histogram = retry_queue.attempts_histogram()
    assert histogram == {0: 1, 1: 1}  # one unclaimed, one first-try


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=5, backoff_base=0.5, backoff_factor=2.0,
        backoff_max=3.0, jitter=0.5,
    )
    delays = [policy.delay(attempt, token="item-x") for attempt in (1, 2, 3, 4)]
    assert delays == [policy.delay(a, token="item-x") for a in (1, 2, 3, 4)]
    for attempt, delay in enumerate(delays, start=1):
        ceiling = min(0.5 * 2.0 ** (attempt - 1), 3.0)
        assert 0.5 * ceiling <= delay <= ceiling
    # Different items jitter differently (decorrelated fleets).
    assert policy.delay(1, token="item-x") != policy.delay(1, token="item-y")


def test_retry_policy_manifest_round_trip():
    policy = RetryPolicy(max_attempts=7, backoff_base=0.1, jitter=0.25)
    assert RetryPolicy.from_manifest(policy.to_manifest()) == policy
    assert RetryPolicy.from_manifest(None) == RetryPolicy()
    assert RetryPolicy.from_manifest({"max_attempts": 2, "junk": 9}) == RetryPolicy(
        max_attempts=2
    )
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
