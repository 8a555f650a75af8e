"""Tests for the queue storage seam and for legacy run directories."""

import json
import os

import pytest

from repro.cluster import (
    FilesystemQueueBackend,
    JobQueue,
    read_manifest,
    submit_spec,
    worker_loop,
)


class RecordingBackend(FilesystemQueueBackend):
    """The filesystem protocol, noting every primitive the queue calls."""

    def __init__(self, run_dir):
        super().__init__(run_dir)
        self.calls = []

    def move(self, src, dst, item_id):
        self.calls.append(("move", src, dst, item_id))
        return super().move(src, dst, item_id)

    def write(self, state, item_id, payload):
        self.calls.append(("write", state, item_id))
        super().write(state, item_id, payload)


def test_instance_passes_through_resolution(tmp_path):
    backend = RecordingBackend(str(tmp_path))
    queue = JobQueue(str(tmp_path), backend=backend)
    assert queue.backend is backend
    assert queue.enqueue("a", {"jobs": []})
    item = queue.claim("w")
    assert queue.complete(item.item_id)
    assert ("write", "pending", "a") in backend.calls
    assert ("move", "pending", "leased", "a") in backend.calls
    assert ("move", "leased", "done", "a") in backend.calls


def test_manifest_resolution_defaults_to_filesystem(tmp_path):
    queue = JobQueue(str(tmp_path))  # no manifest: the POSIX rename protocol
    assert isinstance(queue.backend, FilesystemQueueBackend)
    assert queue.enqueue("a", {"jobs": []})
    assert os.path.exists(tmp_path / "queue" / "pending" / "a.json")


def _write_manifest(run_dir, **fields):
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump({"expected_keys": [], **fields}, f)


def test_new_manifests_record_no_queue_backend(grid, tmp_path):
    submit_spec(str(tmp_path), grid())
    assert "queue_backend" not in read_manifest(str(tmp_path))


def test_legacy_kv_run_directory_is_refused(grid, tmp_path):
    run_dir = str(tmp_path)
    _write_manifest(run_dir, queue_backend="kv")
    with pytest.raises(ValueError, match="queue_backend"):
        read_manifest(run_dir)
    # A worker refuses instead of exiting as "drained" on an empty queue/,
    # and a resubmission refuses instead of silently starting over.
    with pytest.raises(ValueError, match="queue_backend"):
        worker_loop(run_dir, worker_id="w0")
    with pytest.raises(ValueError, match="queue_backend"):
        submit_spec(run_dir, grid())


def test_manifest_recording_the_filesystem_backend_keeps_working(grid, tmp_path):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid())
    manifest = read_manifest(run_dir)
    _write_manifest(run_dir, **{**manifest, "queue_backend": "filesystem"})
    assert read_manifest(run_dir)["queue_backend"] == "filesystem"
    stats = worker_loop(run_dir, worker_id="w0")
    assert stats.items == len(submission.enqueued)
    assert JobQueue(run_dir).is_drained()
