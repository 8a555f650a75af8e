"""The queue storage seam under :class:`~repro.cluster.queue.JobQueue`.

The claim-by-rename protocol (:mod:`repro.cluster.queue`) is really two
layers: the *scheduling* logic (attempt budgets, fences, retry_after,
dead-lettering) and a tiny set of *storage* primitives it drives — list the
items of a state, read/write one item, atomically move an item between
states, refresh or read its heartbeat.  This module holds the storage half:
the :class:`QueueBackend` contract and its one production implementation,
:class:`FilesystemQueueBackend` — the POSIX rename protocol, one
``<run_dir>/queue/<state>/<item>.json`` file per item, ``os.rename`` for
moves, the file's mtime as the heartbeat.

The abstract class stays so a test can hand :class:`JobQueue` a substitute
(``JobQueue(run_dir, backend=<instance>)``), for example an in-memory store
driven by a model checker.

Move semantics: ``move(src, dst, item_id)`` returns ``False`` when this
caller *lost the race* — another process moved the item first.  Exactly one
concurrent mover wins; the scheduler layer builds every exactly-once
guarantee on that.
"""

from __future__ import annotations

import abc
import json
import os
from typing import Dict, List, Optional

from repro.utils.serialization import atomic_write_json

__all__ = ["QueueBackend", "FilesystemQueueBackend"]


class QueueBackend(abc.ABC):
    """Storage primitives one :class:`~repro.cluster.queue.JobQueue` needs.

    Implementations must make ``write`` atomic (readers see the old
    document, nothing, or the new one — never a partial), ``move`` decide
    races with exactly one winner, and ``mtime``/``touch`` carry the lease
    heartbeat with at least second granularity.
    """

    @abc.abstractmethod
    def ensure_layout(self) -> None:
        """Create whatever containers the states need (idempotent)."""

    @abc.abstractmethod
    def list_ids(self, state: str) -> List[str]:
        """Sorted item ids currently in ``state``."""

    @abc.abstractmethod
    def exists(self, state: str, item_id: str) -> bool:
        """Whether ``item_id`` currently has a document in ``state``."""

    @abc.abstractmethod
    def read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        """The item's payload, or ``None`` if absent or undecodable."""

    @abc.abstractmethod
    def write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        """Atomically create-or-replace the item; restarts its heartbeat."""

    @abc.abstractmethod
    def move(self, src: str, dst: str, item_id: str) -> bool:
        """Atomically transition the item; ``False`` = lost the race."""

    @abc.abstractmethod
    def touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        """Refresh the heartbeat (to ``ts`` or now); ``False`` if gone."""

    @abc.abstractmethod
    def mtime(self, state: str, item_id: str) -> Optional[float]:
        """The item's last heartbeat timestamp, or ``None`` if gone."""

    @abc.abstractmethod
    def remove(self, state: str, item_id: str) -> bool:
        """Delete the item's document; ``False`` if already gone."""


class FilesystemQueueBackend(QueueBackend):
    """The historical POSIX protocol: one file per item, rename to move.

    Layout, byte format and every syscall are identical to the pre-seam
    :class:`~repro.cluster.queue.JobQueue` — a run directory written by an
    old fleet is claimable by a new one and vice versa.
    """

    def __init__(self, run_dir: str):
        self.run_dir = os.path.abspath(run_dir)
        self.queue_dir = os.path.join(self.run_dir, "queue")

    def _path(self, state: str, item_id: str) -> str:
        return os.path.join(self.queue_dir, state, item_id + ".json")

    def ensure_layout(self) -> None:
        from repro.cluster.queue import STATES

        for state in STATES:
            os.makedirs(os.path.join(self.queue_dir, state), exist_ok=True)

    def list_ids(self, state: str) -> List[str]:
        directory = os.path.join(self.queue_dir, state)
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def exists(self, state: str, item_id: str) -> bool:
        return os.path.exists(self._path(state, item_id))

    def read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._path(state, item_id), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        # Atomic replace; the fresh file's mtime doubles as the heartbeat.
        atomic_write_json(self._path(state, item_id), payload)

    def move(self, src: str, dst: str, item_id: str) -> bool:
        try:
            os.rename(self._path(src, item_id), self._path(dst, item_id))
        except (FileNotFoundError, PermissionError):
            # Lost the rename race (or a racing network filesystem); the
            # False return *is* the signal the scheduler acts on.
            return False
        return True

    def touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        path = self._path(state, item_id)
        try:
            if ts is None:
                os.utime(path)
            else:
                os.utime(path, (ts, ts))
        except FileNotFoundError:
            return False
        return True

    def mtime(self, state: str, item_id: str) -> Optional[float]:
        try:
            return os.stat(self._path(state, item_id)).st_mtime
        except OSError:
            return None

    def remove(self, state: str, item_id: str) -> bool:
        try:
            os.unlink(self._path(state, item_id))
        except FileNotFoundError:
            return False
        return True
