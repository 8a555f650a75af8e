"""Tracing of the ``curve_cluster`` workload: the coordinator and its daemons.

In the traced run :class:`ClusterTrace` replaces
``repro.cluster.coordinator.spawn_local_worker`` so that the coordinator's
daemons run the same ``repro.cluster`` worker command line, environment and
log file through this script, which installs :mod:`tracer` first and writes
the worker's spans to a JSON file when it exits (also on the coordinator's
SIGTERM).  The program's own telemetry sinks, which the coordinator enables
through the run manifest, give the worker-side queue counters and the
``worker.item`` / ``engine.group`` spans.  After each curve
:meth:`ClusterTrace.after_round` folds both into the coordinator's figures.

Run by the coordinator as::

    python perfbench/cluster_trace.py <spans.json> worker <run_dir> --id ID --poll S
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional


class ClusterTrace:
    """Coordinator-side hooks of the traced ``curve_cluster`` run."""

    def __init__(self, tracer, work_dir: str):
        from repro.cluster import coordinator

        self.tracer = tracer
        self.spans_dir = os.path.join(work_dir, "spans")
        os.makedirs(self.spans_dir, exist_ok=True)
        self.procs: List[subprocess.Popen] = []
        self.spawned_at: Optional[float] = None
        self.spawn_to_first_item: List[float] = []
        self.item_overheads_s: List[float] = []
        self.counters: Dict[str, float] = {}
        self.max_threads = 0
        self.dead_letters = 0
        self._coordinator = coordinator
        self._spawn = coordinator.spawn_local_worker
        coordinator.spawn_local_worker = self.spawn

    def uninstall(self) -> None:
        self._coordinator.spawn_local_worker = self._spawn

    def spawn(
        self,
        run_dir: str,
        worker_id: str,
        poll_interval: float = 0.05,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> subprocess.Popen:
        """Drop-in for ``spawn_local_worker`` that runs the worker traced."""
        import repro
        from repro.cluster.broker import WORKERS_DIRNAME

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
        env.update(extra_env or {})
        log_dir = os.path.join(run_dir, WORKERS_DIRNAME)
        os.makedirs(log_dir, exist_ok=True)
        spans = os.path.join(self.spans_dir, f"{worker_id}.json")
        if self.spawned_at is None:
            self.spawned_at = time.time()
        with open(os.path.join(log_dir, f"{worker_id}.log"), "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), spans, "worker", run_dir,
                 "--id", worker_id, "--poll", str(poll_interval)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.procs.append(proc)
        return proc

    def sample_threads(self) -> None:
        """Track the largest thread count any live daemon has reached."""
        for proc in self.procs:
            try:
                with open(f"/proc/{proc.pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("Threads:"):
                            self.max_threads = max(self.max_threads, int(line.split()[1]))
            except OSError:
                continue  # already exited

    def after_round(self, cluster, run_dir: str) -> None:
        """Fold one finished curve's worker telemetry and spans into the run's."""
        sinks = read_sinks(run_dir)
        if sinks["first_item"] is not None and self.spawned_at is not None:
            self.spawn_to_first_item.append(sinks["first_item"] - self.spawned_at)
        self.item_overheads_s += sinks["item_overheads_s"]
        for key, value in sinks["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        if cluster.failure_report is not None:
            self.dead_letters += len(cluster.failure_report.items)
        # The coordinator has reaped its daemons, so every span file is whole.
        for name in sorted(os.listdir(self.spans_dir)):
            path = os.path.join(self.spans_dir, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as handle:
                    self.tracer.merge(json.load(handle))
            os.remove(path)
        self.procs = []
        self.spawned_at = None


def read_sinks(run_dir: str) -> dict:
    """Worker telemetry of one run: item/group spans and the last counter snapshot."""
    from repro.telemetry import TELEMETRY_DIRNAME
    from repro.utils.serialization import read_jsonl

    sink_dir = os.path.join(run_dir, TELEMETRY_DIRNAME)
    items, groups, counters = [], {}, {}
    for name in sorted(os.listdir(sink_dir)) if os.path.isdir(sink_dir) else []:
        if not name.startswith("worker-"):
            continue
        last = {}
        for record in read_jsonl(os.path.join(sink_dir, name)):
            if record.get("type") == "span" and record["name"] == "worker.item":
                items.append(record)
            elif record.get("type") == "span" and record["name"] == "engine.group":
                groups[record["parent"]] = record
            elif record.get("type") == "metrics":
                last = record.get("counters") or {}
        for key, value in last.items():
            counters[key] = counters.get(key, 0) + value
    overheads = [
        item["wall_s"] - groups[item["span"]]["wall_s"]
        for item in items if item["span"] in groups
    ]
    return {
        "first_item": min((item["start"] for item in items), default=None),
        "item_overheads_s": overheads,
        "counters": counters,
    }


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from tracer import Tracer, install

    from repro.cluster.cli import main as cluster_main

    tracer = install(Tracer())
    # The coordinator terminates daemons still polling once the curve is in;
    # exit through the finally below so the spans are written.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return cluster_main(cli_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
