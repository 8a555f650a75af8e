"""Worker-daemon cold start: forked daemons, a scipy-free import path, split BLAS threads.

A coordinator-spawned daemon unpickles the sweep context and only then
claims work, so everything on that path is paid once per daemon per curve.
Local daemons are forks of the coordinator, so they skip the interpreter
start and the imports; these tests pin that a fork starts like an exec'd
daemon (its own log, streams, signal handlers, fault plan, recorder and BLAS
thread count) and never returns into the caller.  They also pin that
importing the daemon's code loads no scipy (external workers still exec
``python -m repro.cluster worker``), and that local daemons share the host's
BLAS threads instead of each running a pool as wide as the host.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.biterror import make_error_fields
from repro import faults, telemetry
from repro.cluster import (
    ClusterExecutor,
    RetryPolicy,
    cli,
    coordinator,
    group_item_id,
    submit_spec,
    worker_loop,
)
from repro.data import synthetic_cifar10
from repro.faults import FaultPlan, FaultRule
from repro.models import SimpleNet
from repro.nn import parallel
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SerialExecutor, SweepSpec, group_jobs, run_sweep
from repro.telemetry.report import load_run_records
from repro.utils.serialization import read_jsonl

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="local daemons are forks")


def test_daemon_import_path_loads_no_scipy():
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cluster.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class _FakeProc:
    """A daemon handle that has already exited."""

    def poll(self):
        return -9

    def wait(self, timeout=None):
        return -9


@pytest.fixture
def captured_envs(monkeypatch):
    """Every ``extra_env`` the coordinator hands to ``spawn_local_worker``."""
    envs = []

    def fake_spawn(run_dir, worker_id, poll_interval=0.05, extra_env=None):
        envs.append(extra_env)
        return _FakeProc()

    monkeypatch.setattr(coordinator, "spawn_local_worker", fake_spawn)
    return envs


@pytest.fixture
def no_thread_vars(monkeypatch):
    for name in coordinator.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_spawned_daemons_split_the_hosts_blas_threads(
    cpus, captured_envs, no_thread_vars, monkeypatch, tmp_path
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    executor = ClusterExecutor(max_workers=2)
    procs, thread_env = executor._maybe_spawn(str(tmp_path), num_items=5)
    share = str(max(1, cpus // 2))
    expected = {
        "OPENBLAS_NUM_THREADS": share,
        "OMP_NUM_THREADS": share,
        "MKL_NUM_THREADS": share,
        "BLIS_NUM_THREADS": share,
    }
    assert len(procs) == 2
    assert captured_envs == [expected, expected]
    assert thread_env == expected


def test_user_set_thread_count_is_inherited_untouched(
    captured_envs, no_thread_vars, monkeypatch, tmp_path
):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    executor = ClusterExecutor(max_workers=2)
    procs, thread_env = executor._maybe_spawn(str(tmp_path), num_items=5)
    assert len(procs) == 2
    assert captured_envs == [{}, {}]
    assert thread_env == {}


def test_replacement_daemons_get_the_first_spawns_environment(
    grid, captured_envs, no_thread_vars, tmp_path
):
    """Through the real run loop: every daemon dies, each replacement is
    spawned with the same thread environment, and the sweep still completes
    in-process, equal to the serial run."""
    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=2, lease_timeout=1.0,
        poll_interval=0.01, stall_timeout=0.05,
    )
    results = run_sweep(grid(), executor=executor)
    assert len(captured_envs) == 4  # the fleet of 2, then its 2 replacements
    assert captured_envs[0] == coordinator.blas_thread_env(2)
    assert all(env == captured_envs[0] for env in captured_envs)
    assert results == run_sweep(grid(), executor=SerialExecutor())


@pytest.mark.parametrize("user_threads", [None, "3"])
def test_spawn_event_names_the_thread_policy(
    grid, user_threads, captured_envs, no_thread_vars, monkeypatch, tmp_path
):
    if user_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_threads)
    executor = ClusterExecutor(
        run_dir=str(tmp_path / "run"), max_workers=2, lease_timeout=1.0,
        poll_interval=0.01, stall_timeout=0.05,
    )
    sinks = str(tmp_path / "sinks")
    with telemetry.recording(sinks, name="coordinator", echo=None):
        run_sweep(grid(), executor=executor)
    spawns = [
        r for r in load_run_records(sinks)
        if r.get("type") == "event" and r.get("name") == "cluster.spawn"
    ]
    expected = "inherited" if user_threads else max(1, (os.cpu_count() or 1) // 2)
    assert [event["blas_threads"] for event in spawns] == [expected]


def test_worker_records_its_startup_span(grid, tmp_path):
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="submitter", echo=None):
        submit_spec(run_dir, grid(), lease_timeout=600.0)
    worker_loop(run_dir, worker_id="w1", lease_timeout=600.0)
    spans = [r for r in load_run_records(run_dir) if r.get("type") == "span"]
    startup = [s for s in spans if s["name"] == "worker.startup"]
    items = [s for s in spans if s["name"] == "worker.item"]
    assert [s["sink"] for s in startup] == ["worker-w1"]
    assert items and startup[0]["start"] <= min(s["start"] for s in items)


def conv_spec_builder():
    """A fresh tiny conv sweep spec per call: 2 rates x 2 fields, batches of 8."""
    test = synthetic_cifar10(samples_per_class=3, image_size=8, num_classes=4)
    model = SimpleNet(
        in_channels=3, num_classes=4, widths=(4, 8), rng=np.random.default_rng(5)
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(quantized.num_weights, 8, 2, seed=11)

    def build():
        spec = SweepSpec(test, batch_size=8)
        spec.add_model("net", model, quantizer, quantized)
        spec.add_field_set("f", fields)
        for rate in (0.005, 0.02):
            spec.add_field_jobs("net", "f", rate)
        return spec

    return build


def assert_daemons_did_all_the_work(run_dir):
    records = read_jsonl(os.path.join(run_dir, "results.jsonl"))
    assert records and all(record["worker"].startswith("local-") for record in records)


@needs_fork
@pytest.mark.slow
def test_spawned_daemons_run_a_conv_sweep_bit_identically(
    no_thread_vars, monkeypatch, tmp_path
):
    """Conv GEMMs in daemons with fewer BLAS threads change no result bit."""
    spawned_with = []
    real_spawn = coordinator.spawn_local_worker

    def recording_spawn(*args, extra_env=None, **kwargs):
        spawned_with.append(extra_env)
        return real_spawn(*args, extra_env=extra_env, **kwargs)

    monkeypatch.setattr(coordinator, "spawn_local_worker", recording_spawn)
    build = conv_spec_builder()
    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=2, lease_timeout=10.0,
        poll_interval=0.02,
    )
    results = run_sweep(build(), executor=executor)
    serial = run_sweep(build(), executor=SerialExecutor())
    assert spawned_with and spawned_with[0] == coordinator.blas_thread_env(2)
    # Every cell came from a spawned daemon, not the in-process fallback.
    assert_daemons_did_all_the_work(str(tmp_path))
    assert set(results) == set(serial)
    for key, cell in serial.items():
        assert results[key] == cell  # equal, not merely close


# -- forked daemons start like exec'd ones ------------------------------------


def read_log(run_dir, worker_id):
    with open(os.path.join(run_dir, "workers", f"{worker_id}.log"), encoding="utf-8") as log:
        return log.read()


@needs_fork
def test_a_fault_plan_installed_in_the_parent_never_fires_in_a_daemon(grid, tmp_path):
    """The parent's plan would poison every item; only the manifest's one
    poisoned item dead-letters, so the daemons ran the manifest plan alone."""
    spec = grid()
    poison_group = group_jobs(spec.jobs)[0]
    poison_id = group_item_id(poison_group)
    poison_keys = {job.content_key for job in poison_group}
    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=2, lease_timeout=10.0, poll_interval=0.01,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        fault_plan=FaultPlan([FaultRule(
            seam="execute", kind="exception", match=poison_id, times=None,
        )]),
    )
    faults.install(FaultPlan([FaultRule(seam="execute", kind="exception", times=None)]))
    try:
        results = run_sweep(spec, executor=executor)
    finally:
        faults.clear()
    assert executor.failure_report.items == [poison_id]
    assert_daemons_did_all_the_work(str(tmp_path))
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert set(results) == set(serial) - poison_keys
    for key, cell in results.items():
        assert cell == serial[key]


@needs_fork
def test_a_daemon_whose_worker_raises_exits_1_and_logs_the_traceback(
    monkeypatch, tmp_path
):
    def broken_main(argv):
        raise RuntimeError(f"worker {argv[3]} broke")

    monkeypatch.setattr(cli, "main", broken_main)  # the fork inherits it
    run_dir = str(tmp_path)
    daemon = coordinator.spawn_local_worker(run_dir, "w-broken")
    # Only this process gets here: a child that returned into the test would
    # append its own pid.
    with open(tmp_path / "after-spawn", "a", encoding="utf-8") as counter:
        counter.write(f"{os.getpid()}\n")
    assert daemon.wait(timeout=60) == 1
    assert daemon.returncode == daemon.poll() == 1
    log = read_log(run_dir, "w-broken")
    assert "Traceback" in log and "RuntimeError: worker w-broken broke" in log
    assert (tmp_path / "after-spawn").read_text().split() == [str(os.getpid())]


@needs_fork
def test_the_daemon_log_holds_its_summary_and_none_of_the_parents_output(
    grid, monkeypatch, tmp_path
):
    run_dir = str(tmp_path)
    submission = submit_spec(run_dir, grid(), lease_timeout=60.0)
    # A block-buffered stdout on fd 1, referenced only by sys.stdout: were it
    # still holding this text at the fork, the child would write it to the
    # log when it replaces sys.stdout and the old stream is collected.
    monkeypatch.setattr(sys, "stdout", open(1, "a", buffering=1 << 16, closefd=False))
    sys.stdout.write("parent output, not yet flushed\n")
    daemon = coordinator.spawn_local_worker(run_dir, "w-log", poll_interval=0.01)
    assert daemon.wait(timeout=120) == 0
    log = read_log(run_dir, "w-log")
    assert f"worker w-log: {len(submission.enqueued)} item(s)" in log
    assert "parent output" not in log


@needs_fork
def test_a_daemon_restores_the_default_sigterm_handler(monkeypatch, tmp_path):
    def idle_main(argv):
        time.sleep(60)
        return 0

    monkeypatch.setattr(cli, "main", idle_main)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        daemon = coordinator.spawn_local_worker(str(tmp_path), "w-idle")
    finally:
        signal.signal(signal.SIGTERM, previous)
    with pytest.raises(subprocess.TimeoutExpired):
        daemon.wait(timeout=0.05)
    assert daemon.poll() is None
    daemon.terminate()
    assert daemon.wait(timeout=30) == -signal.SIGTERM


@needs_fork
def test_a_daemon_reaped_elsewhere_counts_as_exited(monkeypatch, tmp_path):
    """As with ``Popen``: ``ECHILD`` means the child is gone, status unknown."""
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    daemon = coordinator.spawn_local_worker(str(tmp_path), "w-reaped")
    os.waitpid(daemon.pid, 0)
    assert daemon.poll() == 0
    daemon.kill()  # a no-op once it has exited
    assert daemon.wait() == 0


@needs_fork
@pytest.mark.parametrize("user_threads", ["1", "3", None])
def test_daemons_run_at_the_blas_threads_they_were_given(
    user_threads, no_thread_vars, monkeypatch, tmp_path
):
    """Set after OpenBLAS loaded, the variable reaches the daemons only
    through ``set_blas_threads``; each shards every batch that many ways."""
    if user_threads is None:
        monkeypatch.setattr(os, "cpu_count", lambda: 6)  # a share of 3 each
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_threads)
    monkeypatch.setattr(parallel, "MIN_SHARD_VALUES", 1)  # the forks inherit it
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="coordinator", echo=None):
        run_sweep(
            conv_spec_builder()(),
            executor=ClusterExecutor(
                run_dir=run_dir, max_workers=2, lease_timeout=10.0, poll_interval=0.02
            ),
        )
    assert_daemons_did_all_the_work(run_dir)
    gauges = [
        record["gauges"]["eval.shards"]
        for record in load_run_records(run_dir)
        if record.get("type") == "metrics"
        and record["sink"].startswith("worker-")
        and "eval.shards" in record.get("gauges", {})
    ]
    assert gauges and set(gauges) == {int(user_threads or 3)}
