"""Worker-daemon cold start: a scipy-free import path and split BLAS threads.

A coordinator-spawned daemon imports ``repro``, unpickles the sweep context
and only then claims work, so everything on that path is paid once per daemon
per curve.  These tests pin the two choices that keep it short: importing the
daemon's code loads no scipy, and local daemons share the host's BLAS threads
instead of each starting a pool as wide as the host.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.biterror import make_error_fields
from repro import telemetry
from repro.cluster import ClusterExecutor, coordinator, submit_spec, worker_loop
from repro.data import synthetic_cifar10
from repro.models import SimpleNet
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SerialExecutor, SweepSpec, run_sweep
from repro.telemetry.report import load_run_records
from repro.utils.serialization import read_jsonl


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

    executor = ClusterExecutor(
        run_dir=str(tmp_path), max_workers=2, lease_timeout=10.0,
        poll_interval=0.02,
    )
    results = run_sweep(build(), executor=executor)
    serial = run_sweep(build(), executor=SerialExecutor())
    assert spawned_with and spawned_with[0] == coordinator.blas_thread_env(2)
    # Every cell came from a spawned daemon, not the in-process fallback.
    records = read_jsonl(os.path.join(str(tmp_path), "results.jsonl"))
    assert all(record["worker"].startswith("local-") for record in records)
    assert set(results) == set(serial)
    for key, cell in serial.items():
        assert results[key] == cell  # equal, not merely close
