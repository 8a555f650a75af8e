"""Tests for serial/parallel executors: equivalence, grouping, degradation."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.biterror import ChipProfile, make_error_fields
from repro.models import MLP
from repro.nn.blas import BLAS_THREAD_VARS
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    SweepSpec,
    group_jobs,
    run_sweep,
)
from repro.runtime import executors as executors_module


@pytest.fixture(scope="module")
def grid(blob_data):
    """A small multi-kind sweep spec builder (fresh spec per call)."""
    _, test = blob_data
    model = MLP(
        in_features=test.input_shape[0], num_classes=test.num_classes,
        hidden=(16,), rng=np.random.default_rng(1),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(quantized.num_weights, 8, 3, seed=9)
    chip = ChipProfile(rows=128, columns=64, column_alignment=0.4, seed=4)

    def build():
        spec = SweepSpec(test, batch_size=32)
        spec.add_model("m", model, quantizer, quantized)
        spec.add_field_set("f", fields)
        spec.add_chip("c", chip)
        for rate in (0.005, 0.01, 0.02):
            spec.add_field_jobs("m", "f", rate)
        spec.add_chip_jobs("m", "c", 0.02, offsets=(0, 500, 1000))
        return spec

    return build


def test_group_jobs_partitions_by_granularity_and_dedupes(grid):
    spec = grid()
    groups = group_jobs(spec.jobs)
    # 1 clean group + 3 field-rate groups (batched injection per cell) +
    # 3 chip groups (one per offset — offsets share no work, so they shard).
    assert len(groups) == 7
    assert all(len({j.group_key for j in g}) == 1 for g in groups)
    field_groups = [g for g in groups if g[0].kind == "field"]
    assert all(len(g) == 3 for g in field_groups)  # whole chip set together
    chip_groups = [g for g in groups if g[0].kind == "chip"]
    assert [len(g) for g in chip_groups] == [1, 1, 1]
    # Duplicated jobs (same content key) collapse into one execution.
    assert group_jobs(spec.jobs + spec.jobs) == groups


@pytest.mark.slow
def test_parallel_executor_matches_serial_cell_for_cell(grid):
    serial = run_sweep(grid(), executor=SerialExecutor())
    parallel = run_sweep(grid(), executor=ParallelExecutor(max_workers=2))
    assert set(serial) == set(parallel)
    for key, cell in serial.items():
        # Same fixed seed + same shipped context: every cell is equal, not
        # merely close.
        assert parallel[key].error == cell.error
        assert parallel[key].confidence == cell.confidence


def test_single_worker_short_circuits_without_a_pool(grid, monkeypatch):
    def forbid_pool(*args, **kwargs):  # pragma: no cover - would fail the test
        raise AssertionError("a pool must not be created for max_workers=1")

    monkeypatch.setattr(multiprocessing, "get_context", forbid_pool)
    results = run_sweep(grid(), executor=ParallelExecutor(max_workers=1))
    assert results == run_sweep(grid(), executor=SerialExecutor())


def test_unavailable_pool_degrades_to_serial(grid, monkeypatch):
    def broken_context(*args, **kwargs):
        raise OSError("no POSIX semaphores on this host")

    monkeypatch.setattr(multiprocessing, "get_context", broken_context)
    results = run_sweep(grid(), executor=ParallelExecutor(max_workers=4))
    assert results == run_sweep(grid(), executor=SerialExecutor())


def test_parallel_executor_validates_workers():
    with pytest.raises(ValueError, match="max_workers"):
        ParallelExecutor(max_workers=0)


def test_executor_context_ships_once_per_worker(grid):
    """Tasks carry only job lists; the context travels via the initializer."""
    spec = grid()
    shipped = []

    class RecordingPoolExecutor:
        """Runs the worker protocol in-process to observe the payloads."""

        def run(self, context, groups):
            shipped.append(context)
            executors_module._init_worker(context)
            return [executors_module._run_group_in_worker(g) for g in groups]

    results = run_sweep(spec, executor=RecordingPoolExecutor())
    assert len(shipped) == 1  # one context shipment for many groups
    assert results == run_sweep(grid(), executor=SerialExecutor())


@pytest.mark.parametrize("user_threads", [None, "4"])
def test_pool_workers_take_a_share_of_the_blas_threads(user_threads, monkeypatch):
    """``cpu_count // workers`` each, unless the user set a thread count."""
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if user_threads is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", user_threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    applied = []
    monkeypatch.setattr(executors_module, "set_blas_threads", applied.append)
    monkeypatch.setattr(executors_module, "_WORKER_CONTEXT", None)
    executors_module._init_worker(None, workers=2)
    assert applied == ([] if user_threads else [3])


def test_invalid_start_method_raises_at_construction():
    with pytest.raises(ValueError, match="start_method"):
        ParallelExecutor(max_workers=2, start_method="forkserve")  # typo


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_parent_installed_fault_plan_stays_out_of_pool_workers(grid, start_method):
    """Pool workers run under the environment's schedule only, whatever the
    start method: a forked worker must not keep a plan the parent installed
    (a spawned one never sees it), so the same sweep has the same outcome."""
    from repro import faults
    from repro.faults import FAULTS_ENV, FaultPlan, FaultRule

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method!r} start method on this platform")
    assert FAULTS_ENV not in os.environ
    poison = FaultPlan([FaultRule(seam="execute", kind="exception", times=None)])
    faults.install(poison)
    try:
        executor = ParallelExecutor(max_workers=2, start_method=start_method)
        results = run_sweep(grid(), executor=executor)
        assert faults.current() is poison  # the parent's own plan is untouched
    finally:
        faults.clear()
    assert results == run_sweep(grid(), executor=SerialExecutor())


@pytest.mark.parametrize("chunk_size", [1, 2, 3])
def test_chunked_injection_is_result_identical(grid, chunk_size):
    reference = run_sweep(grid(), executor=SerialExecutor())
    chunked = run_sweep(grid(), executor=SerialExecutor(chunk_size=chunk_size))
    assert chunked == reference


def test_chunk_size_threads_through_parallel_degradation(grid, monkeypatch):
    def broken_context(*args, **kwargs):
        raise OSError("no POSIX semaphores on this host")

    monkeypatch.setattr(multiprocessing, "get_context", broken_context)
    chunked = run_sweep(grid(), executor=ParallelExecutor(max_workers=4, chunk_size=2))
    assert chunked == run_sweep(grid(), executor=SerialExecutor())


@pytest.mark.slow
def test_parallel_chunked_matches_serial(grid):
    parallel = run_sweep(
        grid(), executor=ParallelExecutor(max_workers=2, chunk_size=1)
    )
    assert parallel == run_sweep(grid(), executor=SerialExecutor())


def test_executor_chunk_size_validation():
    with pytest.raises(ValueError, match="chunk_size"):
        SerialExecutor(chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        ParallelExecutor(max_workers=2, chunk_size=0)


def test_model_entry_clean_weights_memoized_and_not_pickled(grid):
    import pickle

    spec = grid()
    entry = spec.models["m"]
    first = entry.clean_weights()
    assert entry.clean_weights() is first  # memoized per process
    for ours, reference in zip(first, entry.quantizer.dequantize(entry.quantized)):
        np.testing.assert_array_equal(ours, reference)
    shipped = pickle.loads(pickle.dumps(entry))
    assert shipped._clean_weights_cache is None  # decoded per worker, not shipped


def test_patcher_and_batch_plan_are_reused_across_groups(grid):
    """One DeltaWeightPatcher / BatchPlan pair per (model, process)."""
    spec = grid()
    context = spec.context()
    entry = context.models["m"]
    plan = context.batch_plan()
    patcher = entry.patcher()
    assert context.batch_plan() is plan
    assert entry.patcher() is patcher
    groups = group_jobs(spec.jobs)
    for group in groups:
        executors_module.execute_group(context, group)
    # Executing every group created no new plan or patcher.
    assert context.batch_plan() is plan
    assert entry.patcher() is patcher
    # Neither cache ships to workers.
    import pickle

    blob = pickle.loads(pickle.dumps(context))
    assert "_plan_cache" not in blob.__dict__
    assert blob.models["m"]._patcher_cache is None


@pytest.mark.slow
def test_pool_worker_death_mid_job_is_salvaged_bit_identically(grid, monkeypatch):
    """A pool worker SIGKILLed mid-job breaks the whole pool; the executor
    keeps clean-finished groups and retries the rest serially, so the sweep
    completes bit-identical to a clean run.  The fault schedule travels via
    the environment and is installed by pool workers only — the parent
    process (where the serial retry runs) never installs it."""
    from repro.faults import FAULTS_ENV, FaultPlan, FaultRule

    plan = FaultPlan([FaultRule(seam="execute", kind="sigkill", nth=1)])
    monkeypatch.setenv(FAULTS_ENV, plan.to_env()[FAULTS_ENV])
    results = run_sweep(grid(), executor=ParallelExecutor(max_workers=2))
    monkeypatch.delenv(FAULTS_ENV)
    serial = run_sweep(grid(), executor=SerialExecutor())
    assert results == serial  # equal, not merely close — nothing lost
