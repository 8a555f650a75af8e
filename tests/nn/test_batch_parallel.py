"""Batch-parallel eval forwards: sharded logits equal ``model(x)`` byte for byte.

``repro.nn.parallel.sharded_forward`` splits each batch into as many shards
as OpenBLAS has threads and runs the row-wise prefix of the model's first
``Sequential`` on them in parallel.  The shard count is forced here by
replacing the BLAS-count reader the module calls (and lifting the minimum
shard size), so 2- and 3-way shards of any batch run on any host; the real
OpenBLAS count must come back unchanged.
"""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.biterror import make_error_fields
from repro.cluster import ClusterExecutor, coordinator
from repro.data import ArrayDataset, synthetic_cifar10
from repro.eval.redundancy import relu_relevance
from repro.models import MLP, LeNet, ResNet, SimpleNet, WideResNet
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    blas,
    parallel,
)
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import ParallelExecutor, SerialExecutor, SweepSpec, run_sweep
from repro.telemetry.report import load_run_records

BATCH_SIZES = [1, 2, 3, 7, 64, 250]

CONV_MODELS = {
    "simplenet": (lambda: SimpleNet(widths=(4, 8, 8), rng=np.random.default_rng(1)), (3, 8, 8)),
    "lenet": (lambda: LeNet(in_channels=1, width=4, rng=np.random.default_rng(2)), (1, 8, 8)),
    "resnet": (lambda: ResNet(widths=(4, 8), rng=np.random.default_rng(3)), (3, 8, 8)),
    "wideresnet": (
        lambda: WideResNet(base_width=4, widen_factor=2, norm="gn", rng=np.random.default_rng(4)),
        (3, 8, 8),
    ),
    # Every other row-wise layer type, on the same footing as the models.
    "other_layers": (
        lambda: Sequential(
            Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(5)),
            LeakyReLU(), AvgPool2d(2), Sigmoid(), Tanh(), Identity(),
            GlobalAvgPool2d(), Flatten(), Linear(4, 3, rng=np.random.default_rng(6)),
        ),
        (3, 8, 8),
    ),
}


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(k)`` makes the forward see ``k`` BLAS threads.

    The patch lasts for the test, or for the block of the ``monkeypatch``
    context passed as ``patch``.
    """

    def force(k, min_values=1, patch=monkeypatch):
        patch.setattr(parallel, "blas_threads", lambda: k)
        patch.setattr(parallel, "MIN_SHARD_VALUES", min_values)

    return force


def sharded_equals_serial(model, x):
    """Assert the sharded forward equals ``model(x)`` bitwise; return shards used."""
    model.eval()
    expected = model(x)
    out, shards = parallel.sharded_forward(model, x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    return shards


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("name", sorted(CONV_MODELS))
def test_conv_models_shard_bit_identically(name, shards, force_shards):
    build, shape = CONV_MODELS[name]
    model = build()
    force_shards(shards)
    rng = np.random.default_rng(10)
    for n in BATCH_SIZES:
        x = rng.normal(size=(n,) + shape)
        assert sharded_equals_serial(model, x) == min(shards, n)


def test_concurrent_callers_share_one_model_and_pool(force_shards):
    """More callers than cores, each sharding 3 ways, with frequent GIL switches."""
    force_shards(3)
    before = blas.blas_threads()
    model = SimpleNet(widths=(4, 8), rng=np.random.default_rng(0)).eval()
    inputs = [np.random.default_rng(seed).normal(size=(9, 3, 8, 8)) for seed in range(4)]
    expected = [model(x).tobytes() for x in inputs]
    results = {}

    def call(index):
        for _ in range(20):
            out, shards = parallel.sharded_forward(model, inputs[index])
            results.setdefault(index, set()).add((out.tobytes(), shards))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == {i: {(expected[i], 3)} for i in range(len(inputs))}
    assert blas.blas_threads() == before  # overlapping pins restore once


def test_small_batches_run_unsharded(force_shards):
    force_shards(2, min_values=parallel.MIN_SHARD_VALUES)
    model = LeNet(in_channels=1, width=4, rng=np.random.default_rng(2))
    rows = parallel.MIN_SHARD_VALUES // 64  # 1x8x8 values per row
    x = np.random.default_rng(0).normal(size=(2 * rows - 1, 1, 8, 8))
    assert sharded_equals_serial(model, x) == 1
    x = np.random.default_rng(0).normal(size=(2 * rows, 1, 8, 8))
    assert sharded_equals_serial(model, x) == 2


def test_row_wise_classification():
    assert parallel.is_row_wise(Sequential(Conv2d(1, 2, 3), ReLU()))
    assert not parallel.is_row_wise(Linear(2, 2))
    assert not parallel.is_row_wise(BatchNorm2d(2))
    assert not parallel.is_row_wise(Sequential(Conv2d(1, 2, 3), BatchNorm2d(2)))

    class CustomConv(Conv2d):  # may change forward: must opt in itself
        pass

    assert not parallel.is_row_wise(CustomConv(1, 2, 3))


def test_mlp_runs_unsharded(force_shards, monkeypatch):
    """An MLP's first layer is ``Linear``: no prefix, so the pool is never used."""
    force_shards(2)
    monkeypatch.setattr(parallel, "_shard_pool", None)  # any use would raise
    model = MLP(12, 4, hidden=(16, 16), rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(64, 12))
    assert sharded_equals_serial(model, x) == 1


@pytest.mark.parametrize("norm", ["bn", "bn-batchstats"])
def test_batchnorm_always_sees_the_whole_batch(norm, force_shards, monkeypatch):
    """BN is not row-wise: sharding stops before it, so it sees every row."""
    force_shards(2)
    seen = []
    forward = BatchNorm2d.forward

    def recording_forward(self, x):
        seen.append(x.shape[0])
        return forward(self, x)

    monkeypatch.setattr(BatchNorm2d, "forward", recording_forward)
    model = SimpleNet(widths=(4, 8), norm=norm, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(7, 3, 8, 8))
    sharded_equals_serial(model, x)
    assert seen and set(seen) == {7}


class Probe(Module):
    """A row-wise layer that records the BLAS count it runs under, and can raise."""

    row_wise = True

    def __init__(self, raise_on_caller=None):
        super().__init__()
        self.raise_on_caller = raise_on_caller
        self.blas_seen = []

    def forward(self, x):
        self.blas_seen.append(blas.blas_threads())
        on_caller = threading.current_thread() is threading.main_thread()
        if self.raise_on_caller is not None and on_caller == self.raise_on_caller:
            raise ValueError("shard failed")
        return x * 1.0


needs_openblas = pytest.mark.skipif(
    blas._openblas() is None, reason="no controllable OpenBLAS in this process"
)


@needs_openblas
def test_blas_is_pinned_during_shards_and_restored_after(force_shards):
    force_shards(2)
    before = blas.blas_threads()
    probe = Probe()
    model = Sequential(probe, Linear(3, 2, rng=np.random.default_rng(0)))
    sharded_equals_serial(model, np.ones((4, 3)))
    assert probe.blas_seen[-2:] == [1, 1]  # the two shards
    assert blas.blas_threads() == before


@needs_openblas
@pytest.mark.parametrize("raise_on_caller", [True, False])
def test_a_failing_shard_raises_and_restores_blas(raise_on_caller, force_shards):
    force_shards(3)
    before = blas.blas_threads()
    model = Sequential(Probe(raise_on_caller=raise_on_caller)).eval()
    with pytest.raises(ValueError, match="shard failed"):
        parallel.sharded_forward(model, np.ones((5, 3)))
    assert blas.blas_threads() == before
    # The request does not leak into the next direct call.
    assert Sequential(Probe(raise_on_caller=False)).eval()(np.ones((2, 3))).shape == (2, 3)


def test_relu_relevance_counts_every_example(force_shards):
    """``relu_relevance`` calls ``model(x)`` directly, so it never shards."""
    force_shards(2)
    model = SimpleNet(widths=(4, 8), rng=np.random.default_rng(0)).eval()
    x = np.random.default_rng(1).normal(size=(10, 3, 8, 8))
    dataset = ArrayDataset(x, np.zeros(10, dtype=np.int64), num_classes=2)
    last_relu = [m for m in model.modules() if isinstance(m, ReLU)][-1]
    upto = model.body.layers[: model.body.layers.index(last_relu) + 1]
    activations = x
    for layer in upto:
        activations = layer(activations)
    expected = np.count_nonzero(activations) / activations.size
    assert relu_relevance(model, dataset, batch_size=4) == expected


def tiny_conv_spec():
    test = synthetic_cifar10(samples_per_class=3, image_size=8, num_classes=4)
    model = SimpleNet(in_channels=3, num_classes=4, widths=(4, 8), rng=np.random.default_rng(5))
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(quantized.num_weights, 8, 2, seed=11)

    def build():
        spec = SweepSpec(test, batch_size=5)
        spec.add_model("net", model, quantizer, quantized)
        spec.add_field_set("f", fields)
        for rate in (0.005, 0.02):
            spec.add_field_jobs("net", "f", rate)
        return spec

    return model, build


def test_forked_workers_build_their_own_shard_pool(force_shards):
    """A fork child inherits the parent's pool entry but not its threads."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    force_shards(2)
    model, build = tiny_conv_spec()
    # The parent runs a sharded forward first, so its pool exists at fork time.
    assert sharded_equals_serial(model, np.ones((4, 3, 8, 8))) == 2
    forked = {}
    # A child waiting on the parent's dead pool threads would block forever;
    # run the sweep beside the test so that shows up as a failure instead.
    sweep = threading.Thread(
        target=lambda: forked.update(
            run_sweep(build(), executor=ParallelExecutor(max_workers=2, start_method="fork"))
        ),
        daemon=True,
    )
    sweep.start()
    sweep.join(timeout=120)
    if sweep.is_alive():  # let the test process exit after the failure
        for child in multiprocessing.active_children():
            child.kill()
    assert not sweep.is_alive(), "a forked worker blocked on the parent's shard pool"
    assert forked == run_sweep(build(), executor=SerialExecutor())


def shard_gauges(run_dir, sink_prefix):
    return [
        record["gauges"]["eval.shards"]
        for record in load_run_records(run_dir)
        if record.get("type") == "metrics"
        and record["sink"].startswith(sink_prefix)
        and "eval.shards" in record.get("gauges", {})
    ]


@pytest.mark.slow
def test_shard_count_cannot_change_results(force_shards, monkeypatch, tmp_path):
    """Daemons at 1 BLAS thread (1 shard) equal the serial run at 2 shards."""
    for name in coordinator.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # inherited by the daemons
    _, build = tiny_conv_spec()
    serial_dir, cluster_dir = str(tmp_path / "serial"), str(tmp_path / "cluster")
    # Only the serial leg is forced: forked daemons inherit this process's
    # patches, and they must shard as their BLAS thread count says.
    with monkeypatch.context() as serial_leg:
        force_shards(2, patch=serial_leg)
        with telemetry.recording(serial_dir, name="serial", echo=None):
            serial = run_sweep(build(), executor=SerialExecutor())
    with telemetry.recording(cluster_dir, name="coordinator", echo=None):
        clustered = run_sweep(
            build(),
            executor=ClusterExecutor(
                run_dir=cluster_dir, max_workers=2, lease_timeout=10.0, poll_interval=0.02
            ),
        )
    assert set(shard_gauges(serial_dir, "serial")) == {2}
    worker_gauges = shard_gauges(cluster_dir, "worker-")
    assert worker_gauges and set(worker_gauges) == {1}
    assert set(clustered) == set(serial)
    for key, cell in serial.items():
        assert clustered[key] == cell  # equal, not merely close
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
