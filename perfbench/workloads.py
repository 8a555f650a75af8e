"""The benchmark's three workloads: a serial RErr cell, a cluster curve, RandBET steps.

Each workload builds its inputs from the seed (:meth:`setup`, timed as
``setup_s``), makes an untimed reference (:meth:`prepare`), then runs closed-
loop *rounds* from this one process until the run's time is up
(:meth:`round`): one sweep call or one block of training steps at a time,
each waiting for its result.  Every round checks its outputs against the
reference and reports what failed.  :meth:`finish` runs the checks that need
the whole run.  See ``run.py`` for why each workload exists.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import biterror
from repro.cluster import ClusterExecutor
from repro.core.randbet import RandBETConfig, RandBETTrainer
from repro.data import make_blob_dataset
from repro.data.synthetic import SyntheticImageConfig, make_synthetic_images
from repro.eval import robust_error
from repro.eval.robust_error import evaluate_robust_error
from repro.eval.sweeps import rerr_sweep
from repro.models import MLP, SimpleNet
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import SerialExecutor
from repro.runtime.store import RESULTS_FILENAME
from repro.utils.serialization import read_jsonl


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set size of this process or of any reaped child, in MB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


@dataclass
class Round:
    """What one closed-loop round did."""

    ops: int
    wall_s: float
    cpu_s: float
    first_result_s: float
    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0


class YieldClock:
    """Pass-through executor that timestamps every group its inner executor yields."""

    def __init__(self, inner, on_group=None):
        self.inner = inner
        self.on_group = on_group
        self.results_path = getattr(inner, "results_path", None)
        self.stamps: List[float] = []

    def run(self, context, groups):
        for output in self.inner.run(context, groups):
            self.stamps.append(time.perf_counter())
            if self.on_group is not None:
                self.on_group()
            yield output


class EvalClock:
    """Completion timestamps of every evaluation the engine runs in-process.

    The engine looks ``model_error_and_confidence`` up through its module on
    every call, so replacing the module attribute observes each draw.
    """

    def __init__(self):
        self.stamps: List[float] = []
        self._original = None

    def __enter__(self):
        self._original = original = robust_error.model_error_and_confidence

        def timed(*args, **kwargs):
            result = original(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            return result

        robust_error.model_error_and_confidence = timed
        return self

    def __exit__(self, *exc):
        robust_error.model_error_and_confidence = self._original
        return False


def _quantizer():
    return FixedPointQuantizer(rquant(8))


# -- cell -------------------------------------------------------------------


class Cell:
    """One paper-shaped RErr cell through ``rerr_sweep`` on the serial executor."""

    rate = 0.01
    batch_size = 64

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.images = 20 if tiny else 250
        self.widths = (4, 8) if tiny else (16, 32, 64)
        self.draws = 1 if tiny else 4

    def setup(self):
        config = SyntheticImageConfig(
            num_classes=10, samples_per_class=self.images // 10, image_size=32,
            channels=3, blobs_per_class=5, noise_std=0.10, max_shift=2,
            amplitude_jitter=0.2, seed=self.seed,
        )
        self.dataset = make_synthetic_images(config)
        self.model = SimpleNet(widths=self.widths, rng=np.random.default_rng(self.seed))
        self.quantizer = _quantizer()
        self.quantized = quantize_model(self.model, self.quantizer)
        self.fields = biterror.make_error_fields(
            self.quantized.num_weights, 8, self.draws, seed=self.seed, backend="sparse"
        )

    def prepare(self):
        # The unfused reference data flow on the first field, outside the
        # timed phase; every later round must repeat the first exactly.
        self.reference = evaluate_robust_error(
            self.model, self.quantizer, self.dataset, self.rate,
            error_fields=self.fields[:1], quantized=self.quantized,
            batch_size=self.batch_size, fused=False,
        )
        self.expected: Optional[List[float]] = None

    def round(self) -> Round:
        executor = YieldClock(SerialExecutor())
        cpu0 = cpu_seconds()
        with EvalClock() as clock:
            start = time.perf_counter()
            curve = rerr_sweep(
                self.model, self.quantizer, self.dataset, [self.rate],
                error_fields=self.fields, quantized=self.quantized,
                batch_size=self.batch_size, executor=executor,
            )
            wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        result = curve.results[0]
        failed = 0
        if self.expected is None:
            self.expected = list(result.errors)
            ok = (
                result.clean_error == self.reference.clean_error
                and result.errors[0] == self.reference.errors[0]
            )
            failed = 0 if ok else len(result.errors)
        else:
            failed = sum(a != b for a, b in zip(result.errors, self.expected))
        failed += abs(len(result.errors) - len(self.expected))
        # The first stamp ends the clean evaluation; each later one ends a draw.
        return Round(
            ops=len(self.fields), wall_s=wall, cpu_s=cpu,
            first_result_s=executor.stamps[0] - start,
            latencies_ms=[(t - start) * 1000.0 for t in clock.stamps[1:]],
            failed=failed,
        )

    def finish(self) -> int:
        return 0


# -- curve_cluster ----------------------------------------------------------


class CurveCluster:
    """A Fig. 7 curve through ``rerr_sweep`` on the cluster executor."""

    batch_size = 256

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.samples = 10 if tiny else 250
        self.hidden = 16 if tiny else 128
        self.rates = [float(r) for r in np.linspace(0.002, 0.05, 2 if tiny else 4)]
        self.num_fields = 2 if tiny else 16
        self.rounds = 0
        #: Traced-run hooks: called on every yielded group, and with the
        #: round's ``ClusterExecutor`` and run directory once it returns.
        self.on_group = None
        self.after_round = None

    def setup(self):
        self.dataset = make_blob_dataset(
            num_classes=6, samples_per_class=self.samples, num_features=32,
            separation=2.5, rng=np.random.default_rng(self.seed),
        )
        self.model = MLP(
            32, 6, hidden=(self.hidden, self.hidden),
            rng=np.random.default_rng(self.seed + 1),
        )
        self.quantizer = _quantizer()
        self.quantized = quantize_model(self.model, self.quantizer)
        self.fields = biterror.make_error_fields(
            self.quantized.num_weights, 8, self.num_fields, seed=self.seed,
            backend="sparse",
        )

    def _sweep(self, executor):
        return rerr_sweep(
            self.model, self.quantizer, self.dataset, self.rates,
            error_fields=self.fields, quantized=self.quantized,
            batch_size=self.batch_size, executor=executor,
        )

    def prepare(self):
        serial = self._sweep(None)
        self.expected = [list(r.errors) for r in serial.results]
        self.expected_clean = serial.clean_error

    def round(self) -> Round:
        self.rounds += 1
        run_dir = os.path.join(self.work_dir, f"curve-{self.rounds}")
        cluster = ClusterExecutor(run_dir=run_dir)
        executor = YieldClock(cluster, on_group=self.on_group)
        draws = len(self.rates) * self.num_fields
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            curve = self._sweep(executor)
        except KeyError:
            # A dead-lettered group leaves cells missing from the results,
            # which rerr_sweep reports by raising while it assembles them.
            curve = None
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        if self.after_round is not None:
            self.after_round(cluster, run_dir)
        failed = draws if curve is None else self._check(curve, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        return Round(
            ops=draws, wall_s=wall, cpu_s=cpu,
            first_result_s=(executor.stamps or [time.perf_counter()])[0] - start,
            latencies_ms=[(t - start) * 1000.0 for t in executor.stamps],
            failed=failed,
        )

    def _check(self, curve, run_dir) -> int:
        failed = 0
        for result, expected in zip(curve.results, self.expected):
            failed += sum(a != b for a, b in zip(result.errors, expected))
        if curve.clean_error != self.expected_clean:
            failed += 1
        # The canonical store holds every cell exactly once.
        keys = [r["key"] for r in read_jsonl(os.path.join(run_dir, RESULTS_FILENAME))]
        cells = len(self.rates) * self.num_fields + 1
        failed += (len(keys) - len(set(keys))) + max(0, cells - len(set(keys)))
        return failed

    def finish(self) -> int:
        return 0


# -- train ------------------------------------------------------------------


class Train:
    """RandBET training steps through ``RandBETTrainer.train_step``."""

    steps_per_round = 10
    replay_steps = 5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.image_size = 8 if tiny else 16
        self.widths = (4, 8) if tiny else (16, 32, 64)
        self.batch_size = 32
        self.losses: List[float] = []

    def _build(self):
        config = SyntheticImageConfig(
            num_classes=10, samples_per_class=2 * self.batch_size // 10 + 1,
            image_size=self.image_size, channels=3, blobs_per_class=5,
            noise_std=0.10, max_shift=2, amplitude_jitter=0.2, seed=self.seed,
        )
        data = make_synthetic_images(config)
        batches = [
            (data.inputs[i:i + self.batch_size], data.labels[i:i + self.batch_size])
            for i in range(0, len(data) - self.batch_size + 1, self.batch_size)
        ]
        model = SimpleNet(widths=self.widths, rng=np.random.default_rng(self.seed))
        trainer = RandBETTrainer(
            model, _quantizer(),
            RandBETConfig(
                epochs=1, batch_size=self.batch_size, clip_w_max=0.1,
                bit_error_rate=0.01, start_loss_threshold=math.inf,
                variant="standard", bit_error_seed=self.seed, seed=self.seed,
            ),
        )
        return trainer, batches

    def setup(self):
        self.trainer, self.batches = self._build()
        self.step = 0

    def prepare(self):
        pass

    def _batch(self, step: int):
        return self.batches[step % len(self.batches)]

    def round(self) -> Round:
        latencies = []
        failed = 0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        first = None
        for _ in range(self.steps_per_round):
            inputs, labels = self._batch(self.step)
            t0 = time.perf_counter()
            loss = self.trainer.train_step(inputs, labels)
            t1 = time.perf_counter()
            first = first or t1
            latencies.append((t1 - t0) * 1000.0)
            self.losses.append(loss)
            failed += not math.isfinite(loss)
            self.step += 1
        wall = time.perf_counter() - start
        return Round(
            ops=self.steps_per_round, wall_s=wall, cpu_s=cpu_seconds() - cpu0,
            first_result_s=first - start, latencies_ms=latencies, failed=failed,
        )

    def finish(self) -> int:
        # Untimed replay of the first steps on a fresh seeded model.
        trainer, _ = self._build()
        failed = 0
        for step, expected in enumerate(self.losses[: self.replay_steps]):
            loss = trainer.train_step(*self._batch(step))
            failed += loss != expected
        return failed
