"""In-memory span tracer that wraps the public functions of each ``repro`` layer.

The traced run of ``run.py`` installs a :class:`Tracer` over the library
from the benchmark's own files: module functions and class methods are
replaced by timing wrappers (every module under ``repro`` that imported a
wrapped function by name gets the wrapper too) and restored afterwards.
Nothing under ``src/`` is edited.

Each wrapped call is a span with a name, a start, an end, its parent span
and the id of the draw or step it belongs to.  Spans stay in memory until
the run ends; :meth:`Tracer.layer_times` turns them into per-layer self
time (a span's duration minus the part its child spans cover) and call
counts.  Counters that need the call's arguments or result (flops, bytes,
flipped bits, touched weights) are computed after the span's end timestamp,
so they do not inflate the layer they describe.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# One span: [name, start, end, parent index or -1, op id].
_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Collect spans and counters from wrapped library calls (main thread only)."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Computed conv flops per GEMM shape ``(N, O, K, P)``.
        self.conv_shapes: Dict[tuple, float] = defaultdict(float)
        #: Id of the draw or step the next spans belong to.
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._thread = threading.get_ident()
        self._ops: Dict[str, int] = defaultdict(int)

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, count=None):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(index)
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def next_op(self, kind: str) -> None:
        """Start the next draw or step: later spans carry its id."""
        self._ops[kind] += 1
        self.op = f"{kind}-{self._ops[kind]}"

    # -- installation ---------------------------------------------------------

    def _wrapper(self, original, name, count, wrap):
        if wrap is not None:
            return functools.wraps(original)(wrap(self, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, count)

        return wrapper

    def wrap_function(self, module, attr: str, name=None, count=None, wrap=None):
        """Replace ``module.attr`` (and every ``repro`` alias of it) by a span.

        ``wrap(tracer, original)`` builds a custom wrapper instead of a plain
        span called ``name``.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, count, wrap)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapper)
                self._undo.append(functools.partial(setattr, mod, attr, original))

    def wrap_method(self, cls, attr: str, name=None, count=None, wrap=None):
        """Replace method ``cls.attr`` like :meth:`wrap_function` (restored by :meth:`uninstall`)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, count, wrap))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s", "total_s", "calls"}}`` over every closed span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for span, children in zip(self.spans, child_time):
            row = table[span[_NAME]]
            duration = span[_END] - span[_START]
            row["total_s"] += duration
            row["self_s"] += duration - children
            row["calls"] += 1
        return dict(table)

    def durations(self, name: str) -> List[float]:
        """Wall time of every closed span called ``name``."""
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def merge(self, other: dict) -> None:
        """Fold a dumped tracer (a worker process's) into this one."""
        offset = len(self.spans)
        for span in other["spans"]:
            parent = span[_PARENT]
            self.spans.append(
                [span[_NAME], span[_START], span[_END],
                 parent + offset if parent >= 0 else -1, span[_OP]]
            )
        for key, value in other["counters"].items():
            self.counters[key] += value
        for key, value in other["conv_shapes"]:
            self.conv_shapes[tuple(key)] += value

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": dict(self.counters),
            "conv_shapes": [[list(k), v] for k, v in self.conv_shapes.items()],
        }

    def dump(self, path: str) -> None:
        """Write the spans and counters to ``path`` (atomically)."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


# -- counters ---------------------------------------------------------------


def _popcount(a: np.ndarray, b: np.ndarray) -> int:
    diff = np.bitwise_xor(a, b)
    return int(np.unpackbits(diff.view(np.uint8)).sum())


def _count_conv(tracer, args, kwargs, out):
    layer = args[0]
    n, o, out_h, out_w = out.shape
    k = layer.in_channels * layer.kernel_size * layer.kernel_size
    flops = 2.0 * n * o * k * out_h * out_w
    tracer.counters["nn.conv.flops"] += flops
    # Computed GEMM traffic: read the columns, write the output.
    tracer.counters["nn.conv.gemm_bytes"] += out.itemsize * (n * k * out_h * out_w + out.size)
    tracer.conv_shapes[(n, o, k, out_h * out_w)] += flops


def _count_im2col(tracer, args, kwargs, out):
    x, kernel_h, kernel_w, stride, padding = args[:5]
    n, c, h, w = x.shape
    cols = out[0]
    padded = n * c * (h + 2 * padding) * (w + 2 * padding)
    # Computed, not measured: read x, write and re-read the padded copy,
    # write the columns.
    tracer.counters["nn.conv.im2col_bytes"] += x.itemsize * (
        x.size + 2 * padded + cols.size
    )


def _count_inject_into_quantized(tracer, args, kwargs, out):
    quantized = args[0]
    perturbed = out[0] if isinstance(out, tuple) else out
    tracer.counters["biterror.bits_flipped"] += _popcount(
        perturbed.flat_codes(), quantized.flat_codes()
    )


def _wrap_iter_apply(tracer, original):
    """Time each ``next()`` of the batched field stream as one injection."""

    def wrapper(fields, quantized, *args, **kwargs):
        stream = original(fields, quantized, *args, **kwargs)
        if threading.get_ident() != tracer._thread:
            return stream
        clean = quantized.flat_codes()

        def timed():
            while True:
                tracer.next_op("draw")
                index = tracer.begin("biterror.inject")
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                corrupted, touched = item if isinstance(item, tuple) else (item, None)
                if touched is not None:
                    tracer.counters["biterror.bits_flipped"] += _popcount(
                        corrupted.flat_codes()[touched], clean[touched]
                    )
                yield item

        return timed()

    return wrapper


class _TimedPatch:
    """Time a patcher context's enter (patch) and exit (restore), not its body."""

    def __init__(self, tracer, cm):
        self._tracer = tracer
        self._cm = cm

    def __enter__(self):
        index = self._tracer.begin("eval.patch")
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.end(index)

    def __exit__(self, *exc):
        index = self._tracer.begin("eval.restore")
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.end(index)


def _wrap_patch(touched_arg: int):
    """Wrap a patcher method whose ``touched`` indices are argument ``touched_arg``."""

    def factory(tracer, original):
        def wrapper(patcher, *args, **kwargs):
            cm = original(patcher, *args, **kwargs)
            if threading.get_ident() != tracer._thread:
                return cm
            tracer.counters["eval.touched_weights"] += np.asarray(args[touched_arg]).size
            return _TimedPatch(tracer, cm)

        return wrapper

    return factory


def _wrap_step(tracer, original):
    def wrapper(*args, **kwargs):
        tracer.next_op("step")
        return tracer.call("core.train_step", original, args, kwargs)

    return wrapper


def _wrap_execute_group(tracer, original):
    def wrapper(context, group, *args, **kwargs):
        group = list(group)
        if group and group[0].kind == "clean":
            tracer.op = f"clean-{group[0].content_key[:12]}"
        return tracer.call("runtime.execute_group", original, (context, group) + args, kwargs)

    return wrapper


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every ``repro`` layer the benchmark uses."""
    from repro.biterror import random_errors
    from repro.cluster import coordinator
    from repro.cluster.queue import JobQueue
    from repro.core import clipping, randbet
    from repro.eval import fast_eval, robust_error
    from repro.nn import activations, conv, linear, normalization, pooling
    from repro.optim import sgd
    from repro.quant import fixed_point
    from repro.runtime import engine, executors, spec, store

    # repro.nn: forward/backward of every layer type the workloads build.
    tracer.wrap_method(conv.Conv2d, "forward", "nn.conv.forward", count=_count_conv)
    tracer.wrap_method(conv.Conv2d, "backward", "nn.conv.backward")
    tracer.wrap_function(conv, "im2col", "nn.conv.im2col", count=_count_im2col)
    tracer.wrap_function(conv, "col2im", "nn.col2im")
    tracer.wrap_method(normalization.GroupNorm, "forward", "nn.groupnorm.forward")
    tracer.wrap_method(normalization.GroupNorm, "backward", "nn.groupnorm.backward")
    tracer.wrap_method(pooling.MaxPool2d, "forward", "nn.maxpool.forward")
    tracer.wrap_method(activations.ReLU, "forward", "nn.relu.forward")
    tracer.wrap_method(linear.Linear, "forward", "nn.linear.forward")
    # repro.quant
    quantizer = fixed_point.FixedPointQuantizer
    tracer.wrap_method(quantizer, "quantize", "quant.quantize")
    tracer.wrap_method(quantizer, "dequantize", "quant.dequantize")
    tracer.wrap_function(fixed_point, "decode_array", "quant.decode_array")
    # repro.biterror
    tracer.wrap_function(
        random_errors, "inject_into_quantized", "biterror.inject",
        count=_count_inject_into_quantized,
    )
    tracer.wrap_function(random_errors, "iter_apply_fields_batch", wrap=_wrap_iter_apply)
    tracer.wrap_function(random_errors, "make_error_fields", "biterror.make_fields")
    # repro.eval
    tracer.wrap_function(robust_error, "model_error_and_confidence", "eval.evaluate")
    patcher = fast_eval.DeltaWeightPatcher
    tracer.wrap_method(patcher, "patched", wrap=_wrap_patch(0))
    tracer.wrap_method(patcher, "patched_quantized", wrap=_wrap_patch(1))
    # repro.runtime
    sweep_spec = spec.SweepSpec
    for method in ("__init__", "add_model", "add_field_set", "add_field_jobs"):
        tracer.wrap_method(sweep_spec, method, "runtime.spec_build")
    tracer.wrap_function(engine, "group_jobs", "runtime.plan")
    tracer.wrap_function(executors, "execute_group", wrap=_wrap_execute_group)
    tracer.wrap_method(store.ResultStore, "put", "runtime.store_put")
    # repro.cluster (coordinator side; the daemons are traced by cluster_trace.py)
    tracer.wrap_function(coordinator, "prepare_run_dir", "cluster.submit")
    tracer.wrap_method(coordinator.ClusterExecutor, "_merge_new", "cluster.merge")
    tracer.wrap_method(JobQueue, "claim", "cluster.claim", count=_count_claim)
    # repro.core / repro.optim
    tracer.wrap_method(randbet.RandBETTrainer, "train_step", wrap=_wrap_step)
    tracer.wrap_method(sgd.SGD, "step", "optim.sgd_step")
    tracer.wrap_function(clipping, "clip_model_weights", "core.clip")
    return tracer


def _count_claim(tracer, args, kwargs, out):
    tracer.counters["cluster.claims" if out is not None else "cluster.empty_claims"] += 1
