"""Batch-parallel eval forwards: shard a batch's row-wise prefix across threads.

An eval forward is mostly im2col, GroupNorm, ReLU and pooling, which are
data-movement bound and run on one core; only the GEMMs inside use the
BLAS threads.  :func:`sharded_forward` instead splits each batch into
``k`` contiguous shards and runs the outermost
:class:`~repro.nn.module.Sequential`'s longest leading run of *row-wise*
layers on them: the caller thread runs shard 0 and a per-process pool of
``k - 1`` threads runs the rest, with OpenBLAS pinned to one thread
meanwhile.  The shards are concatenated in order and the remaining layers
run once on the whole batch, with the BLAS threads back.

``k`` is the BLAS thread count, capped so that every shard holds at least
one row and :data:`MIN_SHARD_VALUES` input values.  Smaller batches run
unsharded: handing a shard to another thread and sharing the GIL with it
costs about 0.7 ms per forward on a 2-vCPU host, more than a small shard's
work.

A layer is row-wise when each output row depends only on the same input
row and is computed by the same floating-point operations at any batch
size, so the sharded forward is bit-identical to ``model(x)``.  A class
declares it with ``row_wise = True`` in its own body (a subclass may
change ``forward``, so it must opt in again); a container is row-wise only
if all its sub-modules are.  ``Conv2d`` qualifies (its batched matmul is
one same-shape GEMM per sample), as do ``GroupNorm``, the activations, the
pools and ``Flatten``.  ``Linear`` does not: OpenBLAS's bits for a row
change with the number of rows M.  Neither does ``BatchNorm2d``, which
keeps eval state and may use batch statistics.

Sharding is requested per call through a thread-local, so the first
``Sequential`` the model's own ``forward`` reaches claims it and nested
ones run as usual; a direct ``model(x)`` never shards.  Eval layers keep
no backward state and take their scratch buffers per thread, which is
what makes running one model on several threads at once safe.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.blas import blas_threads, single_threaded_blas
from repro.utils.markers import hot_path

__all__ = [
    "MIN_SHARD_VALUES",
    "sharded_forward",
    "claim_shards",
    "run_sharded_prefix",
    "is_row_wise",
]

#: Fewest input values (64 KB in float64) a shard may hold.  Measured on a
#: 2-vCPU host, sharding starts to win at 4-8k values per shard for SimpleNet
#: at 32x32 and LeNet at 16x16.
MIN_SHARD_VALUES = 8192


class _Request(threading.local):
    """The shard count requested for, and used by, this thread's forward."""

    def __init__(self) -> None:
        self.shards = 1
        self.used = 1


_request = _Request()

#: ``(pid, size, executor)`` of this process's shard pool.  A forked child
#: sees its parent's entry, whose threads it does not have, and replaces it.
_pool: Optional[Tuple[int, int, ThreadPoolExecutor]] = None


def _shard_pool(size: int) -> ThreadPoolExecutor:
    """A pool of at least ``size`` threads owned by this process.

    A replaced pool is not shut down: a caller may still be submitting to
    it, and its idle threads exit once it is garbage collected.  Two
    threads racing here may each build a pool; both work.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid or _pool[1] < size:
        executor = ThreadPoolExecutor(max_workers=size, thread_name_prefix="repro-shard")
        _pool = (pid, size, executor)
    return _pool[2]


def is_row_wise(module) -> bool:
    """True when ``module`` maps each batch row on its own, bit for bit."""
    return bool(vars(type(module)).get("row_wise", False)) and all(
        is_row_wise(child) for child in module._modules.values()
    )


def _run_layers(layers: Sequence, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer(x)
    return x


@hot_path
def sharded_forward(model, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """``model(x)`` with the row-wise prefix sharded; returns ``(out, shards)``.

    ``shards`` is how many shards the batch was split into: 1 when the model
    is training, the BLAS thread count is 1, the batch is too small to
    split, or the model's first ``Sequential`` starts with a layer that is
    not row-wise.
    """
    shards = min(blas_threads(), len(x), np.size(x) // MIN_SHARD_VALUES)
    if shards <= 1 or model.training:
        return model(x), 1
    _request.shards, _request.used = shards, 1
    try:
        out = model(x)
    finally:
        _request.shards = 1
    return out, _request.used


def claim_shards() -> int:
    """The shard count requested for this thread's forward (then cleared)."""
    shards, _request.shards = _request.shards, 1
    return shards


@hot_path
def run_sharded_prefix(
    layers: Sequence, x: np.ndarray, shards: int
) -> Tuple[np.ndarray, Sequence]:
    """Run the row-wise prefix of ``layers`` over ``shards`` batch shards.

    Returns the concatenated prefix output and the layers still to run.
    """
    prefix = 0
    while prefix < len(layers) and is_row_wise(layers[prefix]):
        prefix += 1
    if prefix == 0:
        return x, layers
    head = layers[:prefix]
    n = len(x)
    bounds = [i * n // shards for i in range(shards + 1)]
    pool = _shard_pool(shards - 1)
    with single_threaded_blas():
        futures = [
            pool.submit(_run_layers, head, x[bounds[i] : bounds[i + 1]])
            for i in range(1, shards)
        ]
        try:
            first = _run_layers(head, x[: bounds[1]])
        finally:
            wait(futures)
    outputs: List[np.ndarray] = [first] + [future.result() for future in futures]
    _request.used = shards
    return np.concatenate(outputs), layers[prefix:]
