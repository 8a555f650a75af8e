"""Host metadata and ceilings measured on the host that runs the benchmark.

Every run records :func:`metadata`: CPU count, the BLAS numpy was built
against, numpy and Python versions, the last-level cache size and every
``*_NUM_THREADS`` variable, set or unset.  The ``curve_cluster`` numbers
depend on these: each worker daemon inherits the thread environment.

The traced run also measures two ceilings for the roofline ratio of conv:
:func:`gemm_gflops` on the dominant conv GEMM shape and :func:`copy_gbps`,
a large array copy.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Optional, Tuple

import numpy as np

#: Thread-count variables the BLAS and OpenMP runtimes numpy may load read.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Bytes per array of the copy-bandwidth measurement.
COPY_BYTES = 64 * 2**20


def last_level_cache_bytes() -> Optional[int]:
    """Size of the largest CPU cache sysfs reports for cpu0, or ``None``."""
    root = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        entries = os.listdir(root)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(root, entry, "size"), encoding="ascii") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            size = int(digits) * scale
            best = size if best is None else max(best, size)
    return best


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def metadata() -> dict:
    """Everything about the host a reader needs to compare two runs."""
    env = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    env.update(
        {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "llc_bytes": last_level_cache_bytes(),
        "thread_env": env,
    }


def gemm_gflops(shape: Tuple[int, int, int, int], seconds: float = 0.5) -> float:
    """Median GFLOP/s of conv's batched GEMM ``(O, K) @ (N, K, P)``."""
    n, o, k, p = shape
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((o, k))
    cols = rng.standard_normal((n, k, p))
    out = np.empty((n, o, p))
    np.matmul(weight, cols, out=out)
    rates = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rates) < 5:
        start = time.perf_counter()
        np.matmul(weight, cols, out=out)
        rates.append(2.0 * n * o * k * p / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def copy_gbps(nbytes: int = COPY_BYTES, repeats: int = 5) -> float:
    """Median GB/s of ``np.copyto`` between two ``nbytes`` arrays (read + write)."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2.0 * nbytes / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)
