"""The OpenBLAS thread count, read and pinned through ctypes.

numpy exposes no API for its BLAS thread pool, so this module finds the
OpenBLAS library already loaded into the process (on Linux, through
``/proc/self/maps``) and calls its ``get/set_num_threads`` entry points:
the ``scipy_openblas`` names of the numpy wheels, or the plain OpenBLAS
ones.  The setting is process-wide; OpenBLAS's ``*_local`` variant is not
thread-local in the bundled builds, so callers pin and restore it around a
section instead.  Where no controllable OpenBLAS is found (another BLAS,
another OS) :func:`blas_threads` reports 1 and :func:`set_blas_threads` and
:func:`single_threaded_blas` do nothing.

OpenBLAS reads its thread variables once, when it loads, so a process that
changes them later (a forked worker) applies its count through
:func:`set_blas_threads`; :func:`blas_share` is the count a process gets
when several share the host.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

__all__ = [
    "BLAS_THREAD_VARS",
    "blas_share",
    "blas_threads",
    "set_blas_threads",
    "single_threaded_blas",
]

#: The BLAS and OpenMP thread-count variables.  Setting any of them is the
#: user's choice of thread count, which :func:`blas_share` leaves alone.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

#: ``(get, set)`` symbol pairs, most specific first.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The loaded OpenBLAS's ``(get, set)`` thread-count functions, or None."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8", errors="surrogateescape") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone and cannot be reopened
            lib = None
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int:
    """OpenBLAS's current thread count; 1 when it cannot be controlled."""
    functions = _openblas()
    return max(1, functions[0]()) if functions is not None else 1


def set_blas_threads(count: int) -> None:
    """Set OpenBLAS's thread count (at least 1) for the whole process."""
    functions = _openblas()
    if functions is not None:
        functions[1](max(1, int(count)))


def blas_share(processes: int) -> Optional[int]:
    """The BLAS threads each of ``processes`` processes on this host gets.

    ``max(1, cpu_count // processes)``, so that processes started together
    do not each run a pool as wide as the host; ``None`` when this
    process's environment sets any of :data:`BLAS_THREAD_VARS`, because
    then the user has chosen.
    """
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        return None
    return max(1, (os.cpu_count() or 1) // processes)


class _Pin:
    """Blocks pinning OpenBLAS now, and the count the last one restores."""

    lock = threading.Lock()
    active = 0
    previous = 1


def _reset_pin() -> None:
    """In a forked child: no block is pinning, whatever the parent's were doing."""
    _Pin.lock = threading.Lock()
    _Pin.active = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pin)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Pin OpenBLAS to one thread for the block; restore the count after.

    Overlapping blocks on several threads share one pin: the first saves
    the count and the last restores it.
    """
    functions = _openblas()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _Pin.lock:
        if _Pin.active == 0:
            _Pin.previous = get()
            set_(1)
        _Pin.active += 1
    try:
        yield
    finally:
        with _Pin.lock:
            _Pin.active -= 1
            if _Pin.active == 0:
                set_(_Pin.previous)
