"""The OpenBLAS thread count, read and pinned through ctypes.

numpy exposes no API for its BLAS thread pool, so this module finds the
OpenBLAS library already loaded into the process (on Linux, through
``/proc/self/maps``) and calls its ``get/set_num_threads`` entry points:
the ``scipy_openblas`` names of the numpy wheels, or the plain OpenBLAS
ones.  The setting is process-wide; OpenBLAS's ``*_local`` variant is not
thread-local in the bundled builds, so callers pin and restore it around a
section instead.  Where no controllable OpenBLAS is found (another BLAS,
another OS) :func:`blas_threads` reports 1 and :func:`single_threaded_blas`
does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

__all__ = ["blas_threads", "single_threaded_blas"]

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


class _Pin:
    """Blocks pinning OpenBLAS now, and the count the last one restores."""

    lock = threading.Lock()
    active = 0
    previous = 1


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
