"""Read and lower the thread count of the OpenBLAS that NumPy loaded.

ADCNN's parallelism is *across* processes (one per Conv node plus Central),
so a BLAS pool inside each of them only adds threads that spin against the
other processes' useful work (DESIGN.md §5l).  There is no setting:
:func:`pin_single_thread` is called by ``ProcessCluster.start()`` before
the first fork, and forked workers inherit the count.

The library is found the way ``threadpoolctl`` finds it — among the shared
objects already mapped into this process — so nothing is loaded that NumPy
did not load, no environment variable is read or written, and a NumPy built
on another BLAS (or a platform without ``/proc``) is a clean no-op that
reports 0 ("unknown").
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np  # noqa: F401 - loads the BLAS this module looks for

__all__ = ["get_num_threads", "pin_single_thread"]

_MAPS = Path("/proc/self/maps")


@dataclass(frozen=True)
class _ThreadControl:
    """The resolved getter/setter pair of one loaded OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


def _loaded_openblas_paths() -> list[str]:
    """Paths of mapped shared objects whose file name mentions OpenBLAS."""
    try:
        maps = _MAPS.read_text()
    except OSError:
        return []
    # "address perms offset dev inode path": the path is the sixth field.
    paths = {line.split(maxsplit=5)[-1] for line in maps.splitlines() if "/" in line}
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower())


@functools.cache
def _resolve() -> _ThreadControl | None:
    """Locate ``openblas_{get,set}_num_threads`` once per process.

    Wheels rename the symbols (``scipy_`` prefix, ``64_`` suffix for ILP64
    builds), so every combination is tried.  ``None`` when no loaded
    library exports a matching pair.
    """
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)  # already mapped: this only takes a handle
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if getter is None or setter is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return _ThreadControl(get=getter, set=setter)
    return None


def get_num_threads() -> int:
    """Threads this process's OpenBLAS runs a GEMM on; 0 when unknown."""
    control = _resolve()
    return int(control.get()) if control is not None else 0


def pin_single_thread() -> None:
    """Lower this process's OpenBLAS to one thread (no-op without OpenBLAS).

    One-way and idempotent: a second call costs one cached lookup and one
    getter call.  Children forked afterwards inherit the count and never
    create a pool of their own.
    """
    control = _resolve()
    if control is not None and control.get() != 1:
        control.set(1)
