"""Program-owned BLAS thread count: pin it to the share one worker may use.

NumPy's OpenBLAS starts as many threads as the machine has CPUs.  Two
workers that each run a full-width BLAS pool oversubscribe the cores and
run slower than one serial process, so every parallel backend pins BLAS to
``max(1, budget // workers)`` threads while its workers run (``budget`` is
:func:`available_workers`, the CPUs this process may use).

The count is set through the OpenBLAS entry points, found with
:mod:`ctypes` in the BLAS libraries already loaded into the process —
``scipy_openblas_set_num_threads64_`` (NumPy's bundled build), then plain
``openblas_set_num_threads``.  When neither exists (another BLAS), the
first attempt emits one :class:`RuntimeWarning` naming the BLAS NumPy was
built against and every later call is a no-op: the run goes on with the
BLAS's own thread count, never a silent guess.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional

import numpy as np  # loads NumPy's BLAS, so the lookup below can find it

__all__ = [
    "available_workers",
    "blas_thread_control",
    "blas_threads",
    "get_blas_threads",
    "pinned_blas_threads",
    "set_blas_threads",
]

#: Known ``(set, get)`` entry-point pairs, in lookup order.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class _Control(NamedTuple):
    """The thread-count entry points of the loaded BLAS."""

    symbol: str
    setter: object
    getter: object


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware): the thread budget."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _loaded_blas_paths() -> List[str]:
    """Shared objects mapped into this process whose file name mentions BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # pragma: no cover - non-Linux: only the global namespace
        return []
    paths = {entry[5].strip() for entry in fields if len(entry) == 6}
    return sorted(path for path in paths if "blas" in os.path.basename(path).lower())


def _lookup() -> Optional[_Control]:
    """The first known symbol pair exported by a loaded library."""
    libraries = []
    for path in _loaded_blas_paths():
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:  # pragma: no cover - unreadable mapping
            continue
    libraries.append(ctypes.CDLL(None))
    for set_name, get_name in _SYMBOLS:
        for lib in libraries:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return _Control(set_name, setter, getter)
    return None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # pragma: no cover - NumPy without dict configs
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


@functools.lru_cache(maxsize=None)
def _control() -> Optional[_Control]:
    """Cached lookup; warns once (per process) when nothing can be set."""
    control = _lookup()
    if control is None:
        warnings.warn(
            f"cannot set the BLAS thread count: the BLAS NumPy uses ({_blas_name()}) exports "
            f"none of {[name for name, _ in _SYMBOLS]}; parallel workers run with its default "
            "thread count and may oversubscribe the CPUs",
            RuntimeWarning,
            stacklevel=3,
        )
    return control


def blas_thread_control() -> Optional[str]:
    """Name of the entry point that sets BLAS threads, or ``None``."""
    control = _control()
    return control.symbol if control is not None else None


def get_blas_threads() -> Optional[int]:
    """The BLAS thread count now in force, or ``None`` when it cannot be read."""
    control = _control()
    return int(control.getter()) if control is not None else None


def set_blas_threads(threads: int) -> Optional[int]:
    """Set the BLAS thread count; returns the previous one (``None`` if unknown)."""
    control = _control()
    if control is None:
        return None
    previous = int(control.getter())
    control.setter(max(1, int(threads)))
    return previous


def pinned_blas_threads(workers: int) -> int:
    """BLAS threads one of ``workers`` concurrent workers may use."""
    return max(1, available_workers() // max(1, int(workers)))


@contextmanager
def blas_threads(threads: int) -> Iterator[None]:
    """Hold the BLAS thread count at ``threads`` for the block, then restore it."""
    previous = set_blas_threads(threads)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
