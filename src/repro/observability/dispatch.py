"""Kernel-dispatch metrics: who ran the column sweep, on what, how fast.

:func:`repro.arrays.sweep.apply_column_sweep` consults the calling
thread's collector before every dispatch.  ``None`` (the default) means disabled —
the sweep's only overhead is one thread-local read per call.  Collectors
are per thread: worker threads start with none installed.  While a
collector is installed, every dispatch records ``(kernel_name, backend,
n, batch, columns, seconds)``; the :class:`DispatchAggregator` folds the
calls into per-shape totals: which kernel served which shapes, and how
long each took.  Recording is observation only — kernel selection never
reads it.

Collectors are installed two ways:

* :func:`repro.observability.recorder.observe` registers the active
  recorder's aggregator, so parent-side sweeps (nominal forwards,
  serial-backend chunks) land in the trace directly;
* :class:`repro.observability.frames.InstrumentedChunkEvaluator` installs
  a chunk-local aggregator around each chunk evaluation — in worker
  processes and inline alike — and ships the result back inside the
  chunk's telemetry frame.

This module is numpy-free (it is imported by the numpy-free kernel
registry) and never touches the swept arrays — only their shapes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DispatchAggregator",
    "active_collector",
    "set_collector",
    "use_collector",
]


class DispatchAggregator:
    """Folds kernel dispatches into deterministic per-shape totals.

    Keyed by ``(kernel, backend, n, batch, columns)``; the call count per
    key is deterministic for a deterministic workload, only the
    accumulated seconds vary between runs.
    """

    __slots__ = ("_totals",)

    def __init__(self) -> None:
        self._totals: Dict[Tuple[str, str, int, int, int], List[float]] = {}

    def record(self, kernel: str, backend: str, n: int, batch: int, columns: int, seconds: float) -> None:
        key = (kernel, backend, n, batch, columns)
        entry = self._totals.get(key)
        if entry is None:
            self._totals[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def __len__(self) -> int:
        return len(self._totals)

    @property
    def total_calls(self) -> int:
        return sum(int(entry[0]) for entry in self._totals.values())

    def merge(self, entries: Iterator[dict]) -> None:
        """Fold exported entries (e.g. from a worker frame) into this one."""
        for entry in entries:
            key = (
                str(entry["kernel"]),
                str(entry["backend"]),
                int(entry["n"]),
                int(entry["batch"]),
                int(entry["columns"]),
            )
            existing = self._totals.get(key)
            if existing is None:
                self._totals[key] = [int(entry["calls"]), float(entry["seconds"])]
            else:
                existing[0] += int(entry["calls"])
                existing[1] += float(entry["seconds"])

    def entries(self) -> List[dict]:
        """Per-shape totals in deterministic (sorted-key) order."""
        return [
            {
                "kernel": kernel,
                "backend": backend,
                "n": n,
                "batch": batch,
                "columns": columns,
                "calls": int(calls),
                "seconds": float(seconds),
            }
            for (kernel, backend, n, batch, columns), (calls, seconds) in sorted(self._totals.items())
        ]


class _Local(threading.local):
    #: This thread's dispatch collector; ``None`` disables dispatch recording.
    collector: Optional[DispatchAggregator] = None


#: Per thread, so a chunk running on a worker thread records into its own
#: frame's aggregator and never into (or over) the caller's collector.
_LOCAL = _Local()


def active_collector() -> Optional[DispatchAggregator]:
    """The calling thread's collector, or ``None`` when dispatch metrics are off."""
    return _LOCAL.collector


def set_collector(collector: Optional[DispatchAggregator]) -> None:
    """Install ``collector`` for the calling thread (``None`` disables)."""
    _LOCAL.collector = collector


@contextmanager
def use_collector(collector: Optional[DispatchAggregator]) -> Iterator[Optional[DispatchAggregator]]:
    """Install ``collector`` for the duration of the block (nestable).

    The previous collector is restored on exit, so a chunk-local
    aggregator (inline serial evaluation under an active recorder) shadows
    the recorder's global one for exactly its chunk — dispatches are never
    double-counted.
    """
    previous = _LOCAL.collector
    _LOCAL.collector = collector
    try:
        yield collector
    finally:
        _LOCAL.collector = previous
