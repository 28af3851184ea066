"""Shared scratch-buffer arena for the stacked ``(B, ...)`` hot paths.

Both vectorized evaluation engines of this library — the batched Monte
Carlo path (``B`` uncertainty realizations stacked along a leading axis)
and the noise-aware training step (``K`` perturbation draws stacked the
same way) — churn through the same kind of short-lived arrays every call:
perturbation draws, stacked hardware matrices, injected weight offsets,
tiled targets.  At smoke scale those allocations are a measurable slice of the
per-step cost; at the paper's 10k-MNIST scale they are tens of megabytes
of allocator traffic per Monte Carlo chunk.

:class:`VectorizedWorkspace` removes that churn: a keyed arena of reusable
buffers that callers request by ``(key, shape, dtype)``.  Buffers are
backed by capacity-tracked flat allocations, so a request for a *smaller*
shape under the same key (the partial tail chunk of a sweep) returns a
view of the existing allocation instead of reallocating, and the next
full-size chunk gets its old buffer back.

Contract
--------
* Buffers come back **uninitialized** (the previous contents of the key);
  callers must fully overwrite them.  Every workspace-aware kernel in this
  library writes its buffer with ``out=``-style full assignments, so the
  results are bit-identical with and without a workspace.
* A key hands out **one** buffer; requesting the same key twice without an
  intervening full overwrite aliases the two uses.  Hot paths therefore
  namespace their keys per pipeline stage (``(("spnn/layer", layer),
  "svd/matrix")``, ``("injector/offsets", layer)``, ...), which keeps
  every concurrently live intermediate on a distinct allocation.
* A workspace is **not** thread-safe and must not be shared across
  threads or processes.  :func:`process_workspace` hands each thread its
  own arena: threads of the thread backend and worker processes of the
  multiprocess backend each lazily create theirs, which is what makes
  workspace reuse safe under the sharded Monte Carlo engine: the arena
  never travels through a pickle and never serves two threads.
"""

from __future__ import annotations

import threading
from math import prod
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

__all__ = ["VectorizedWorkspace", "process_workspace", "reset_process_workspace"]


class VectorizedWorkspace:
    """Keyed arena of reusable scratch buffers for stacked vectorized kernels."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[Hashable, np.ndarray] = {}

    def buffer(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """An uninitialized reusable buffer of ``shape`` / ``dtype`` for ``key``.

        The backing allocation is grown only when the requested element
        count exceeds the key's current capacity (or the dtype changes);
        smaller requests return a contiguous leading view, so alternating
        full and partial chunk sizes never reallocates.
        """
        shape = tuple(int(extent) for extent in shape)
        if any(extent < 0 for extent in shape):
            raise ValueError(f"buffer shape must be non-negative, got {shape}")
        dtype = np.dtype(dtype)
        size = prod(shape)
        backing = self._buffers.get(key)
        if backing is None or backing.dtype != dtype or backing.size < size:
            backing = np.empty((max(size, 1),), dtype)
            self._buffers[key] = backing
        return backing[:size].reshape(shape)

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena's backing allocations."""
        return sum(backing.nbytes for backing in self._buffers.values())

    def clear(self) -> None:
        """Drop every backing allocation (buffers handed out stay valid)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"VectorizedWorkspace(buffers={self.num_buffers}, nbytes={self.nbytes})"


class _Arena(threading.local):
    #: This thread's arena (lazily created).
    workspace: Optional[VectorizedWorkspace] = None


_LOCAL = _Arena()


def process_workspace() -> VectorizedWorkspace:
    """The calling thread's shared arena.

    The trainer, the SPNN batched forward and the Monte Carlo batch trials
    all draw their scratch buffers from this single arena when workspace
    use is enabled, so one training-plus-evaluation pipeline recycles one
    set of allocations.  Each thread (a thread-backend worker, the main
    thread of a worker process) lazily creates its own instance on first
    use, which keeps buffer reuse free of any cross-thread or
    cross-process aliasing by construction.
    """
    if _LOCAL.workspace is None:
        _LOCAL.workspace = VectorizedWorkspace()
    return _LOCAL.workspace


def reset_process_workspace() -> None:
    """Drop the calling thread's arena (tests and memory-pressure escape hatch)."""
    _LOCAL.workspace = None
