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

from ..arrays import ArrayBackend, HOST_BACKEND, active_array_backend

__all__ = ["VectorizedWorkspace", "process_workspace", "reset_process_workspace"]


class VectorizedWorkspace:
    """Keyed arena of reusable scratch buffers for stacked vectorized kernels.

    The arena is bound to an :class:`~repro.arrays.ArrayBackend` (the host
    NumPy backend by default): :meth:`buffer` allocates in that backend's
    namespace, which makes the workspace the single device-buffer
    allocation point of the stacked hot paths — activating a device backend
    turns every workspace-backed intermediate into a device-resident buffer
    with no kernel changes.  :meth:`host_buffer` always allocates host
    memory (staging buffers for host-side draws and stacking).
    """

    __slots__ = ("_buffers", "_host_buffers", "_backend")

    def __init__(self, backend: Optional[ArrayBackend] = None) -> None:
        self._backend = backend if backend is not None else HOST_BACKEND
        self._buffers: Dict[Hashable, object] = {}
        self._host_buffers: Dict[Hashable, np.ndarray] = {}

    @property
    def backend(self) -> ArrayBackend:
        """The array backend this arena allocates on."""
        return self._backend

    def buffer(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
    ):
        """An uninitialized reusable buffer of ``shape`` / ``dtype`` for ``key``.

        The backing allocation is grown only when the requested element
        count exceeds the key's current capacity (or the dtype changes);
        smaller requests return a contiguous leading view, so alternating
        full and partial chunk sizes never reallocates.
        """
        return self._allocate(self._buffers, self._backend, key, shape, dtype)

    def host_buffer(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """Like :meth:`buffer` but always backed by host (NumPy) memory.

        On a host-bound arena this is the same key space as :meth:`buffer`
        (so existing keys keep their allocations); on a device-bound arena
        host staging buffers live in their own key space.
        """
        if self._backend.is_host:
            return self.buffer(key, shape, dtype)
        return self._allocate(self._host_buffers, HOST_BACKEND, key, shape, dtype)

    @staticmethod
    def _allocate(buffers: Dict, backend: ArrayBackend, key, shape, dtype):
        shape = tuple(int(extent) for extent in shape)
        if any(extent < 0 for extent in shape):
            raise ValueError(f"buffer shape must be non-negative, got {shape}")
        dtype = np.dtype(dtype)
        size = prod(shape)
        backing = buffers.get(key)
        if backing is None or backing.dtype != dtype or backing.size < size:
            backing = backend.empty((max(size, 1),), dtype)
            buffers[key] = backing
        return backing[:size].reshape(shape)

    @property
    def num_buffers(self) -> int:
        return len(self._buffers) + len(self._host_buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena's backing allocations."""
        return sum(backing.nbytes for backing in self._buffers.values()) + sum(
            backing.nbytes for backing in self._host_buffers.values()
        )

    def clear(self) -> None:
        """Drop every backing allocation (buffers handed out stay valid)."""
        self._buffers.clear()
        self._host_buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"VectorizedWorkspace(backend={self._backend.name!r}, "
            f"buffers={self.num_buffers}, nbytes={self.nbytes})"
        )


class _Arenas(threading.local):
    def __init__(self) -> None:
        #: This thread's arenas, one per array backend (lazily created).
        self.workspaces: Dict[str, VectorizedWorkspace] = {}


_LOCAL = _Arenas()


def process_workspace() -> VectorizedWorkspace:
    """The calling thread's shared arena for the active array backend.

    The trainer, the SPNN batched forward and the Monte Carlo batch trials
    all draw their scratch buffers from this single arena when workspace
    use is enabled, so one training-plus-evaluation pipeline recycles one
    set of allocations.  Each thread (a thread-backend worker, the main
    thread of a worker process) lazily creates its own instance on first
    use, which keeps buffer reuse free of any cross-thread or
    cross-process aliasing by construction; device execution gets its own
    arena per backend, so host and device buffers never share a key space.
    """
    backend = active_array_backend()
    workspace = _LOCAL.workspaces.get(backend.name)
    if workspace is None:
        workspace = VectorizedWorkspace(backend)
        _LOCAL.workspaces[backend.name] = workspace
    return workspace


def reset_process_workspace() -> None:
    """Drop the calling thread's arenas (tests and memory-pressure escape hatch)."""
    _LOCAL.workspaces.clear()
