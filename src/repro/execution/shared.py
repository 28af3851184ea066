"""Shared-memory hosting of read-only arrays for process backends.

The multiprocess backend pickles every task payload into its workers.  For
Monte Carlo trials the payload includes the evaluation set — a few hundred
kilobytes at smoke scale, megabytes at the paper's full 10k MNIST test set
— re-serialized for *every chunk* of every run of a sweep.  This module
removes that tax: :class:`SharedArray` places an array in POSIX shared
memory (:mod:`multiprocessing.shared_memory`) once, and its pickled form is
just the segment name plus the array metadata.  Workers attach lazily on
first access and cache the mapping per process, so a sweep's worth of
chunks ships the eval set exactly once per worker instead of once per task.

:func:`shared_eval_arrays` is the ergonomic entry point: wrapped around a
sweep (inside its ``pool_scope``), it hosts the eval arrays in shared
memory when the backend actually shards across processes and hands back the
original arrays untouched otherwise.  Consumers resolve either form with
:func:`resolve_array`, which is what the Monte Carlo trial dataclasses do —
so the same trial code runs on plain arrays and shared handles, with
bit-identical results (the shared segment holds a byte-exact copy).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..observability.recorder import active as _active_recorder

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Worker-side cache of attached segments: name -> (SharedMemory, ndarray).
#: Module-level so one worker process attaches each segment exactly once no
#: matter how many chunks reference it.
_ATTACHED: dict = {}

#: Attached-segment cache bound.  A long-lived worker pool serving many
#: hostings (one sweep after another) would otherwise keep every unlinked
#: segment mapped forever; evicting the oldest mappings caps that while
#: still deduplicating attachments within any one sweep.  Sized to hold a
#: full hosting comfortably: the eval arrays plus a shared-memory network
#: (8 parameter arrays per photonic layer).
_MAX_ATTACHED = 64


def _evict_stale_attachments() -> None:
    """Drop the oldest cached mappings beyond the cache bound.

    A mapping may only be *closed* when nothing outside the cache holds its
    view — closing the segment of a live view silently unmaps the memory it
    reads.  The refcount probe below detects outstanding views (the cache
    tuple plus the probe itself account for 2 references); still-referenced
    evictees are merely forgotten, and the ordinary reference chain
    (ndarray -> exported memoryview -> mmap) keeps their memory valid until
    the last view dies.
    """
    while len(_ATTACHED) > _MAX_ATTACHED:
        name = next(iter(_ATTACHED))
        shm, view = _ATTACHED.pop(name)
        if sys.getrefcount(view) <= 2:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - belt and braces
                pass


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is usable here."""
    return _shared_memory is not None


def _attach(name: str):
    """Map the existing segment ``name`` without taking it over.

    The owner registered the segment with its resource tracker when it
    created it, and its ``unlink`` unregisters it.  A worker must leave that
    registration alone.  Python 3.13 attaches untracked (``track=False``).
    Before 3.13 an attach re-registers the name; the tracker keeps names in
    a set, and pool workers share the owner's tracker (``_process_pool``
    starts it before forking), so that is a no-op.  Unregistering here
    would delete the owner's entry: when two workers' attaches interleave,
    the second unregister finds no entry and the tracker prints
    ``KeyError``.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - interpreter dependent
        return _shared_memory.SharedMemory(name=name, track=False)
    return _shared_memory.SharedMemory(name=name)


class SharedArray:
    """Picklable handle to a NumPy array hosted in shared memory.

    Created by the owning (parent) process via :meth:`create`; its pickled
    form carries only ``(name, shape, dtype)``.  Any process resolves the
    handle back to an ndarray through :attr:`array` — the owner sees its
    own mapping, workers attach to the named segment on first access (and
    cache the attachment per process).  The array view is marked read-only:
    the segment is shared, and the Monte Carlo contract is that eval data
    is immutable.
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: np.dtype):
        self.name = name
        self.shape = tuple(int(extent) for extent in shape)
        self.dtype = np.dtype(dtype)
        self._shm = None
        self._array: Optional[np.ndarray] = None
        self._owner = False

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared-memory segment and wrap it."""
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise RuntimeError("multiprocessing.shared_memory is unavailable on this platform")
        array = np.ascontiguousarray(array)
        if array.nbytes == 0:
            raise ValueError("cannot host an empty array in shared memory")
        shm = _shared_memory.SharedMemory(create=True, size=array.nbytes)
        handle = cls(shm.name, array.shape, array.dtype)
        handle._shm = shm
        handle._owner = True
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        view.flags.writeable = False
        handle._array = view
        return handle

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        """The hosted array (attaching to the segment if needed)."""
        if self._array is None:
            cached = _ATTACHED.get(self.name)
            if cached is None:
                shm = _attach(self.name)
                view = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)
                view.flags.writeable = False
                _ATTACHED[self.name] = (shm, view)
                cached = _ATTACHED[self.name]
                _evict_stale_attachments()
            self._array = cached[1]
        return self._array

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop this process's mapping (owner side; workers use the cache)."""
        self._array = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; safe to call once)."""
        if self._owner and _shared_memory is not None:
            try:
                shm = self._shm if self._shm is not None else _shared_memory.SharedMemory(name=self.name)
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None
            self._array = None

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {"name": self.name, "shape": self.shape, "dtype": self.dtype.str}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.shape = tuple(state["shape"])
        self.dtype = np.dtype(state["dtype"])
        self._shm = None
        self._array = None
        self._owner = False

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"SharedArray(name={self.name!r}, shape={self.shape}, dtype={self.dtype})"


#: What array-consuming trial code accepts: a plain ndarray or a handle.
ArrayLike = Union[np.ndarray, SharedArray]


def resolve_array(value: ArrayLike) -> np.ndarray:
    """The ndarray behind ``value`` (attaching a shared handle as needed).

    Accepts plain arrays and :class:`SharedArray` handles — every trial
    dataclass resolves its eval data through this, whatever backend
    hosted it.
    """
    if isinstance(value, SharedArray):
        return value.array
    return np.asarray(value)


# --------------------------------------------------------------------------- #
# shared-memory hosting of compiled networks (mesh parameter arrays)
# --------------------------------------------------------------------------- #

#: Worker-side cache of reconstructed networks, keyed by the tuple of shared
#: segment names (unique per hosting).  Bounded like the attachment cache so
#: a long-lived pool serving many sweeps does not accumulate networks.
_NETWORK_CACHE: dict = {}
_MAX_NETWORKS = 4


def _wrap_array(array: np.ndarray):
    """Host ``array`` in shared memory (tiny/empty arrays travel inline)."""
    array = np.ascontiguousarray(array)
    if array.nbytes == 0:
        return array
    return SharedArray.create(array)


class SharedNetwork:
    """Picklable handle to a compiled SPNN whose parameters live in shared memory.

    The multiprocess backend pickles every task payload into its workers;
    for the network trials that payload is dominated by the compiled
    ``SPNN`` — the weight matrices plus, for every photonic layer, two
    tuned meshes with their full structural bookkeeping — re-serialized for
    *every chunk*.  This handle ships only the tuned **parameter arrays**
    (phases, output screens, singular values, weights) through POSIX shared
    memory plus a few scalars; its pickled form is a list of segment names.
    Workers rebuild the network once per process from a cached structural
    skeleton (the mesh layout is a pure function of size and scheme — see
    :meth:`~repro.mesh.svd_layer.PhotonicLinearLayer.from_tuned_parameters`)
    and retune it to the shared parameters, which reproduces the source
    network's matrices **bit for bit**.

    Created by the owning process via :meth:`create`; resolve with
    :func:`resolve_network` (owner and workers alike).
    """

    def __init__(self, architecture, layer_states: list):
        self.architecture = architecture
        self.layer_states = layer_states
        self._spnn = None

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, spnn) -> "SharedNetwork":
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise RuntimeError("multiprocessing.shared_memory is unavailable on this platform")
        if not spnn.is_compiled:
            raise ValueError("only a compiled SPNN can be hosted in shared memory")
        layer_states = []
        for layer in spnn.photonic_layers:
            parameters = {
                name: _wrap_array(value) for name, value in layer.tuned_parameters().items()
            }
            layer_states.append(
                {
                    "weight": _wrap_array(layer.weight),
                    "scheme": layer.scheme,
                    "gain": float(layer.gain),
                    "parameters": parameters,
                }
            )
        handle = cls(spnn.architecture, layer_states)
        handle._spnn = spnn  # the owner resolves to the original instance
        return handle

    # ------------------------------------------------------------------ #
    def _segment_names(self) -> tuple:
        names = []
        for state in self.layer_states:
            for value in [state["weight"], *state["parameters"].values()]:
                if isinstance(value, SharedArray):
                    names.append(value.name)
        return tuple(names)

    @property
    def spnn(self):
        """The reconstructed network (cached per process)."""
        if self._spnn is not None:
            return self._spnn
        key = self._segment_names()
        cached = _NETWORK_CACHE.get(key)
        if cached is None:
            cached = self._rebuild()
            while len(_NETWORK_CACHE) >= _MAX_NETWORKS:
                _NETWORK_CACHE.pop(next(iter(_NETWORK_CACHE)))
            _NETWORK_CACHE[key] = cached
        self._spnn = cached
        return cached

    def _rebuild(self):
        from ..mesh.svd_layer import PhotonicLinearLayer
        from ..onn.spnn import SPNN

        layers = []
        weights = []
        for state in self.layer_states:
            weight = resolve_array(state["weight"])
            weights.append(weight)
            parameters = {
                name: resolve_array(value) for name, value in state["parameters"].items()
            }
            layers.append(
                PhotonicLinearLayer.from_tuned_parameters(
                    weight, state["scheme"], state["gain"], parameters
                )
            )
        spnn = SPNN(weights, architecture=self.architecture, compile_hardware=False)
        spnn.photonic_layers = layers
        return spnn

    # ------------------------------------------------------------------ #
    def payload_arrays(self):
        """Every hosted array handle (for lifetime management)."""
        for state in self.layer_states:
            for value in [state["weight"], *state["parameters"].values()]:
                if isinstance(value, SharedArray):
                    yield value

    def close(self) -> None:
        for handle in self.payload_arrays():
            handle.close()

    def unlink(self) -> None:
        for handle in self.payload_arrays():
            handle.unlink()

    def __getstate__(self) -> dict:
        return {"architecture": self.architecture, "layer_states": self.layer_states}

    def __setstate__(self, state: dict) -> None:
        self.architecture = state["architecture"]
        self.layer_states = state["layer_states"]
        self._spnn = None

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"SharedNetwork(layers={len(self.layer_states)})"


#: What network-consuming trial code accepts: a plain SPNN or a handle.
def resolve_network(value):
    """The :class:`~repro.onn.spnn.SPNN` behind ``value`` (rebuilding as needed).

    Accepts plain networks and :class:`SharedNetwork` handles.
    """
    if isinstance(value, SharedNetwork):
        return value.spnn
    return value


@contextmanager
def shared_network(backend, spnn) -> Iterator[object]:
    """Host a compiled network's parameters in shared memory for a sweep.

    Yields a :class:`SharedNetwork` handle when ``backend`` shards tasks
    across processes (and the platform supports shared memory), the
    original network unchanged otherwise, and an already hosted handle
    (or ``None``) as it is.  Wrap this around a sweep inside its
    ``pool_scope`` — like :func:`shared_eval_arrays` — so the per-chunk
    task payload shrinks to the perturbation draws instead of a re-pickled
    compiled SPNN.  Results are bit-identical either way (the rebuilt
    workers' networks reproduce the hosted matrices exactly).
    """
    hosted = spnn is None or isinstance(spnn, SharedNetwork)
    if hosted or not shared_memory_available() or not _backend_shards(backend):
        yield spnn
        return
    with _active_recorder().span("shared/host_network") as span:
        handle = SharedNetwork.create(spnn)
        span.set("layers", len(handle.layer_states))
        span.set("segments", len(tuple(handle.payload_arrays())))
        span.set("bytes", sum(array.nbytes for array in handle.payload_arrays()))
    try:
        yield handle
    finally:
        handle.close()
        handle.unlink()


def _backend_shards(backend) -> bool:
    """Whether ``backend`` actually crosses a process boundary."""
    try:
        parallelism = int(backend.parallelism)
    except (AttributeError, TypeError):
        return False
    # The serial backend (and a 1-worker multiprocess backend) evaluates
    # inline; hosting shared memory for it would be pure overhead.
    from .backends import MultiprocessBackend

    return parallelism > 1 and isinstance(backend, MultiprocessBackend)


@contextmanager
def shared_eval_arrays(backend, *arrays: np.ndarray) -> Iterator[Tuple[ArrayLike, ...]]:
    """Host ``arrays`` in shared memory for the duration of a sweep.

    Yields one value per input: :class:`SharedArray` handles when
    ``backend`` shards tasks across processes (and the platform supports
    shared memory), the original arrays unchanged otherwise.  Handles a
    caller already hosted pass through as they are.  Wrap this around a
    sweep *inside* its ``pool_scope`` so the hosting happens once per
    pool, not once per Monte Carlo run; segments are closed and unlinked
    on exit (Linux keeps them alive for workers that are still attached).
    Results are bit-identical either way — the segments hold byte-exact
    copies.
    """
    arrays = tuple(array if isinstance(array, SharedArray) else np.asarray(array) for array in arrays)
    fresh = [index for index, array in enumerate(arrays) if not isinstance(array, SharedArray)]
    if not fresh or not shared_memory_available() or not _backend_shards(backend):
        yield arrays
        return
    with _active_recorder().span("shared/host_arrays", segments=len(fresh)) as span:
        handles = {index: SharedArray.create(arrays[index]) for index in fresh}
        span.set("bytes", sum(handle.nbytes for handle in handles.values()))
    try:
        yield tuple(handles.get(index, array) for index, array in enumerate(arrays))
    finally:
        for handle in handles.values():
            handle.close()
            handle.unlink()
