"""Spec-hash artifact cache: content-addressed payloads for the fleet.

The multiprocess backend ships heavy read-only payloads through POSIX
shared memory (:mod:`repro.execution.shared`); shared memory does not
cross machines, so the fleet replaces segment names with **spec hashes**:
every heavy artifact — an eval array, a compiled network's tuned
parameters, a whole trial dataclass — is content-addressed by a SHA-256
digest of its defining bytes and stored once per process in the
:class:`ArtifactStore`.  What travels in a chunk task is a tiny
:class:`ArrayRef` / :class:`NetworkRef` / :class:`TrialRef` (a digest,
pickled via ``__reduce__`` to stay within a few dozen bytes of the
``StreamSlice`` per-chunk floor); the coordinator pushes each referenced
blob to each worker exactly once, and a repeat request over the same spec
transfers *only the hashes* — the worker rehydrates from its store and
reuses the already-rebuilt network (skipping both retransfer and
recompilation).

Rehydration rides the existing resolution seam: refs expose the same
``.array`` / ``.spnn`` duck-type as :class:`~repro.execution.shared.
SharedArray` / :class:`~repro.execution.shared.SharedNetwork` (flagged via
``provides_array`` / ``provides_network``), so
:func:`~repro.execution.shared.resolve_array` and ``resolve_network`` —
and therefore every existing trial dataclass — work on refs unchanged.
Networks rebuild through
:meth:`~repro.mesh.svd_layer.PhotonicLinearLayer.from_tuned_parameters`,
the same bit-exact path ``SharedNetwork`` uses.

This module is numpy-free (enforced by ``tools/check_numpy_seam.py``):
digests read ``tobytes()``/``dtype``/``shape`` metadata only, and the
store holds whatever objects it is given without constructing arrays.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ArtifactRef",
    "ArrayRef",
    "NetworkRef",
    "TrialRef",
    "ArtifactStore",
    "artifact_store",
    "array_digest",
    "network_digest",
    "publish_array",
    "publish_network",
    "publish_trial",
    "iter_refs",
    "rehydrate_task",
]

#: Digest length kept in refs: 32 hex characters (128 bits) — far beyond
#: collision reach for a cache, and half the wire weight of full SHA-256.
DIGEST_HEX = 32

#: Default store budget per process; a long-lived worker evicts least
#: recently used blobs beyond it (override via ``ArtifactStore(max_bytes=)``).
DEFAULT_MAX_BYTES = 1 << 30


def _digest(parts: Sequence[bytes]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()[:DIGEST_HEX]


def array_digest(array) -> str:
    """Spec hash of an ndarray: dtype + shape + raw bytes."""
    return _digest(
        [
            b"array\0",
            str(array.dtype.str).encode("ascii"),
            repr(tuple(array.shape)).encode("ascii"),
            array.tobytes(),
        ]
    )


def _array_nbytes(array) -> int:
    return int(getattr(array, "nbytes", 0))


class ArtifactStore:
    """Process-local, content-addressed, LRU-bounded blob store.

    Keys are spec-hash digests; values are the live artifact objects
    (ndarrays, network parameter states, trial dataclasses).  Content
    addressing makes ``put`` idempotent, so the coordinator, its local
    client and every worker can share one store per process without
    coordination.  Thread-safe: the coordinator's per-worker link threads
    read it concurrently.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[Any, int]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def put(self, digest: str, artifact: Any, nbytes: int = 0) -> None:
        with self._lock:
            previous = self._entries.pop(digest, None)
            if previous is not None:
                self._bytes -= previous[1]
            nbytes = int(nbytes)
            self._entries[digest] = (artifact, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                oldest = next(iter(self._entries))
                if oldest == digest:  # never evict the blob just inserted
                    break
                _, evicted = self._entries.pop(oldest)
                self._bytes -= evicted

    def get(self, digest: str) -> Any:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                raise KeyError(
                    f"artifact {digest!r} is not in this process's store "
                    f"({len(self._entries)} cached) — the coordinator must push it first"
                )
            self.hits += 1
            # Refresh recency: dict preserves insertion order, so re-inserting
            # moves the entry to the MRU end.
            self._entries[digest] = self._entries.pop(digest)
            return entry[0]

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def missing(self, digests: Sequence[str]) -> Tuple[str, ...]:
        with self._lock:
            return tuple(digest for digest in digests if digest not in self._entries)

    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
            }


_STORE = ArtifactStore()


def artifact_store() -> ArtifactStore:
    """The process-wide artifact store (coordinator and workers alike)."""
    return _STORE


# --------------------------------------------------------------------------- #
# refs — what actually travels inside a task payload
# --------------------------------------------------------------------------- #


class ArtifactRef:
    """Base class for content-addressed handles; ``digest`` is the identity."""

    __slots__ = ("digest",)

    def __init__(self, digest: str):
        self.digest = digest

    def __eq__(self, other: Any) -> bool:
        return type(other) is type(self) and other.digest == self.digest

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.digest))

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}({self.digest!r})"


class ArrayRef(ArtifactRef):
    """Content-addressed handle to a hosted eval array.

    Duck-typed like :class:`~repro.execution.shared.SharedArray`
    (``provides_array`` + ``.array``), so ``resolve_array`` hands trial
    code the real ndarray in whatever process holds the blob.
    """

    __slots__ = ()
    provides_array = True

    @property
    def array(self):
        return _STORE.get(self.digest)

    @property
    def nbytes(self) -> int:
        return _array_nbytes(_STORE.get(self.digest))

    def __reduce__(self):
        return (ArrayRef, (self.digest,))


class NetworkRef(ArtifactRef):
    """Content-addressed handle to a compiled network's tuned parameters.

    The blob is the ``tuned_parameters`` state of every photonic layer
    (exactly what :class:`~repro.execution.shared.SharedNetwork` hosts);
    :attr:`spnn` rebuilds the network bit-identically via
    ``PhotonicLinearLayer.from_tuned_parameters`` and caches the rebuild
    per digest, so a repeat request skips recompilation entirely.
    """

    __slots__ = ()
    provides_network = True

    @property
    def spnn(self):
        cached = _REBUILT_NETWORKS.get(self.digest)
        if cached is None:
            cached = _rebuild_network(_STORE.get(self.digest))
            while len(_REBUILT_NETWORKS) >= _MAX_REBUILT:
                _REBUILT_NETWORKS.pop(next(iter(_REBUILT_NETWORKS)))
            _REBUILT_NETWORKS[self.digest] = cached
        return cached

    def __reduce__(self):
        return (NetworkRef, (self.digest,))


class TrialRef(ArtifactRef):
    """Content-addressed handle to a whole (picklable) trial dataclass.

    The trial is the per-chunk-invariant part of a task; deduplicating it
    through the store leaves the chunk payload as
    ``(start, TrialRef, stream recipes)`` — a few hundred bytes regardless of
    the trial's contents.
    """

    __slots__ = ()

    def resolve(self):
        return _STORE.get(self.digest)

    def __reduce__(self):
        return (TrialRef, (self.digest,))


#: Worker-side cache of rebuilt networks, keyed by digest; bounded like the
#: shared-memory network cache so a persistent worker serving many specs
#: does not accumulate compiled meshes.
_REBUILT_NETWORKS: Dict[str, Any] = {}
_MAX_REBUILT = 4


def _rebuild_network(state: dict):
    from ...mesh.svd_layer import PhotonicLinearLayer
    from ...onn.spnn import SPNN

    layers = []
    weights = []
    for layer_state in state["layers"]:
        weights.append(layer_state["weight"])
        layers.append(
            PhotonicLinearLayer.from_tuned_parameters(
                layer_state["weight"],
                layer_state["scheme"],
                layer_state["gain"],
                layer_state["parameters"],
            )
        )
    spnn = SPNN(weights, architecture=state["architecture"], compile_hardware=False)
    spnn.photonic_layers = layers
    return spnn


# --------------------------------------------------------------------------- #
# publishing — owner side: register a blob, hand back its ref
# --------------------------------------------------------------------------- #


def publish_array(array) -> ArrayRef:
    """Register an eval array in the process store and return its ref."""
    digest = array_digest(array)
    if digest not in _STORE:
        _STORE.put(digest, array, nbytes=_array_nbytes(array))
    return ArrayRef(digest)


def network_digest(spnn) -> str:
    """Spec hash of a compiled network: architecture + per-layer tuning."""
    parts: List[bytes] = [b"network\0", repr(spnn.architecture).encode()]
    for layer in spnn.photonic_layers:
        parts.append(f"{layer.scheme}:{float(layer.gain)!r}".encode())
        parts.append(array_digest(layer.weight).encode("ascii"))
        for name, value in sorted(layer.tuned_parameters().items()):
            parts.append(name.encode())
            parts.append(array_digest(value).encode("ascii"))
    return _digest(parts)


def publish_network(spnn) -> NetworkRef:
    """Register a compiled network's tuned parameters; return its ref.

    The blob mirrors :class:`~repro.execution.shared.SharedNetwork`'s layer
    states with plain arrays instead of shared-memory handles.
    """
    digest = network_digest(spnn)
    if digest not in _STORE:
        layers = [
            {
                "weight": layer.weight,
                "scheme": layer.scheme,
                "gain": float(layer.gain),
                "parameters": dict(layer.tuned_parameters()),
            }
            for layer in spnn.photonic_layers
        ]
        nbytes = sum(
            _array_nbytes(state["weight"])
            + sum(_array_nbytes(value) for value in state["parameters"].values())
            for state in layers
        )
        _STORE.put(
            digest, {"architecture": spnn.architecture, "layers": layers}, nbytes=nbytes
        )
    ref = NetworkRef(digest)
    # The owner already holds the compiled instance — seed the rebuild cache
    # so local resolution never recompiles.
    if digest not in _REBUILT_NETWORKS:
        while len(_REBUILT_NETWORKS) >= _MAX_REBUILT:
            _REBUILT_NETWORKS.pop(next(iter(_REBUILT_NETWORKS)))
        _REBUILT_NETWORKS[digest] = spnn
    return ref


def publish_trial(trial) -> Tuple[TrialRef, Tuple[str, ...]]:
    """Register a trial dataclass by its pickled bytes; return (ref, deps).

    ``deps`` are the digests of every artifact ref nested inside the trial
    (eval arrays, the network) — the coordinator pushes those alongside the
    trial blob.  Pickled bytes are deterministic for the repo's trial
    dataclasses (module-level types, refs with fixed ``__reduce__``), so a
    repeat sweep over the same spec re-derives the same digest and hits the
    cache.
    """
    blob = pickle.dumps(trial, protocol=pickle.HIGHEST_PROTOCOL)
    digest = _digest([b"trial\0", blob])
    if digest not in _STORE:
        _STORE.put(digest, trial, nbytes=len(blob))
    return TrialRef(digest), tuple(ref.digest for ref in iter_refs(trial))


# --------------------------------------------------------------------------- #
# walking and rehydrating task payloads
# --------------------------------------------------------------------------- #


def iter_refs(value: Any, _depth: int = 0) -> Iterator[ArtifactRef]:
    """Every :class:`ArtifactRef` nested inside ``value`` (bounded walk).

    Walks tuples/lists/dict values and dataclass-style ``__dict__`` /
    ``__dataclass_fields__`` attributes — the shapes task payloads actually
    take — without touching array contents.
    """
    if _depth > 4:
        return
    if isinstance(value, ArtifactRef):
        yield value
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from iter_refs(item, _depth + 1)
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from iter_refs(item, _depth + 1)
        return
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        for name in fields:
            yield from iter_refs(getattr(value, name, None), _depth + 1)


def rehydrate_task(task: Any) -> Any:
    """Resolve the :class:`TrialRef` level of a wire task back to objects.

    Only ``TrialRef`` needs eager resolution (the evaluator *calls* the
    trial); ``ArrayRef``/``NetworkRef`` nested inside the trial resolve
    lazily through ``resolve_array``/``resolve_network`` at evaluation
    time, exactly like shared-memory handles.
    """
    if isinstance(task, TrialRef):
        return task.resolve()
    if isinstance(task, tuple):
        return tuple(
            item.resolve() if isinstance(item, TrialRef) else item for item in task
        )
    return task


class TaskRehydrator:
    """Picklable evaluator wrapper resolving refs before evaluation.

    Installed worker-side *inside* any instrumentation wrapper, so a traced
    chunk's ``task_bytes`` measures the wire payload (refs), not the
    rehydrated one.
    """

    __slots__ = ("evaluator",)

    def __init__(self, evaluator: Callable[[Any], Any]):
        self.evaluator = evaluator

    def __call__(self, task: Any) -> Any:
        return self.evaluator(rehydrate_task(task))

    def __reduce__(self):  # pragma: no cover - workers never re-pickle it
        return (TaskRehydrator, (self.evaluator,))
