"""Worker-side telemetry riding the existing ``Backend`` protocol.

Worker processes never see the parent's :class:`TraceRecorder` — it is not
picklable and must not be: telemetry has to cross the process boundary the
same way results do.  The trick is :class:`InstrumentedChunkEvaluator`, a
small picklable wrapper around the real chunk evaluator.  When tracing is
enabled, :func:`map_chunks` wraps the evaluator before handing it to
``backend.map``; each worker then returns ``(result, frame)`` instead of
``result``, where the :class:`ChunkFrame` carries chunk wall time, payload
bytes and per-kernel dispatch totals.  The parent strips the frames off in
task order — ``backend.map`` preserves submission order on every backend —
so the merge into the trace is deterministic.

Because enablement travels *through the wrapped function* rather than
through environment or global state, the scheme works identically for the
serial backend (inline calls), the thread backend and the multiprocess
backend (fork/spawn workers, persistent pools included).

When tracing is disabled, :func:`map_chunks` is a straight pass-through to
``backend.map`` — no wrapper, no frames, structurally the pre-observability
call.

**Determinism contract.**  Frames never consume randomness and never read
result-array contents (only ``nbytes`` metadata); every field except
``seconds`` and ``worker`` is deterministic for a deterministic workload.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from . import dispatch as _dispatch
from . import recorder as _recorder

__all__ = [
    "ChunkFrame",
    "InstrumentedChunkEvaluator",
    "KernelDispatch",
    "map_chunks",
]


@dataclass(frozen=True)
class KernelDispatch:
    """One aggregated kernel-dispatch row inside a chunk frame."""

    kernel: str
    n: int
    batch: int
    columns: int
    calls: int
    seconds: float

    @classmethod
    def from_entry(cls, entry: dict) -> "KernelDispatch":
        return cls(
            kernel=str(entry["kernel"]),
            n=int(entry["n"]),
            batch=int(entry["batch"]),
            columns=int(entry["columns"]),
            calls=int(entry["calls"]),
            seconds=float(entry["seconds"]),
        )

    def to_record(self) -> dict:
        return {
            "kernel": self.kernel,
            "n": self.n,
            "batch": self.batch,
            "columns": self.columns,
            "calls": self.calls,
            "seconds": self.seconds,
        }


@dataclass
class ChunkFrame:
    """Compact picklable telemetry for one evaluated chunk.

    Produced worker-side by :class:`InstrumentedChunkEvaluator`, shipped
    back piggybacked on the chunk result, merged parent-side in task order.
    ``index`` is stamped by the parent at merge time (the worker does not
    know its position in the schedule).  ``worker`` is the native id of
    the thread that evaluated the chunk: a thread-backend thread, or the
    main thread of a worker process, whose native id is its pid.
    """

    label: str
    start: int
    count: int
    seconds: float
    worker: int
    task_bytes: int
    result_bytes: int
    dispatches: List[KernelDispatch] = field(default_factory=list)
    index: int = -1

    def to_record(self) -> dict:
        return {
            "type": "frame",
            "label": self.label,
            "index": self.index,
            "start": self.start,
            "count": self.count,
            "seconds": self.seconds,
            "worker": self.worker,
            "task_bytes": self.task_bytes,
            "result_bytes": self.result_bytes,
            "dispatches": [entry.to_record() for entry in self.dispatches],
        }

    @classmethod
    def from_record(cls, record: dict) -> "ChunkFrame":
        return cls(
            label=str(record.get("label", "")),
            start=int(record.get("start", -1)),
            count=int(record.get("count", 0)),
            seconds=float(record.get("seconds", 0.0)),
            worker=int(record.get("worker", -1)),
            task_bytes=int(record.get("task_bytes", 0)),
            result_bytes=int(record.get("result_bytes", 0)),
            dispatches=[KernelDispatch.from_entry(entry) for entry in record.get("dispatches", ())],
            index=int(record.get("index", -1)),
        )


def _payload_bytes(value: Any) -> int:
    """Total ``nbytes`` of the arrays inside a (possibly nested) result.

    Reads only the ``nbytes`` attribute — never array contents — so the
    accounting cannot perturb device synchronization or values.
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_payload_bytes(item) for item in value)
    return 0


def _chunk_fields(task: Any) -> tuple:
    """``(start, count)`` of a chunk task, tolerating foreign shapes.

    Chunk tasks across the engine share the ``(start, trial, streams)``
    layout where ``streams`` is a tuple of sized
    :class:`~repro.utils.rng.StreamSlice` recipes, one per parent stream
    the chunk touches; any other sized payload counts its items.
    """
    start = -1
    count = 0
    if isinstance(task, tuple) and task:
        if isinstance(task[0], int):
            start = task[0]
        streams = task[-1]
        if isinstance(streams, tuple) and streams and all(hasattr(part, "__len__") for part in streams):
            count = sum(len(part) for part in streams)
        elif hasattr(streams, "__len__"):
            count = len(streams)
    return start, count


def _pickled_size(value: Any) -> int:
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


@dataclass(frozen=True)
class InstrumentedChunkEvaluator:
    """Picklable evaluator wrapper returning ``(result, frame)`` per chunk.

    Carrying enablement inside the mapped function — instead of an
    environment variable or module global that fork may or may not copy —
    is what makes worker telemetry uniform across Serial / Thread /
    Multiprocess backends and across pool reuse.

    A chunk-local :class:`~repro.observability.dispatch.DispatchAggregator`
    is installed around the evaluation, so kernel dispatches triggered by
    the chunk are attributed to its frame — and, via
    :func:`~repro.observability.dispatch.use_collector`'s save/restore,
    never double-counted by a parent-side collector when evaluation runs
    inline.
    """

    evaluator: Callable[[Any], Any]
    label: str = ""

    def __call__(self, task: Any) -> tuple:
        start, count = _chunk_fields(task)
        task_bytes = _pickled_size(task)
        collector = _dispatch.DispatchAggregator()
        watch = _recorder.Stopwatch()
        with _dispatch.use_collector(collector):
            result = self.evaluator(task)
        frame = ChunkFrame(
            label=self.label,
            start=start,
            count=count,
            seconds=watch.seconds,
            worker=threading.get_native_id(),
            task_bytes=task_bytes,
            result_bytes=_payload_bytes(result),
            dispatches=[KernelDispatch.from_entry(entry) for entry in collector.entries()],
        )
        return result, frame


def map_chunks(
    backend,
    evaluator: Callable[[Any], Any],
    tasks: Sequence[Any],
    recorder: Optional[object] = None,
    label: str = "",
) -> List[Any]:
    """``backend.map`` with chunk telemetry when a recorder is active.

    Disabled path: the exact ``backend.map(evaluator, tasks)`` call the
    engine made before observability existed.  Enabled path: the evaluator
    is wrapped, frames are stripped off in task order, stamped with their
    schedule index and merged into the recorder; the caller receives the
    plain results either way.
    """
    rec = recorder if recorder is not None else _recorder.active()
    if not rec.enabled:
        return backend.map(evaluator, tasks)
    wrapped = InstrumentedChunkEvaluator(evaluator, label)
    results: List[Any] = []
    for index, (result, frame) in enumerate(backend.map(wrapped, tasks)):
        frame.index = index
        rec.add_frame(frame)
        results.append(result)
    return results
