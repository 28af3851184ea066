"""Span/counter recorder: the core of the observability layer.

One module-level recorder is active per process.  By default it is the
:class:`NullRecorder`, whose every method is a no-op and whose ``span``
returns a cached null context manager — the *structurally zero-overhead*
disabled path: an instrumented seam costs one module-global read plus a
no-op call, independent of how much telemetry the enabled path would
collect.  :func:`observe` swaps in a :class:`TraceRecorder` for the
duration of a block (and optionally exports the trace/metrics on exit);
setting the ``REPRO_TRACE`` environment variable before the process starts
installs one for the whole process and writes the JSONL trace at exit.

**Determinism contract.**  Recording never consumes randomness and never
reads result-array contents; span/frame/dispatch records are deterministic
in everything but their timing fields.  Traced runs are therefore
bit-identical to untraced runs — asserted by the observability test suite.
"""

from __future__ import annotations

import atexit
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from . import dispatch as _dispatch

__all__ = [
    "TRACE_ENV",
    "perf_seconds",
    "Stopwatch",
    "Span",
    "NullRecorder",
    "TraceRecorder",
    "active",
    "recording_enabled",
    "observe",
]

#: Environment variable enabling process-wide tracing.  Its value is the
#: JSONL trace path written at interpreter exit; the bare values ``"1"`` /
#: ``"true"`` enable in-memory recording without a file (useful to make
#: ``spnn-repro`` experiments record for a ``--metrics-out`` export).
TRACE_ENV = "REPRO_TRACE"


def perf_seconds() -> float:
    """The monotonic high-resolution clock every timing in the repo uses.

    ``time.perf_counter`` — never ``time.time``, which is not monotonic and
    jumps under clock adjustment (NTP slew, suspend/resume), silently
    corrupting measured durations.
    """
    return time.perf_counter()


class Stopwatch:
    """Monotonic elapsed-seconds helper replacing hand-rolled timer pairs.

    ::

        watch = Stopwatch()
        ...work...
        print(watch.seconds)

    ``restart()`` re-arms the same instance for loops that time several
    legs (best-of-N measurement idioms).
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = perf_seconds()

    @property
    def seconds(self) -> float:
        """Seconds elapsed since construction (or the last restart)."""
        return perf_seconds() - self._started

    def restart(self) -> None:
        self._started = perf_seconds()


class _NullSpan:
    """The span the disabled path hands out: a cached, inert singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value) -> None:
        """Attribute writes on the null span vanish."""
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A singleton of this class is the module default; hot seams interact
    with it through exactly the same API as the tracing recorder, so
    enabling tracing changes *what happens*, never *what code runs*.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields) -> None:
        return None

    def counter_add(self, name: str, value: float = 1.0) -> None:
        return None

    def add_frame(self, frame) -> None:
        return None

    def add_dispatch(self, kernel: str, n: int, batch: int, columns: int, seconds: float) -> None:
        return None


class Span:
    """One timed, attributed, possibly nested trace region.

    Use as a context manager (``with recorder.span("mc/run") as span:``);
    ``set`` attaches attributes discovered mid-span (chunk counts, outcome
    flags).  The parent is whatever span was open on the recorder's stack
    at entry, so nesting falls out of ordinary ``with`` structure.
    """

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent_id", "t0", "t1")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, object]):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.t0 = 0.0
        self.t1 = 0.0

    def __enter__(self) -> "Span":
        self.recorder._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.recorder._close(self)
        return None

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def to_record(self) -> Dict[str, object]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }


class TraceRecorder:
    """Collects spans, events, counters, chunk frames and kernel dispatches.

    One instance belongs to one (parent) process; worker processes never
    see it — their telemetry arrives as picklable
    :class:`~repro.observability.frames.ChunkFrame` records piggybacked on
    chunk results and merged via :meth:`add_frame` in deterministic task
    order.  Parent-side kernel dispatches (e.g. the nominal-accuracy
    forward outside any chunk) are captured by registering the recorder as
    the process dispatch collector while it is active
    (:func:`observe` does this).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self.frames: List[object] = []
        self.dispatches = _dispatch.DispatchAggregator()
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, dict(attrs))

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        span.t0 = perf_seconds()

    def _close(self, span: Span) -> None:
        span.t1 = perf_seconds()
        # Tolerate out-of-order exits (a span leaked across a generator);
        # remove wherever it sits instead of corrupting the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self.spans.append(span)

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------ #
    # events / counters / worker telemetry
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields) -> None:
        record = {"type": "event", "name": name, "t": perf_seconds()}
        record.update(fields)
        self.events.append(record)

    def counter_add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def add_frame(self, frame) -> None:
        self.frames.append(frame)

    def add_dispatch(self, kernel: str, n: int, batch: int, columns: int, seconds: float) -> None:
        self.dispatches.record(kernel, n, batch, columns, seconds)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def records(self) -> Iterator[Dict[str, object]]:
        """Every trace record as a JSON-serializable dict (JSONL lines)."""
        yield {"type": "meta", "version": 1, "pid": os.getpid()}
        for span in self.spans:
            yield span.to_record()
        for event in self.events:
            yield event
        for name in sorted(self.counters):
            yield {"type": "counter", "name": name, "value": self.counters[name]}
        for frame in self.frames:
            yield frame.to_record()
        for entry in self.dispatches.entries():
            record = {"type": "dispatch", "scope": "parent"}
            record.update(entry)
            yield record

    def write_jsonl(self, path: str) -> None:
        """Write the trace as one JSON record per line."""
        import json

        with open(path, "w", encoding="utf-8") as stream:
            for record in self.records():
                stream.write(json.dumps(record, default=_jsonable) + "\n")


def _jsonable(value):
    """Last-resort JSON coercion for attribute values (numpy scalars, mostly).

    ``tolist`` before ``item``: it converts scalars and small metadata
    arrays alike, while ``item`` raises on anything with more than one
    element.
    """
    for attribute in ("tolist", "item"):
        converter = getattr(value, attribute, None)
        if callable(converter):
            try:
                return converter()
            except Exception:
                continue
    return repr(value)


# --------------------------------------------------------------------------- #
# active-recorder management
# --------------------------------------------------------------------------- #

_NULL = NullRecorder()
_ACTIVE = _NULL


def active():
    """The process's current recorder (the null recorder unless observing)."""
    return _ACTIVE


def recording_enabled() -> bool:
    """Whether a tracing recorder is currently active."""
    return _ACTIVE.enabled


@contextmanager
def observe(
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    recorder: Optional[TraceRecorder] = None,
) -> Iterator[TraceRecorder]:
    """Record spans/metrics for the duration of the block.

    Installs a fresh :class:`TraceRecorder` (or the one supplied) as the
    process recorder *and* as the kernel-dispatch collector, restores the
    previous recorder on exit, and optionally exports:

    * ``trace_path`` — the full trace as JSONL, one record per line;
    * ``metrics_path`` — the aggregated
      :class:`~repro.observability.report.MetricsReport` as JSON.

    Nested ``observe`` blocks each get their own recorder; the outer one
    resumes when the inner block exits.  The recorder is yielded so callers
    can inspect spans/frames programmatically::

        with observe() as rec:
            yield_sweep(...)
        report = MetricsReport.from_recorder(rec)
    """
    global _ACTIVE
    rec = recorder if recorder is not None else TraceRecorder()
    previous = _ACTIVE
    _ACTIVE = rec
    try:
        with _dispatch.use_collector(rec.dispatches):
            yield rec
    finally:
        _ACTIVE = previous
        if trace_path:
            rec.write_jsonl(trace_path)
        if metrics_path:
            from .report import MetricsReport

            MetricsReport.from_recorder(rec).save(metrics_path)


def _install_env_recorder() -> None:
    """Process-wide tracing when ``REPRO_TRACE`` is set (import-time, once).

    The recorder stays active for the life of the process and the trace is
    written at interpreter exit when the value names a path.  Checked at
    import so the disabled path never pays a per-call environment read.
    """
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value:
        return
    global _ACTIVE
    rec = TraceRecorder()
    _ACTIVE = rec
    _dispatch.set_collector(rec.dispatches)
    if value.lower() not in ("1", "true", "yes"):
        atexit.register(rec.write_jsonl, value)


_install_env_recorder()
