"""Span recording for the traced benchmark run, from outside the program.

The traced run wraps the public entry point of each ``repro`` layer it
measures (see :meth:`Tracer.install`); no ``repro`` source is touched.  Each
span records its name, start, end, the span that caused it and the run it
belongs to, plus a few counts (rows, calls, computed flops).  Spans are kept
in memory.  The main process hands them to the caller when the run ends;
a forked pool worker writes its own spans to ``spill_dir`` when it exits, so
the in-chunk layers stay visible on the multiprocess backend too.

Clock: ``time.monotonic`` is CLOCK_MONOTONIC on Linux, shared by every
process, so timestamps from workers, the study and ``run.py`` compare directly.

:func:`layer_metrics` turns one run's spans into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


class NullTracer:
    """Tracing off: spans cost one no-op context manager, nothing is patched."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        yield attrs


class Tracer:
    """In-memory span recorder shared by a run's main process and its workers."""

    enabled = True

    def __init__(self, spill_dir: str):
        self.spill_dir = Path(spill_dir)
        self.run_id = f"run-{os.getpid()}"
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        #: Open spans as ``(id, name)``; a forked worker inherits the
        #: parent's, so its spans name the parent span that caused them.
        self.stack: List[tuple] = []
        self._next_id = 1

    def _adopt_process(self) -> None:
        """Start a fresh span list in a forked worker, written out at its exit."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        self.spans = []
        self.counts = {}
        self._next_id = 1
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        payload = {"pid": self.pid, "spans": self.spans, "counts": self.counts}
        (self.spill_dir / f"spans-{self.pid}.json").write_text(json.dumps(payload))

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the block; the yielded dict takes attributes set inside it."""
        self._adopt_process()
        span_id = f"{self.pid}:{self._next_id}"
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        phase = self.stack[0][1] if self.stack else name
        self.stack.append((span_id, name))
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            self.stack.pop()
            record = {
                "name": name,
                "start": start,
                "end": end,
                "id": span_id,
                "parent": parent,
                "run": self.run_id,
                "phase": phase,
                "pid": self.pid,
            }
            record.update(attrs)
            self.spans.append(record)

    def count(self, name: str) -> None:
        self._adopt_process()
        self.counts[name] = self.counts.get(name, 0) + 1

    def collect(self) -> dict:
        """Main-process spans merged with every worker's spilled spans."""
        spans = list(self.spans)
        counts = dict(self.counts)
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            spans.extend(payload["spans"])
            for name, value in payload["counts"].items():
                counts[name] = counts.get(name, 0) + value
        return {"run": self.run_id, "spans": spans, "counts": counts}

    # ------------------------------------------------------------------ #
    # wrapping entry points
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``attrs(span_attrs, result, *args, **kwargs)`` may add counts once
        the call returns.  The wrapper keeps the original's module and
        qualified name, so a patched module-level function still pickles
        by reference into pool workers.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span_attrs:
                result = original(*args, **kwargs)
                if attrs is not None:
                    attrs(span_attrs, result, *args, **kwargs)
                return result

        setattr(owner, attr, traced)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot inner calls)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self) -> None:
        """Wrap the entry points of the layers measured inside the study."""
        from repro.analysis import monte_carlo, timeline
        from repro.arrays import sweep
        from repro.mesh import mesh
        from repro.nn.optim import Adam
        from repro.onn.spnn import SPNN
        from repro.variation import process, sampler
        from repro.variation.process import DriftState

        def sample_rows(span, result, layers, model, generators, *args, **kwargs):
            span["rows"] = len(generators)

        def state_rows(span, result, state, *args, **kwargs):
            span["rows"] = state.batch_size

        def renull_rows(span, result, state, rows=None):
            span["rows"] = state.batch_size if rows is None else int(rows.sum())

        def forward_cost(span, result, spnn, features, *args, **kwargs):
            # Computed, not counted: a complex multiply-add is 8 real flops
            # and every operand is complex128 (16 bytes).
            batch = int(len(result))
            samples = int(features.shape[0])
            dims = spnn.architecture.layer_dims
            flops = bytes_moved = 0
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                flops += 8 * batch * samples * fan_in * fan_out
                bytes_moved += 16 * batch * (fan_in * fan_out + samples * (fan_in + fan_out))
            span["gflop"] = flops / 1e9
            span["mb"] = bytes_moved / 1e6

        for module in (sampler, process):
            self.wrap(module, "sample_network_perturbation_batch", "variation.sample", sample_rows)
        self.wrap(DriftState, "advance", "variation.advance", state_rows)
        self.wrap(DriftState, "realize", "variation.realize", state_rows)
        self.wrap(DriftState, "renull", "variation.renull", renull_rows)
        self.wrap(SPNN, "hardware_matrices_batch", "mesh.matrix")
        self.wrap(SPNN, "accuracy_batch", "onn.forward", forward_cost)
        for module in (sweep, mesh):
            self.wrap(module, "apply_column_sweep", "arrays.sweep")
        self.wrap(monte_carlo, "evaluate_batch_chunk", "analysis.chunk")
        self.wrap(timeline, "evaluate_timeline_chunk", "analysis.chunk")
        self.wrap_counter(Adam, "step", "nn.steps")


# --------------------------------------------------------------------------- #
# per-layer metrics from one traced run
# --------------------------------------------------------------------------- #


def _seconds(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(trace: dict, frames: List[dict], wall_s: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``wall_s`` as ``run.py`` measured it)."""
    spans = trace["spans"]
    main = [span for span in spans if span["parent"] is None]
    top = {span["name"]: span for span in main}
    study = top["study"]
    study_s = _seconds(study)
    inside = [span for span in spans if span["phase"] == "study"]

    def named(name: str) -> List[dict]:
        return [span for span in inside if span["name"] == name]

    def total(name: str) -> float:
        return sum(_seconds(span) for span in named(name))

    children: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + _seconds(span)
    forward = named("onn.forward")
    chunks = [_seconds(span) for span in named("analysis.chunk")]
    busy = sum(frame["seconds"] for frame in frames)
    return {
        "import.wall_s": _seconds(top["import"]),
        "datasets.synth_s": _seconds(top["datasets.synth"]),
        "datasets.images": top["datasets.synth"]["images"],
        "datasets.fft_s": _seconds(top["datasets.fft"]),
        "nn.train_s": _seconds(top["nn.train"]),
        "nn.steps": trace["counts"].get("nn.steps", 0),
        "mesh.compile_s": _seconds(top["mesh.compile"]),
        "mesh.mzis": top["mesh.compile"]["mzis"],
        "variation.sample_s": total("variation.sample") + total("variation.advance") + total("variation.realize"),
        "variation.rows": sum(
            span["rows"] for span in inside if span["name"] in ("variation.sample", "variation.advance")
        ),
        "variation.renull_s": total("variation.renull"),
        "variation.renull_rows": sum(span["rows"] for span in named("variation.renull")),
        "mesh.matrix_s": total("mesh.matrix"),
        "mesh.matrix_calls": len(named("mesh.matrix")),
        "arrays.sweep_s": total("arrays.sweep"),
        "arrays.sweep_calls": len(named("arrays.sweep")),
        "onn.forward_s": sum(_seconds(span) - children.get(span["id"], 0.0) for span in forward),
        "onn.forward_gflop": sum(span["gflop"] for span in forward),
        "onn.forward_mb": sum(span["mb"] for span in forward),
        "analysis.chunks": len(chunks),
        "analysis.chunk_p50_s": statistics.median(chunks) if chunks else 0.0,
        "analysis.overhead_s": study_s - sum(chunks) / workers,
        "execution.busy_frac": busy / (workers * study_s),
        "execution.wait_s": workers * study_s - busy,
        "trace.coverage": sum(_seconds(span) for span in main) / wall_s,
    }
