"""Aggregated metrics and human-oriented trace summaries.

A JSONL trace is the raw record stream; :class:`MetricsReport` folds it
into the tables people actually ask for: where the wall-clock went
(per-span totals), what the sweep-kernel registry dispatched (per-shape
kernel histogram), how the chunk schedule looked, and how evenly the
workers were loaded.  Reports are plain JSON-serializable data — build one
live from a :class:`~repro.observability.recorder.TraceRecorder`, or
offline from a trace file long after the run, and round-trip it through
:meth:`MetricsReport.save` / :meth:`MetricsReport.load`.

:func:`summarize_trace` is the one-call path from a trace file to a
printable report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .dispatch import DispatchAggregator

__all__ = ["MetricsReport", "summarize_trace"]


@dataclass
class MetricsReport:
    """Aggregated view of one trace; all fields JSON-serializable.

    ``spans``    — ``{"name", "calls", "seconds"}`` totals, sorted by name.
    ``counters`` — counter name to accumulated value.
    ``kernels``  — per-``(kernel, backend, n, batch, columns)`` dispatch
    totals, parent-side and worker-side merged.
    ``chunks``   — the chunk schedule in merge (task) order:
    ``{"label", "index", "start", "count", "worker", "host", "seconds",
    "task_bytes", "result_bytes"}``.
    ``workers``  — per-``(host, worker)`` chunk counts, busy seconds, row
    totals and measured ``rows_per_second`` throughput (with the fleet
    backend chunks evaluate on other machines, so a worker id alone is not an
    identity).
    ``imbalance`` — max/mean worker busy time (1.0 = perfectly balanced),
    ``None`` when no worker was busy.  :attr:`worker_imbalance` breaks the
    same ratio out per host.
    """

    spans: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    kernels: List[dict] = field(default_factory=list)
    chunks: List[dict] = field(default_factory=list)
    workers: List[dict] = field(default_factory=list)
    imbalance: Optional[float] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_recorder(cls, recorder) -> "MetricsReport":
        """Aggregate a live :class:`TraceRecorder` (no file needed)."""
        return cls.from_records(recorder.records())

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "MetricsReport":
        """Aggregate an iterable of trace records (e.g. parsed JSONL lines)."""
        span_totals: Dict[str, List[float]] = {}
        counters: Dict[str, float] = {}
        kernels = DispatchAggregator()
        chunks: List[dict] = []
        for record in records:
            kind = record.get("type")
            if kind == "span":
                name = str(record.get("name", ""))
                entry = span_totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += float(record.get("seconds", 0.0))
            elif kind == "counter":
                counters[str(record["name"])] = float(record.get("value", 0.0))
            elif kind == "dispatch":
                kernels.merge([record])
            elif kind == "frame":
                chunks.append(
                    {
                        "label": record.get("label", ""),
                        "index": int(record.get("index", -1)),
                        "start": int(record.get("start", -1)),
                        "count": int(record.get("count", 0)),
                        "worker": int(record.get("worker", -1)),
                        "host": str(record.get("host", "")),
                        "seconds": float(record.get("seconds", 0.0)),
                        "task_bytes": int(record.get("task_bytes", 0)),
                        "result_bytes": int(record.get("result_bytes", 0)),
                    }
                )
                kernels.merge(record.get("dispatches", ()))
        report = cls(
            spans=[
                {"name": name, "calls": int(calls), "seconds": float(seconds)}
                for name, (calls, seconds) in sorted(span_totals.items())
            ],
            counters=dict(sorted(counters.items())),
            kernels=kernels.entries(),
            chunks=chunks,
        )
        report.workers = _worker_table(chunks)
        report.imbalance = _imbalance(report.workers)
        return report

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def worker_imbalance(self) -> Dict[str, Optional[float]]:
        """Per-host max/mean busy-time ratio across that host's workers.

        The fleet-era refinement of :attr:`imbalance`: with workers spread
        over machines, a single global ratio conflates "one slow host" with
        "one slow worker".  Hosts with no busy worker map to ``None``.
        """
        by_host: Dict[str, List[dict]] = {}
        for entry in self.workers:
            by_host.setdefault(str(entry.get("host", "")), []).append(entry)
        return {host: _imbalance(entries) for host, entries in sorted(by_host.items())}

    def chunk_schedule(self, label: Optional[str] = None) -> List[tuple]:
        """``(start, count)`` pairs in merge order, optionally one label's.

        This is exactly the schedule the engine planned — CI's trace-smoke
        job reconstructs the expected plan and asserts equality.
        """
        return [
            (chunk["start"], chunk["count"])
            for chunk in self.chunks
            if label is None or chunk["label"] == label
        ]

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_json(self) -> dict:
        return {
            "version": 1,
            "spans": self.spans,
            "counters": self.counters,
            "kernels": self.kernels,
            "chunks": self.chunks,
            "workers": self.workers,
            "imbalance": self.imbalance,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MetricsReport":
        return cls(
            spans=list(payload.get("spans", ())),
            counters=dict(payload.get("counters", {})),
            kernels=list(payload.get("kernels", ())),
            chunks=list(payload.get("chunks", ())),
            workers=list(payload.get("workers", ())),
            imbalance=payload.get("imbalance"),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")

    @classmethod
    def load(cls, path: str) -> "MetricsReport":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(json.load(stream))

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """A multi-section plain-text report (what ``summarize_trace`` prints)."""
        lines: List[str] = []
        if self.spans:
            lines.append("spans (total seconds, calls):")
            width = max(len(entry["name"]) for entry in self.spans)
            for entry in sorted(self.spans, key=lambda item: -item["seconds"]):
                lines.append(
                    f"  {entry['name']:<{width}}  {entry['seconds']:9.4f}s  x{entry['calls']}"
                )
        if self.counters:
            lines.append("counters:")
            for name, value in self.counters.items():
                rendered = int(value) if float(value).is_integer() else value
                lines.append(f"  {name} = {rendered}")
        if self.kernels:
            lines.append("kernel dispatches (kernel/backend, n, batch, columns):")
            for entry in self.kernels:
                lines.append(
                    f"  {entry['kernel']}/{entry['backend']}"
                    f"  n={entry['n']} batch={entry['batch']} cols={entry['columns']}"
                    f"  x{entry['calls']}  {entry['seconds']:9.4f}s"
                )
        if self.chunks:
            total_bytes = sum(chunk["task_bytes"] + chunk["result_bytes"] for chunk in self.chunks)
            lines.append(
                f"chunks: {len(self.chunks)} evaluated, "
                f"{sum(chunk['count'] for chunk in self.chunks)} realizations, "
                f"{total_bytes} payload bytes"
            )
        if self.workers:
            lines.append("workers (chunks, busy seconds, rows/s):")
            for entry in self.workers:
                host = str(entry.get("host", "")) or "?"
                rate = entry.get("rows_per_second")
                rate_text = f", {rate:10.1f} rows/s" if rate else ""
                lines.append(
                    f"  {host}/worker {entry['worker']}: "
                    f"{entry['chunks']} chunks, {entry['seconds']:9.4f}s{rate_text}"
                )
            if self.imbalance is not None:
                lines.append(f"  imbalance (max/mean busy): {self.imbalance:.3f}")
            per_host = {
                host: ratio
                for host, ratio in self.worker_imbalance.items()
                if ratio is not None
            }
            if len(per_host) > 1 or (per_host and len(self.worker_imbalance) > 1):
                for host, ratio in per_host.items():
                    lines.append(f"    {host or '?'}: imbalance {ratio:.3f}")
        if not lines:
            lines.append("(empty trace)")
        return "\n".join(lines)


def _worker_table(chunks: List[dict]) -> List[dict]:
    totals: Dict[tuple, List[float]] = {}
    for chunk in chunks:
        key = (str(chunk.get("host", "")), int(chunk["worker"]))
        entry = totals.setdefault(key, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += float(chunk["seconds"])
        entry[2] += int(chunk.get("count", 0))
    return [
        {
            "host": host,
            "worker": worker,
            "chunks": int(count),
            "seconds": float(seconds),
            "rows": int(rows),
            # Measured throughput; ``None`` when never busy.
            "rows_per_second": (float(rows) / seconds) if seconds > 0.0 else None,
        }
        for (host, worker), (count, seconds, rows) in sorted(totals.items())
    ]


def _imbalance(workers: List[dict]) -> Optional[float]:
    busy = [entry["seconds"] for entry in workers if entry["seconds"] > 0.0]
    if not busy:
        return None
    mean = sum(busy) / len(busy)
    return max(busy) / mean if mean > 0.0 else None


def read_trace(path: str) -> List[dict]:
    """Parse a JSONL trace file into its record dicts."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def summarize_trace(path: str) -> str:
    """Aggregate a JSONL trace file and render the plain-text report."""
    return MetricsReport.from_records(read_trace(path)).render()
