"""MetricsReport aggregation, round-trips and trace summaries."""

import json

import numpy as np
import pytest

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.observability import (
    MetricsReport,
    observe,
    read_trace,
    summarize_trace,
)
from repro.observability.frames import ChunkFrame, KernelDispatch


def draw_trial(gen):
    return float(gen.standard_normal())


def _recorded_run(workers=1, **observe_kwargs):
    runner = MonteCarloRunner(iterations=12, chunk_size=4, workers=workers)
    with observe(**observe_kwargs) as rec:
        result = runner.run(draw_trial, rng=5)
    return result, rec


class TestAggregation:
    def test_from_recorder_aggregates_spans_and_chunks(self):
        _, rec = _recorded_run()
        report = MetricsReport.from_recorder(rec)
        (mc_span,) = [entry for entry in report.spans if entry["name"] == "mc/run"]
        assert mc_span["calls"] == 1
        assert mc_span["seconds"] >= 0.0
        assert len(report.chunks) == 3
        assert report.chunk_schedule() == [(0, 4), (4, 4), (8, 4)]
        assert report.chunk_schedule(label="mc") == report.chunk_schedule()
        assert report.chunk_schedule(label="other") == []

    def test_worker_table_and_imbalance(self):
        _, rec = _recorded_run(workers=2)
        report = MetricsReport.from_recorder(rec)
        assert report.workers, "sharded run must produce a worker table"
        assert sum(entry["chunks"] for entry in report.workers) == len(report.chunks)
        assert [entry["worker"] for entry in report.workers] == sorted(
            entry["worker"] for entry in report.workers
        )
        if report.imbalance is not None:
            assert report.imbalance >= 1.0

    def test_imbalance_none_without_busy_workers(self):
        report = MetricsReport.from_records([])
        assert report.imbalance is None
        assert report.workers == []

    def test_frame_dispatches_merge_into_kernels(self):
        frame = ChunkFrame(
            label="mc", start=0, count=4, seconds=0.1, worker=1,
            task_bytes=10, result_bytes=32,
            dispatches=[KernelDispatch("fused", "numpy", 16, 4, 2, 6, 0.05)],
        )
        parent_dispatch = {
            "type": "dispatch", "scope": "parent", "kernel": "fused",
            "backend": "numpy", "n": 16, "batch": 4, "columns": 2,
            "calls": 2, "seconds": 0.01,
        }
        report = MetricsReport.from_records([frame.to_record(), parent_dispatch])
        (entry,) = report.kernels
        assert entry["calls"] == 8, "worker + parent dispatches of one shape fold together"
        assert entry["seconds"] == pytest.approx(0.06)

    def test_counters_sorted(self):
        report = MetricsReport.from_records(
            [
                {"type": "counter", "name": "zeta", "value": 1.0},
                {"type": "counter", "name": "alpha", "value": 2.0},
            ]
        )
        assert list(report.counters) == ["alpha", "zeta"]


class TestRoundTrips:
    def test_save_load_round_trip(self, tmp_path):
        _, rec = _recorded_run()
        report = MetricsReport.from_recorder(rec)
        path = tmp_path / "metrics.json"
        report.save(str(path))
        loaded = MetricsReport.load(str(path))
        assert loaded.to_json() == report.to_json()

    def test_jsonl_trace_reproduces_the_live_report(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _, rec = _recorded_run(trace_path=str(trace))
        live = MetricsReport.from_recorder(rec)
        offline = MetricsReport.from_records(read_trace(str(trace)))
        assert offline.to_json() == live.to_json()

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "meta"}\n\n{"type": "counter", "name": "c", "value": 1}\n')
        records = read_trace(str(path))
        assert [record["type"] for record in records] == ["meta", "counter"]

    def test_metrics_json_is_stable_sorted(self, tmp_path):
        _, rec = _recorded_run()
        path = tmp_path / "metrics.json"
        MetricsReport.from_recorder(rec).save(str(path))
        payload = path.read_text()
        assert json.loads(payload)["version"] == 1
        keys = list(json.loads(payload))
        assert keys == sorted(keys)


class TestRendering:
    def test_render_covers_every_section(self):
        _, rec = _recorded_run(workers=2)
        rec.counter_add("retunes", 3)
        rec.add_dispatch("fused", "numpy", 16, 4, 2, 0.01)
        text = MetricsReport.from_recorder(rec).render()
        assert "spans (total seconds, calls):" in text
        assert "mc/run" in text
        assert "counters:" in text
        assert "retunes = 3" in text
        assert "kernel dispatches" in text
        assert "fused/numpy" in text
        assert "chunks: 4 evaluated, 12 realizations" in text
        assert "workers (chunks, busy seconds, rows/s):" in text

    def test_render_empty_trace(self):
        assert MetricsReport.from_records([]).render() == "(empty trace)"

    def test_summarize_trace_end_to_end(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _recorded_run(trace_path=str(trace))
        text = summarize_trace(str(trace))
        assert "mc/run" in text
        assert "chunks: 3 evaluated" in text


class TestDeterminism:
    def test_samples_unchanged_by_exports(self, tmp_path):
        runner = MonteCarloRunner(iterations=12, chunk_size=4)
        baseline = runner.run(draw_trial, rng=5)
        exported, _ = _recorded_run(
            trace_path=str(tmp_path / "t.jsonl"), metrics_path=str(tmp_path / "m.json")
        )
        assert np.array_equal(baseline.samples, exported.samples)
