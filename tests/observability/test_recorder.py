"""Tests for the span/counter recorder and its zero-overhead disabled path."""

import json

import pytest

from repro.observability import observe, recording_enabled
from repro.observability.dispatch import active_collector
from repro.observability.recorder import (
    NullRecorder,
    Stopwatch,
    TraceRecorder,
    active,
    perf_seconds,
)


class TestStopwatch:
    def test_measures_elapsed_seconds(self):
        watch = Stopwatch()
        assert watch.seconds >= 0.0
        before = watch.seconds
        assert watch.seconds >= before

    def test_restart_rearms(self):
        watch = Stopwatch()
        for _ in range(1000):
            pass
        watch.restart()
        assert watch.seconds < 1.0

    def test_perf_seconds_is_monotonic(self):
        a = perf_seconds()
        b = perf_seconds()
        assert b >= a


class TestNullRecorder:
    def test_is_the_default_active_recorder(self):
        assert isinstance(active(), NullRecorder)
        assert not recording_enabled()

    def test_every_operation_is_a_noop(self):
        rec = NullRecorder()
        with rec.span("anything", attr=1) as span:
            span.set("key", "value")
        rec.event("evt", x=1)
        rec.counter_add("count", 2.0)
        rec.add_frame(object())
        rec.add_dispatch("k", 4, 2, 3, 0.1)
        assert rec.enabled is False

    def test_span_is_a_cached_singleton(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b")


class TestTraceRecorder:
    def test_observe_installs_and_restores(self):
        assert isinstance(active(), NullRecorder)
        with observe() as rec:
            assert active() is rec
            assert recording_enabled()
            assert active_collector() is rec.dispatches
        assert isinstance(active(), NullRecorder)
        assert active_collector() is None

    def test_observe_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert isinstance(active(), NullRecorder)

    def test_nested_observe_blocks_stack(self):
        with observe() as outer:
            with observe() as inner:
                assert active() is inner
            assert active() is outer

    def test_span_nesting_records_parents(self):
        rec = TraceRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert rec.current_span is inner
            assert rec.current_span is outer
        assert rec.current_span is None
        names = {span.name: span for span in rec.spans}
        assert names["inner"].parent_id == names["outer"].span_id
        assert names["outer"].parent_id is None
        # Inner closes first, so it is appended first.
        assert [span.name for span in rec.spans] == ["inner", "outer"]

    def test_span_attributes_and_timing(self):
        rec = TraceRecorder()
        with rec.span("work", planned=3) as span:
            span.set("found", 7)
        record = rec.spans[0].to_record()
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["attrs"] == {"planned": 3, "found": 7}
        assert record["seconds"] >= 0.0
        assert record["t1"] >= record["t0"]

    def test_span_records_error_type_on_exception(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError("nope")
        assert rec.spans[0].attrs["error"] == "ValueError"

    def test_counters_accumulate(self):
        rec = TraceRecorder()
        rec.counter_add("hits")
        rec.counter_add("hits", 2.0)
        rec.counter_add("misses", 0.5)
        assert rec.counters == {"hits": 3.0, "misses": 0.5}

    def test_events_carry_fields(self):
        rec = TraceRecorder()
        rec.event("recalibrated", sigma=0.05)
        (event,) = rec.events
        assert event["type"] == "event"
        assert event["name"] == "recalibrated"
        assert event["sigma"] == 0.05

    def test_records_start_with_meta_and_cover_everything(self):
        rec = TraceRecorder()
        with rec.span("s"):
            pass
        rec.event("e")
        rec.counter_add("c", 1.0)
        rec.add_dispatch("fused", 16, 8, 2, 0.01)
        records = list(rec.records())
        kinds = [record["type"] for record in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 1
        assert kinds.count("event") == 1
        assert kinds.count("counter") == 1
        assert kinds.count("dispatch") == 1
        dispatch = next(r for r in records if r["type"] == "dispatch")
        assert dispatch["scope"] == "parent"
        assert dispatch["kernel"] == "fused"

    def test_write_jsonl_round_trips_through_json(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("s", n=4):
            rec.counter_add("c", 2.0)
        path = tmp_path / "trace.jsonl"
        rec.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "span" and r["name"] == "s" for r in records)
        assert any(r["type"] == "counter" and r["value"] == 2.0 for r in records)

    def test_write_jsonl_coerces_foreign_values(self, tmp_path):
        import numpy as np

        rec = TraceRecorder()
        with rec.span("s") as span:
            span.set("np_scalar", np.float64(1.5))
            span.set("np_ints", np.arange(3))
        path = tmp_path / "trace.jsonl"
        rec.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().strip().splitlines()]
        span_record = next(r for r in records if r["type"] == "span")
        assert span_record["attrs"]["np_scalar"] == 1.5
        assert span_record["attrs"]["np_ints"] == [0, 1, 2]

    def test_observe_exports_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        with observe(trace_path=str(trace), metrics_path=str(metrics)) as rec:
            with rec.span("exported"):
                pass
        assert trace.exists()
        payload = json.loads(metrics.read_text())
        assert payload["version"] == 1
        assert payload["spans"][0]["name"] == "exported"

    def test_supplied_recorder_is_reused(self):
        rec = TraceRecorder()
        with observe(recorder=rec) as installed:
            assert installed is rec
