"""Tracer core: span nesting, null tracer, export/read/merge, summary."""

import json

import numpy as np
import pytest

from repro.trace import (
    NULL_TRACER,
    NullTracer,
    SCHEMA_VERSION,
    TraceNestingError,
    Tracer,
    as_tracer,
    merge_traces,
    phase_rows,
    read_trace,
    render_trace_summary,
    write_trace,
)
from repro.trace.tracer import _NULL_SPAN


class FakeClock:
    """Deterministic monotonic clock for duration assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("solve") as outer:
            with tracer.span("newton_iter", iteration=1) as inner:
                inner.set("residual_norm", 0.5)
        tracer.check_closed()
        by_name = {record.name: record for record in tracer.spans}
        solve_rec = by_name["solve"]
        iter_rec = by_name["newton_iter"]
        assert solve_rec.parent_id is None and solve_rec.depth == 0
        assert iter_rec.parent_id == solve_rec.span_id and iter_rec.depth == 1
        assert iter_rec.attrs == {"iteration": 1, "residual_norm": 0.5}
        # Children complete before parents.
        assert tracer.spans[0].name == "newton_iter"

    def test_durations_are_monotonic(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a, b = {r.name: r for r in tracer.spans}["a"], {r.name: r for r in tracer.spans}["b"]
        assert a.t_start < b.t_start < b.t_end < a.t_end
        assert a.duration > b.duration > 0

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(TraceNestingError, match="out of order"):
            outer.close()

    def test_check_closed_raises_on_dangling_span(self):
        tracer = Tracer()
        tracer.span("dangling")
        with pytest.raises(TraceNestingError, match="dangling"):
            tracer.check_closed()

    def test_exception_inside_span_closes_it_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("risky"):
                raise ValueError("boom")
        tracer.check_closed()
        assert tracer.spans[0].attrs["error"] == "ValueError"

    def test_update_and_set_are_chainable(self):
        tracer = Tracer()
        span = tracer.span("s")
        assert span.set("a", 1) is span
        assert span.update(b=2, c=3) is span
        span.close()
        assert tracer.spans[0].attrs == {"a": 1, "b": 2, "c": 3}


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        tracer = Tracer()
        tracer.counter("restarts")
        tracer.counter("restarts", 2)
        assert tracer.counters["restarts"] == 3

    def test_gauge_keeps_last_value(self):
        tracer = Tracer()
        tracer.gauge("residual", 1.0)
        tracer.gauge("residual", 0.25)
        assert tracer.gauges["residual"] == 0.25

    def test_queries(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("x"):
            pass
        with tracer.span("x"):
            pass
        assert len(tracer.spans_named("x")) == 2
        assert tracer.total_duration("x") == pytest.approx(2.0)
        assert tracer.spans_named("missing") == []
        assert tracer.total_duration("missing") == 0.0


class TestNullTracer:
    def test_as_tracer_maps_none_to_shared_null(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert as_tracer(tracer) is tracer

    def test_null_span_is_a_shared_singleton(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b") is _NULL_SPAN

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        assert null.active is False and Tracer.active is True
        with null.span("anything", key=1) as span:
            span.set("x", 2).update(y=3)
        null.counter("c")
        null.gauge("g", 1.0)  # nothing to assert: no state exists


class TestExporter:
    def _sample_tracer(self) -> Tracer:
        tracer = Tracer(manifest={"command": "test", "seed": 7}, clock=FakeClock())
        with tracer.span("solve", solver="hybrid"):
            with tracer.span("linear_solve", inner_iterations=12):
                pass
        tracer.counter("restarts", 2)
        tracer.gauge("residual", 1e-9)
        return tracer

    def test_write_read_round_trip(self, tmp_path):
        path = write_trace(self._sample_tracer(), tmp_path / "t.jsonl")
        trace = read_trace(path)
        assert trace.manifest["schema"] == SCHEMA_VERSION
        assert trace.manifest["command"] == "test"
        assert trace.manifest["seed"] == 7
        assert "repro_version" in trace.manifest
        assert [span["name"] for span in trace.spans] == ["linear_solve", "solve"]
        assert trace.counters == {"restarts": 2}
        assert trace.gauges == {"residual": 1e-9}

    def test_every_line_is_standalone_json(self, tmp_path):
        path = write_trace(self._sample_tracer(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 + 1 + 1  # manifest + spans + counter + gauge
        for line in lines:
            record = json.loads(line)
            assert record["type"] in ("manifest", "span", "counter", "gauge")

    def test_numpy_attrs_are_coerced(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", norm=np.float64(0.5), count=np.int64(3)):
            pass
        trace = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        attrs = trace.spans[0]["attrs"]
        assert attrs == {"norm": 0.5, "count": 3}

    def test_write_refuses_open_spans(self, tmp_path):
        tracer = Tracer()
        tracer.span("open")
        with pytest.raises(TraceNestingError):
            write_trace(tracer, tmp_path / "t.jsonl")
        write_trace(tracer, tmp_path / "t.jsonl", check_closed=False)

    def test_read_rejects_garbage(self, tmp_path):
        # An invalid *final* line reads as a torn tail (the writer was
        # killed mid-append) — flagged, not fatal...
        torn = tmp_path / "torn.jsonl"
        torn.write_text("not json\n")
        trace = read_trace(torn)
        assert trace.truncated
        assert not trace.spans
        # ...but invalid JSON anywhere earlier is real corruption.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('not json\n{"type": "manifest"}\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(bad)
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            read_trace(unknown)

    def test_merge_renumbers_ids_and_sums_counters(self, tmp_path):
        paths = []
        for index in range(2):
            tracer = Tracer(manifest={"experiment": f"exp{index}"})
            with tracer.span("solve"):
                with tracer.span("linear_solve"):
                    pass
            tracer.counter("restarts", index + 1)
            paths.append(write_trace(tracer, tmp_path / f"shard{index}.jsonl"))
        merged = merge_traces(paths, tmp_path / "merged.jsonl")
        assert merged.counters["restarts"] == 3
        assert len(merged.spans) == 4
        ids = [span["id"] for span in merged.spans]
        assert sorted(ids) == [1, 2, 3, 4]  # one namespace, no collisions
        # Parent links stay shard-local and valid.
        for span in merged.spans:
            if span["parent"] is not None:
                parent = next(s for s in merged.spans if s["id"] == span["parent"])
                assert parent["source"] == span["source"]
        assert {span["source"] for span in merged.spans} == {"exp0", "exp1"}
        assert len(merged.manifest["shards"]) == 2
        # The merged file re-reads identically.
        reread = read_trace(tmp_path / "merged.jsonl")
        assert reread.counters == merged.counters
        assert len(reread.spans) == 4

    def test_merge_requires_input(self, tmp_path):
        with pytest.raises(ValueError):
            merge_traces([], tmp_path / "out.jsonl")


class TestSummary:
    def test_phase_rows_group_and_sum(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        for inner in (3, 5):
            with tracer.span("linear_solve", inner_iterations=inner):
                pass
        trace = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        rows = phase_rows(trace)
        assert len(rows) == 1
        assert rows[0]["phase"] == "linear_solve"
        assert rows[0]["spans"] == 2
        assert rows[0]["inner iterations"] == 8

    def test_render_mentions_manifest_and_counters(self, tmp_path):
        tracer = Tracer(manifest={"command": "figure7", "seed": 0}, clock=FakeClock())
        with tracer.span("solve"):
            pass
        tracer.counter("hybrid_recoveries", 4)
        tracer.gauge("residual", 0.5)
        trace = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        text = render_trace_summary(trace)
        assert "command=figure7" in text
        assert "per-phase breakdown" in text
        assert "hybrid_recoveries" in text
        assert "gauges" in text

    def test_render_empty_trace(self):
        from repro.trace import TraceFile

        text = render_trace_summary(TraceFile())
        assert "no spans" in text
