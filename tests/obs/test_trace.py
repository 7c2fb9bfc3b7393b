"""Unit tests for tracing spans and trace buffers."""

import numpy as np

from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import make_engine
from repro.obs import (
    Trace,
    TraceBuffer,
    activate,
    current_trace,
    deactivate,
    span,
    start_trace,
)
from repro.xbar.config import CrossbarConfig


class TestTrace:
    def test_nested_spans(self):
        with start_trace("req") as trace:
            with span("outer"):
                with span("inner"):
                    pass
        d = trace.to_dict()
        assert [s["name"] for s in d["spans"]] == ["outer"]
        assert [s["name"] for s in d["spans"][0]["children"]] == ["inner"]
        outer = d["spans"][0]
        assert outer["duration_ms"] >= outer["children"][0]["duration_ms"]

    def test_span_is_noop_without_active_trace(self):
        assert current_trace() is None
        with span("ignored") as handle:
            assert handle.span is None  # the shared no-op handle

    def test_meta_round_trips(self):
        with start_trace("req", endpoint="/x") as trace:
            with span("stage", rows=3):
                pass
        d = trace.to_dict()
        assert d["meta"] == {"endpoint": "/x"}
        assert d["spans"][0]["meta"] == {"rows": 3}

    def test_add_span_grafts_under_open_span(self):
        trace = Trace("req")
        open_span = trace.begin("http")
        trace.add_span("queue-wait", trace.t0, 0.001)
        trace.end(open_span)
        d = trace.to_dict()
        assert [c["name"] for c in d["spans"][0]["children"]] == \
            ["queue-wait"]

    def test_max_spans_caps_and_counts_drops(self):
        trace = Trace("req", max_spans=2)
        for i in range(5):
            trace.add_span(f"s{i}", trace.t0, 0.0)
        d = trace.to_dict()
        assert len(d["spans"]) == 2
        assert d["dropped_spans"] == 3

    def test_exception_unwinds_open_spans(self):
        with start_trace("req") as trace:
            try:
                with span("outer"):
                    with span("inner"):
                        raise RuntimeError("boom")
            except RuntimeError:
                pass
            with span("after"):
                pass
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert "after" in names  # the stack recovered

    def test_start_trace_appends_to_buffer(self):
        buffer = TraceBuffer(maxlen=2)
        for i in range(3):
            with start_trace("req", trace_id=f"req-{i}"):
                pass
        kept = [t["trace_id"] for t in buffer.snapshot()]
        assert kept == []  # no buffer passed above
        for i in range(3):
            with start_trace("req", trace_id=f"req-{i}", buffer=buffer):
                pass
        kept = [t["trace_id"] for t in buffer.snapshot()]
        assert kept == ["req-1", "req-2"]  # bounded, oldest evicted
        assert len(buffer) == 2


class TestDeterminism:
    def test_engine_output_byte_identical_with_tracing(self):
        """Spans observe wall time only — tracing must not perturb RNG
        or numerics, on either kernel."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((12, 8)) * 0.4
        x = rng.standard_normal((5, 12))
        for backend in (None, "interp"):
            engine = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                                 FuncSimConfig().with_precision(8),
                                 backend=backend)
            prepared = engine.prepare(w)
            untraced = engine.matmul(x, prepared)
            trace = Trace("req")
            token = activate(trace)
            try:
                traced = engine.matmul(x, prepared)
            finally:
                deactivate(token)
            assert untraced.tobytes() == traced.tobytes()
            assert any(s.name == "engine-compute" for s in trace.spans())
