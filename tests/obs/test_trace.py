"""Unit tests for span tracing: nesting, balance, JSONL, the null tracer."""

import json

import pytest

from repro.errors import EbdaError
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    check_balance,
    current_tracer,
    load_trace,
    set_tracer,
    tracing,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestTracer:
    def test_start_and_end_events_per_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            pass
        kinds = [e["event"] for e in tracer.events]
        assert kinds == ["span-start", "span-end"]
        assert len(tracer) == 2

    def test_nested_span_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        starts = {e["name"]: e for e in tracer.events if e["event"] == "span-start"}
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["span"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        starts = {e["name"]: e for e in tracer.events if e["event"] == "span-start"}
        assert starts["a"]["parent"] == starts["b"]["parent"] == starts["root"]["span"]

    def test_start_attrs_on_start_end_attrs_on_end(self):
        tracer = Tracer()
        with tracer.span("s", points=3) as span:
            span.set(hits=2)
        start, end = tracer.events
        assert start["attrs"] == {"points": 3}
        assert end["attrs"] == {"hits": 2}

    def test_elapsed_uses_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s"):
            pass
        end = tracer.events[-1]
        assert end["elapsed_s"] == pytest.approx(1.0)

    def test_exception_records_error_attr_and_balances(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        end = tracer.events[-1]
        assert end["event"] == "span-end"
        assert end["attrs"]["error"] == "ValueError"
        check_balance(tracer.events)

    def test_non_json_attrs_rejected(self):
        tracer = Tracer()
        with pytest.raises(EbdaError, match="strict-JSON"):
            tracer.span("s", bad=object())
        with pytest.raises(EbdaError, match="strict-JSON"):
            tracer.span("s", nan=float("nan"))

    def test_leaked_child_closed_with_parent(self):
        # A span object that escapes its parent's scope must not leave
        # the stream unbalanced when the parent exits first.
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.span("leaked")  # never exited explicitly
        check_balance(tracer.events)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        assert tracer.to_jsonl(path) == 4
        events = load_trace(path)
        assert events == tracer.events
        check_balance(events)


class TestNullTracer:
    def test_shared_noop_span(self):
        a = NULL_TRACER.span("x", k=1)
        b = NULL_TRACER.span("y")
        assert a is b
        with a as span:
            assert span.set(any=1) is span
        assert len(NULL_TRACER) == 0

    def test_to_jsonl_raises(self, tmp_path):
        with pytest.raises(EbdaError, match="null tracer"):
            NULL_TRACER.to_jsonl(tmp_path / "x.jsonl")

    def test_default_current_tracer_disabled(self):
        assert isinstance(current_tracer(), NullTracer)
        assert not current_tracer().enabled


class TestCurrentTracer:
    def test_tracing_scopes_and_restores(self):
        tracer = Tracer()
        before = current_tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_tracing_restores_on_exception(self):
        before = current_tracer()
        with pytest.raises(RuntimeError):
            with tracing(Tracer()):
                raise RuntimeError
        assert current_tracer() is before

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        try:
            set_tracer(None)
            assert isinstance(current_tracer(), NullTracer)
        finally:
            set_tracer(previous)


class TestLoadTrace:
    def _write(self, tmp_path, lines):
        path = tmp_path / "spans.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rejects_invalid_json(self, tmp_path):
        with pytest.raises(EbdaError, match="not valid JSON"):
            load_trace(self._write(tmp_path, ["{nope"]))

    def test_rejects_wrong_schema(self, tmp_path):
        line = json.dumps({"event": "span-start", "schema": 99, "span": 0,
                           "parent": None, "name": "x", "t": 0.0, "attrs": {}})
        with pytest.raises(EbdaError, match="schema"):
            load_trace(self._write(tmp_path, [line]))

    def test_rejects_unknown_event(self, tmp_path):
        line = json.dumps({"event": "weird", "schema": 1, "span": 0,
                           "name": "x", "t": 0.0, "attrs": {}})
        with pytest.raises(EbdaError, match="unknown event"):
            load_trace(self._write(tmp_path, [line]))

    def test_rejects_missing_fields(self, tmp_path):
        line = json.dumps({"event": "span-end", "schema": 1, "span": 0})
        with pytest.raises(EbdaError, match="missing field"):
            load_trace(self._write(tmp_path, [line]))

    def test_missing_file_is_an_ebda_error(self, tmp_path):
        with pytest.raises(EbdaError, match="cannot read trace file"):
            load_trace(tmp_path / "nope.jsonl")

    def test_rejects_non_object_line(self, tmp_path):
        with pytest.raises(EbdaError, match=r"spans\.jsonl:1: .*JSON object"):
            load_trace(self._write(tmp_path, ["[]"]))

    @pytest.mark.parametrize(
        "t, attrs", [("NaN", "{}"), ("0.0", '{"rate": Infinity}'),
                     ("0.0", '{"rate": -Infinity}')]
    )
    def test_rejects_non_finite_tokens(self, tmp_path, t, attrs):
        good = json.dumps({"event": "span-start", "schema": 1, "span": 0,
                           "parent": None, "name": "x", "t": 0.0, "attrs": {}})
        bad = ('{"event": "span-end", "schema": 1, "span": 0, "name": "x",'
               f' "t": {t}, "elapsed_s": 1.0, "attrs": {attrs}}}')
        with pytest.raises(EbdaError, match=r"spans\.jsonl:2: .*strict JSON"):
            load_trace(self._write(tmp_path, [good, bad]))


class TestCheckBalance:
    def test_unclosed_span_detected(self):
        tracer = Tracer()
        tracer.span("open")
        with pytest.raises(EbdaError, match="never ended"):
            check_balance(tracer.events)

    def test_end_without_start_detected(self):
        events = [{"event": "span-end", "schema": 1, "span": 7, "name": "x",
                   "t": 1.0, "elapsed_s": 1.0, "attrs": {}}]
        with pytest.raises(EbdaError, match="without a matching start"):
            check_balance(events)

    def test_name_mismatch_detected(self):
        events = [
            {"event": "span-start", "schema": 1, "span": 0, "parent": None,
             "name": "a", "t": 0.0, "attrs": {}},
            {"event": "span-end", "schema": 1, "span": 0, "name": "b",
             "t": 1.0, "elapsed_s": 1.0, "attrs": {}},
        ]
        with pytest.raises(EbdaError, match="started as"):
            check_balance(events)

    def test_child_under_closed_parent_detected(self):
        events = [
            {"event": "span-start", "schema": 1, "span": 0, "parent": None,
             "name": "a", "t": 0.0, "attrs": {}},
            {"event": "span-end", "schema": 1, "span": 0, "name": "a",
             "t": 1.0, "elapsed_s": 1.0, "attrs": {}},
            {"event": "span-start", "schema": 1, "span": 1, "parent": 0,
             "name": "b", "t": 2.0, "attrs": {}},
            {"event": "span-end", "schema": 1, "span": 1, "name": "b",
             "t": 3.0, "elapsed_s": 1.0, "attrs": {}},
        ]
        with pytest.raises(EbdaError, match="not open"):
            check_balance(events)
