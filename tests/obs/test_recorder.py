"""Unit tests for the process-global telemetry recorder."""

from __future__ import annotations

import os
import threading

from repro.obs.recorder import (
    RECORDER,
    Recorder,
    recording,
    set_telemetry,
)


class TestSingleton:
    def test_default_off(self):
        # The process-global recorder starts disabled: nothing is emitted
        # (no manifests, spans or spool) unless telemetry is switched on.
        assert RECORDER.enabled is False

    def test_set_telemetry_toggles_in_place(self, tmp_path):
        returned = set_telemetry(True, spool_dir=str(tmp_path))
        assert returned is RECORDER
        assert RECORDER.enabled is True
        assert RECORDER.spool_dir == str(tmp_path)
        set_telemetry(False)
        assert RECORDER.enabled is False
        # spool_dir persists unless explicitly replaced.
        assert RECORDER.spool_dir == str(tmp_path)

    def test_recording_restores_prior_state(self, tmp_path):
        assert not RECORDER.enabled
        with recording(spool_dir=str(tmp_path)) as recorder:
            assert recorder is RECORDER
            assert recorder.enabled
            assert recorder.spool_dir == str(tmp_path)
        assert not RECORDER.enabled
        assert RECORDER.spool_dir is None


class TestMetrics:
    def test_counters_accumulate(self):
        recorder = Recorder()
        recorder.count("a")
        recorder.count("a", 4)
        recorder.count("b", 2)
        assert recorder.counters == {"a": 5, "b": 2}

    def test_timers_accumulate_nanoseconds(self):
        recorder = Recorder()
        recorder.add_time("t", 1_000)
        recorder.add_time("t", 500)
        assert recorder.timers_ns == {"t": 1_500}
        assert recorder.snapshot()["timing"]["t"] == 1_500 / 1e9

    def test_snapshot_holds_counters_and_timing(self):
        recorder = Recorder()
        recorder.count("a", 2)
        recorder.add_time("t", 3_000)
        assert recorder.snapshot() == {
            "counters": {"a": 2},
            "timing": {"t": 3_000 / 1e9},
        }

    def test_now_ns_is_monotonic(self):
        recorder = Recorder()
        a = recorder.now_ns()
        b = recorder.now_ns()
        assert b >= a

    def test_reset_clears_everything(self):
        recorder = Recorder()
        recorder.count("a")
        recorder.add_time("t", 10)
        recorder.add_span("s", 0, 10)
        recorder.reset()
        assert recorder.counters == {}
        assert recorder.timers_ns == {}
        assert recorder.events == []


class TestMarkSince:
    def test_since_returns_only_deltas(self):
        recorder = Recorder()
        recorder.count("pre", 10)
        recorder.add_time("t", 100)
        mark = recorder.mark()
        recorder.count("pre", 3)
        recorder.count("new", 1)
        recorder.add_time("t", 900)
        delta = recorder.since(mark)
        assert delta["counters"] == {"pre": 3, "new": 1}
        assert delta["timing"]["t"] == 900 / 1e9
        # "total" is wall time of the window, always present.
        assert delta["timing"]["total"] >= 0.0

    def test_zero_deltas_are_dropped(self):
        recorder = Recorder()
        recorder.count("untouched", 5)
        mark = recorder.mark()
        delta = recorder.since(mark)
        assert delta["counters"] == {}
        assert set(delta["timing"]) == {"total"}


class TestSpans:
    def test_add_span_builds_chrome_complete_event(self):
        recorder = Recorder()
        origin = recorder._origin_ns
        recorder.add_span(
            "trial", origin + 2_000, origin + 5_000, category="sweep", args={"n": 64}
        )
        (event,) = recorder.events
        assert event["name"] == "trial"
        assert event["ph"] == "X"
        assert event["cat"] == "sweep"
        assert event["ts"] == 2.0  # microseconds since recorder origin
        assert event["dur"] == 3.0
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident() % 2**31
        assert event["args"] == {"n": 64}

    def test_negative_duration_is_clamped(self):
        recorder = Recorder()
        recorder.add_span("weird", 5_000, 4_000)
        assert recorder.events[0]["dur"] == 0.0

    def test_span_context_manager_records_on_exception(self):
        recorder = Recorder()
        try:
            with recorder.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [event["name"] for event in recorder.events] == ["failing"]


class TestSpool:
    def test_no_spool_dir_keeps_events_in_memory(self):
        recorder = Recorder()
        recorder.add_span("s", 0, 1)
        assert recorder.flush_spool() is None
        assert len(recorder.events) == 1

    def test_flush_appends_one_json_line_per_event(self, tmp_path):
        import json

        recorder = Recorder()
        recorder.spool_dir = str(tmp_path)
        recorder.add_span("a", 0, 1_000)
        recorder.add_span("b", 1_000, 2_000)
        path = recorder.flush_spool()
        assert path == str(tmp_path / f"trace-{os.getpid()}.jsonl")
        assert recorder.events == []  # flushed, not duplicated
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [event["name"] for event in lines] == ["a", "b"]
        # A second flush appends rather than truncates.
        recorder.add_span("c", 2_000, 3_000)
        recorder.flush_spool()
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [event["name"] for event in lines] == ["a", "b", "c"]
