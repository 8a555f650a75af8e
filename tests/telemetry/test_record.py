"""Recorder core: the module switch, spans, events, levels, sinks."""

from __future__ import annotations

import itertools
import json
import os
import tracemalloc

from repro import telemetry
from repro.telemetry.record import NullRecorder, Recorder


def read_sink(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- disabled path ------------------------------------------------------------


def test_disabled_by_default_and_nothing_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert not telemetry.enabled()
    rec = telemetry.get_recorder()
    assert isinstance(rec, NullRecorder)
    with rec.span("engine.group", jobs=3) as span:
        span.note(cells=3)
        rec.event("anything", level="error", detail="x")
        rec.count("engine.cells", 3)
        rec.observe("t", 0.5)
        rec.gauge("g", 1.0)
    rec.flush_metrics()
    assert os.listdir(tmp_path) == []  # no sink dir, no files, nowhere


def test_disabled_span_is_one_shared_singleton():
    # The no-allocation contract of @hot_path call sites: every span() call
    # on the null recorder returns the *same* object, and metric calls such
    # as evaluate_on_plan's per-call ``eval.shards`` gauge keep nothing.
    rec = telemetry.get_recorder()
    assert rec.span("a") is rec.span("b")
    assert rec.span("a").span_id is None
    calls = itertools.repeat(None, 10_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in calls:
            rec.gauge("eval.shards", 2)
            rec.count("engine.cells", 1)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after == before


def test_configure_disable_flips_the_switch(tmp_path):
    recorder = telemetry.configure(str(tmp_path), name="t")
    assert telemetry.enabled()
    assert telemetry.get_recorder() is recorder
    telemetry.disable()
    assert not telemetry.enabled()
    assert isinstance(telemetry.get_recorder(), NullRecorder)


def test_recording_scope_restores_the_previous_recorder(tmp_path):
    outer = telemetry.configure(str(tmp_path / "outer"), name="o")
    with telemetry.recording(str(tmp_path / "inner"), name="i") as inner:
        assert telemetry.get_recorder() is inner
        inner.event("scoped")
    assert telemetry.get_recorder() is outer
    assert read_sink(inner.path)[0]["name"] == "scoped"


# -- events and levels --------------------------------------------------------


def test_events_round_trip_with_fields(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t", echo=None)
    rec.event("worker.start", worker="w1", items=0)
    telemetry.disable()
    records = read_sink(rec.path)
    event = records[0]
    assert event["type"] == "event"
    assert event["name"] == "worker.start"
    assert event["level"] == "info"
    assert event["worker"] == "w1" and event["items"] == 0
    assert event["ts"] > 0


def test_level_filters_the_sink_and_echo_filters_stderr(tmp_path, capsys):
    rec = telemetry.configure(str(tmp_path), name="t", level="info", echo="warning")
    rec.event("fine", level="debug")  # below level: dropped entirely
    rec.event("note", level="info")  # sinked, not echoed
    rec.event("bad", level="warning", item="x")  # sinked and echoed
    telemetry.disable()
    names = [r["name"] for r in read_sink(rec.path) if r["type"] == "event"]
    assert names == ["note", "bad"]
    err = capsys.readouterr().err
    assert "[repro:warning] bad item=x" in err
    assert "note" not in err


# -- spans --------------------------------------------------------------------


def test_span_round_trip_records_timing_ids_and_notes(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t")
    with rec.span("engine.plan", jobs=7) as span:
        span.note(groups=2)
    telemetry.disable()
    record = read_sink(rec.path)[0]
    assert record["type"] == "span"
    assert record["name"] == "engine.plan"
    assert record["jobs"] == 7 and record["groups"] == 2
    assert record["parent"] is None
    assert record["span"].endswith("-1")
    assert record["wall_s"] >= 0.0 and record["cpu_s"] >= 0.0
    assert record["ts"] >= record["start"] > 0


def test_nested_spans_link_parents_and_failures_mark_ok_false(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t")
    try:
        with rec.span("outer"):
            with rec.span("inner"):
                raise RuntimeError("boom")
    except RuntimeError:
        pass
    telemetry.disable()
    inner, outer = read_sink(rec.path)[:2]  # inner closes (and writes) first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["parent"] == outer["span"]
    assert inner["ok"] is False and inner["exc"] == "RuntimeError"
    assert outer["ok"] is False  # the exception unwound through it too


def test_every_span_feeds_the_stage_timer_metrics(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t")
    with rec.span("stage"):
        pass
    with rec.span("stage"):
        pass
    snapshot = rec.metrics.snapshot()
    telemetry.disable()
    assert snapshot["timers"]["span.stage"]["count"] == 2


# -- metrics snapshots --------------------------------------------------------


def test_flush_metrics_appends_cumulative_snapshots(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t")
    rec.flush_metrics()  # empty: writes nothing
    rec.count("queue.claims")
    rec.flush_metrics()
    rec.count("queue.claims")
    rec.gauge("depth", 4)
    telemetry.disable()  # close() flushes the final snapshot
    snapshots = [r for r in read_sink(rec.path) if r["type"] == "metrics"]
    assert len(snapshots) == 2
    assert snapshots[0]["counters"] == {"queue.claims": 1}
    assert snapshots[1]["counters"] == {"queue.claims": 2}  # cumulative
    assert snapshots[1]["gauges"] == {"depth": 4}


def test_worker_named_sinks_mirror_result_shard_naming(tmp_path):
    rec = Recorder(str(tmp_path), name="worker-host-1")
    rec.event("x")
    rec.close()
    assert os.path.basename(rec.path) == "worker-host-1.jsonl"
    assert os.path.dirname(rec.path) == str(tmp_path / "telemetry")


def test_config_round_trips_through_the_pool_initializer_shape(tmp_path):
    rec = telemetry.configure(str(tmp_path), name="t", level="debug", echo=None)
    config = rec.config()
    telemetry.disable()
    assert config.run_dir == str(tmp_path)
    assert config.level == "debug" and config.echo is None
