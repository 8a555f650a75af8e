"""Sink compaction: fold many dead sinks into one summarized file.

The invariant under test throughout: ``merged_run_metrics`` returns the
same aggregate counters/timers before and after compaction — compaction
changes the *layout* of the telemetry directory, never its numbers.
"""

from __future__ import annotations

import os

from repro import telemetry
from repro.telemetry.compact import compact_run_telemetry
from repro.telemetry.report import (
    load_run_records,
    main,
    merged_run_metrics,
    render_report,
    telemetry_dir,
)


def make_multi_worker_run(tmp_path, sinks=3):
    """N worker-shaped sinks with counters, spans, and mixed-level events."""
    run_dir = str(tmp_path)
    for index in range(sinks):
        name = f"worker-w{index}"
        with telemetry.recording(run_dir, name=name, echo=None) as rec:
            rec.event("worker.start", worker=name)  # info: drop on compact
            if index == 0:
                rec.event(
                    "worker.item_failed", level="warning",
                    item="group-poison", exc_type="RuntimeError",
                )
            with rec.span("worker.item", worker=name, item=f"g{index}"):
                pass
            rec.count("worker.items")
            rec.count("worker.cells", 2)
    return run_dir


def sink_names(run_dir):
    return sorted(os.listdir(telemetry_dir(run_dir)))


def test_compact_folds_sinks_and_preserves_merged_metrics(tmp_path):
    run_dir = make_multi_worker_run(tmp_path, sinks=3)
    before = merged_run_metrics(run_dir)
    assert before["counters"]["worker.items"] == 3

    stats = compact_run_telemetry(run_dir, min_age=0.0)
    assert stats.changed
    assert stats.sinks_folded == 3
    assert stats.folded_sinks == ["worker-w0", "worker-w1", "worker-w2"]
    assert sink_names(run_dir) == ["compacted-0.jsonl"]

    after = merged_run_metrics(run_dir)
    assert after["counters"] == before["counters"]
    assert after["timers"] == before["timers"]


def test_compact_keeps_warnings_and_drops_info_events(tmp_path):
    run_dir = make_multi_worker_run(tmp_path, sinks=3)
    stats = compact_run_telemetry(run_dir, min_age=0.0)
    assert stats.events_kept == 1  # the warning survived
    assert stats.events_dropped == 3  # the info-level worker.start events
    assert stats.spans_summarized == 3

    records = load_run_records(run_dir)
    events = [r for r in records if r.get("type") == "event"]
    names = {e["name"] for e in events}
    assert "worker.item_failed" in names  # incident history intact
    assert "worker.start" not in names
    # Raw spans are gone; their aggregate lives in the summary event.
    assert not any(r.get("type") == "span" for r in records)
    summary = next(e for e in events if e["name"] == "telemetry.compacted")
    assert summary["sinks"] == ["worker-w0", "worker-w1", "worker-w2"]
    assert summary["spans"] == 3
    assert summary["span_wall_s"]["worker.item"]["count"] == 3


def test_compact_keep_level_debug_keeps_everything(tmp_path):
    run_dir = make_multi_worker_run(tmp_path, sinks=2)
    stats = compact_run_telemetry(run_dir, keep_level="debug", min_age=0.0)
    assert stats.events_dropped == 0
    assert stats.events_kept == 3  # two starts + one warning


def test_recompaction_converges_to_one_file(tmp_path):
    run_dir = make_multi_worker_run(tmp_path, sinks=2)
    before = merged_run_metrics(run_dir)
    assert compact_run_telemetry(run_dir, min_age=0.0).changed
    # New sinks arrive after the first compaction...
    with telemetry.recording(run_dir, name="worker-w9", echo=None) as rec:
        rec.count("worker.items")
    # ...and the second pass folds them *with* the previous compacted file.
    stats = compact_run_telemetry(run_dir, min_age=0.0)
    assert stats.sinks_folded == 2
    assert "compacted-0" in stats.folded_sinks
    assert sink_names(run_dir) == ["compacted-1.jsonl"]
    after = merged_run_metrics(run_dir)
    assert after["counters"]["worker.items"] == before["counters"]["worker.items"] + 1


def test_live_sinks_are_skipped(tmp_path):
    run_dir = make_multi_worker_run(tmp_path, sinks=2)
    # Everything was written moments ago: the default liveness guard holds.
    stats = compact_run_telemetry(run_dir, min_age=60.0)
    assert not stats.changed
    assert stats.sinks_skipped_live == 2
    assert len(sink_names(run_dir)) == 2


def test_single_sink_and_missing_dir_are_noops(tmp_path):
    assert not compact_run_telemetry(str(tmp_path / "ghost")).changed
    run_dir = str(tmp_path)
    with telemetry.recording(run_dir, name="solo", echo=None) as rec:
        rec.count("worker.items")
    stats = compact_run_telemetry(run_dir, min_age=0.0)
    assert not stats.changed  # one sink: nothing to consolidate
    assert sink_names(run_dir) == ["solo.jsonl"]


def test_report_still_renders_after_compaction(tmp_path):
    import io

    run_dir = make_multi_worker_run(tmp_path, sinks=3)
    compact_run_telemetry(run_dir, min_age=0.0)
    stream = io.StringIO()
    assert render_report(run_dir, stream=stream) == 0
    out = stream.getvalue()
    assert "compacted-0" in out
    assert "worker.items = 3" in out


def test_compact_cli(tmp_path, capsys):
    run_dir = make_multi_worker_run(tmp_path, sinks=2)
    assert main(["compact", run_dir, "--min-age", "0"]) == 0
    out = capsys.readouterr().out
    assert "compacted 2 sink(s)" in out
    assert "compacted-0.jsonl" in out
    # Nothing left to fold: the second invocation reports a clean no-op.
    assert main(["compact", run_dir, "--min-age", "0"]) == 0
    assert "nothing to compact" in capsys.readouterr().out
