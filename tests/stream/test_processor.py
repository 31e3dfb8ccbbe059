"""End-to-end streaming: detection, re-correction, resume, observability.

These are the ISSUE's acceptance criteria as executable checks:

* a stationary stream raises zero alarms at the pinned seeds;
* injected drift (novel archetype and/or noise-rate shift) is detected
  within two windows of onset;
* online re-correction + hot swap beats the frozen model on post-drift
  AUC (archetype drift — noise-only drift has no behaviour shift to
  re-learn, so there we only require detection);
* a killed-and-resumed stream reproduces the uninterrupted run bit for
  bit: records, journal entries and re-corrected archive bytes — also
  when the kill lands between a window's journal entry and its
  checkpoint, or leaves a torn line in ``records.jsonl``;
* ``checkpoint.json`` holds O(window) state; the records live in the
  append-only ``records.jsonl``;
* quantized archives (no corrector) skip re-correction gracefully.
"""

import json

import numpy as np
import pytest

from repro.serve import ServeConfig
from repro.stream import StreamProcessor, compare_with_frozen, write_events
from repro.train import deterministic_entries

from .conftest import DRIFT_WINDOW, SERVE_CONFIG, STREAM_CONFIG, \
    drifting_events


def _run(archive, workdir, events, **kwargs):
    kwargs.setdefault("config", STREAM_CONFIG)
    kwargs.setdefault("serve_config", SERVE_CONFIG)
    with StreamProcessor(archive, workdir, **kwargs) as proc:
        summaries = proc.process_events(events)
        summaries.extend(proc.finish())
        return proc, summaries


def _window_entries(workdir):
    entries = []
    with open(workdir / "journal.jsonl") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.get("event") == "window":
                entries.append(entry)
    return entries


@pytest.mark.parametrize("seed", [11, 23])
def test_stationary_stream_never_alarms(stream_archive, tmp_path, seed):
    proc, summaries = _run(stream_archive, tmp_path / "w",
                           drifting_events(drift="none", seed=seed))
    assert summaries
    assert all(not s["alarm"] for s in summaries)
    assert proc.recorrections == 0
    assert proc.model_generation == 0
    assert proc.current_archive == stream_archive


@pytest.mark.parametrize("drift", ["archetype", "noise",
                                   "archetype+noise"])
def test_drift_detected_and_recorrected(stream_archive, tmp_path, drift):
    proc, summaries = _run(stream_archive, tmp_path / "w",
                           drifting_events(drift=drift))
    alarms = [s["window"] for s in summaries if s["alarm"]]
    assert alarms, "drift never detected"
    # Detection latency: the first alarm within 2 windows of onset,
    # and never before it.
    assert DRIFT_WINDOW <= alarms[0] <= DRIFT_WINDOW + 2
    assert proc.recorrections >= 1
    assert proc.model_generation >= 1
    assert proc.current_archive.exists()
    assert proc.current_archive.parent == tmp_path / "w" / "archives"
    # Post-swap records are stamped with the new generations.
    post = [r for r in proc.records if r["model_generation"] >= 1]
    assert post
    assert all(r["serve_generation"] >= 1 for r in post)

    if "archetype" in drift:
        auc = compare_with_frozen(proc.records, stream_archive,
                                  SERVE_CONFIG)
        assert auc["n_sessions"] == len(post)
        assert auc["live_auc"] > auc["frozen_auc"], auc


def test_stream_gauges_exported(stream_archive, tmp_path):
    proc, _ = _run(stream_archive, tmp_path / "w", drifting_events())
    gauges = proc.engine.metrics_snapshot()["gauges"]
    assert gauges["stream_windows_processed"] == proc.windows_processed
    assert gauges["stream_alarms_total"] >= 1
    assert gauges["stream_recorrect_generation"] == proc.model_generation
    assert "stream_drift_score" in gauges
    rendered = proc.engine.metrics_prometheus()
    assert "repro_serve_stream_drift_score" in rendered
    assert "repro_serve_stream_alarms_total" in rendered


def test_window_journal_is_deterministic_fields_only(stream_archive,
                                                     tmp_path):
    workdir = tmp_path / "w"
    _run(stream_archive, workdir, drifting_events(n_sessions=60))
    entries = _window_entries(workdir)
    assert entries
    for entry in entries:
        assert "time" not in entry
        assert "timestamp" not in entry
        assert {"window", "n_sessions", "oov_rate", "ks", "ph",
                "centroid_dist", "label_z", "drift_score", "alarm",
                "trigger", "generation"} <= set(entry)


def test_kill_and_resume_is_bit_identical(stream_archive, tmp_path):
    log = write_events(tmp_path / "events.jsonl", drifting_events())

    clean_dir = tmp_path / "clean"
    with StreamProcessor(stream_archive, clean_dir,
                         config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG) as proc:
        proc.run_log(log)
        clean_records = proc.records
        clean_generation = proc.model_generation

    # Kill after 7 windows (drift detected, first re-correction done),
    # then resume in a brand-new process-equivalent.
    resumed_dir = tmp_path / "resumed"
    with StreamProcessor(stream_archive, resumed_dir,
                         config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG) as proc:
        proc.run_log(log, max_windows=7, flush=False)
        assert proc.windows_processed == 7
    with StreamProcessor(stream_archive, resumed_dir,
                         config=STREAM_CONFIG, serve_config=SERVE_CONFIG,
                         resume=True) as proc:
        assert proc.windows_processed == 7
        proc.run_log(log)
        resumed_records = proc.records
        resumed_generation = proc.model_generation

    assert resumed_generation == clean_generation >= 1
    assert resumed_records == clean_records
    assert _window_entries(resumed_dir) == _window_entries(clean_dir)
    for name in sorted(p.name for p in
                       (clean_dir / "archives").iterdir()):
        clean_bytes = (clean_dir / "archives" / name).read_bytes()
        resumed_bytes = (resumed_dir / "archives" / name).read_bytes()
        assert clean_bytes == resumed_bytes, f"{name} differs"


@pytest.fixture(scope="module")
def clean_stream(stream_archive, tmp_path_factory):
    """One uninterrupted run over a logged drifting stream."""
    root = tmp_path_factory.mktemp("clean-stream")
    log = write_events(root / "events.jsonl", drifting_events())
    with StreamProcessor(stream_archive, root / "clean",
                         config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG) as proc:
        proc.run_log(log)
        assert proc.model_generation >= 1
        return log, root / "clean", proc.records


def _assert_same_run(workdir, clean_dir, records, clean_records):
    assert records == clean_records
    assert ((workdir / "records.jsonl").read_bytes()
            == (clean_dir / "records.jsonl").read_bytes())
    assert _window_entries(workdir) == _window_entries(clean_dir)
    assert (deterministic_entries(workdir / "journal.jsonl")
            == deterministic_entries(clean_dir / "journal.jsonl"))
    names = sorted(p.name for p in (clean_dir / "archives").iterdir())
    assert names == sorted(p.name for p in (workdir / "archives").iterdir())
    for name in names:
        assert ((workdir / "archives" / name).read_bytes()
                == (clean_dir / "archives" / name).read_bytes()), name


def test_checkpoint_holds_no_records(clean_stream):
    _, clean_dir, clean_records = clean_stream
    state = json.loads((clean_dir / "checkpoint.json").read_text())
    # O(window) state only: no field grows with the records.
    assert set(state) == {
        "next_offset", "windower", "monitor", "rng", "windows_processed",
        "model_generation", "recorrections", "archive", "recent",
        "records_count", "records_bytes", "journal_bytes"}
    assert len(state["recent"]) <= STREAM_CONFIG.recorrect_windows
    assert state["records_count"] == len(clean_records)
    records_path = clean_dir / "records.jsonl"
    assert state["records_bytes"] == records_path.stat().st_size
    with open(records_path) as fh:
        assert [json.loads(line) for line in fh] == clean_records


class _Killed(BaseException):
    """A kill that no ``except Exception`` in the program can swallow."""


@pytest.mark.parametrize("kill_at", [3, 6, 7])
def test_kill_before_checkpoint_journals_no_window_twice(
        stream_archive, clean_stream, tmp_path, monkeypatch, kill_at):
    # The kill lands after window ``kill_at - 1`` is journaled (and, at
    # 7, re-corrected) but before its checkpoint is written.
    log, clean_dir, clean_records = clean_stream
    save = StreamProcessor._save_checkpoint
    calls = []

    def dying_save(self):
        calls.append(self.windows_processed)
        if len(calls) == kill_at:
            raise _Killed
        save(self)

    workdir = tmp_path / "w"
    with monkeypatch.context() as patch:
        patch.setattr(StreamProcessor, "_save_checkpoint", dying_save)
        with pytest.raises(_Killed):
            with StreamProcessor(stream_archive, workdir,
                                 config=STREAM_CONFIG,
                                 serve_config=SERVE_CONFIG) as proc:
                proc.run_log(log)
    assert calls == list(range(1, kill_at + 1))
    if kill_at == 7:
        assert (workdir / "archives" / "model-gen1.npz").exists()

    with StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG, resume=True) as proc:
        assert proc.windows_processed == kill_at - 1
        proc.run_log(log)
        records = proc.records
    _assert_same_run(workdir, clean_dir, records, clean_records)


def test_torn_records_tail_is_dropped_on_resume(stream_archive,
                                                 clean_stream, tmp_path):
    log, clean_dir, clean_records = clean_stream
    workdir = tmp_path / "w"
    with StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG) as proc:
        proc.run_log(log, max_windows=4, flush=False)
    # A crash mid-append leaves a partial line after the checkpoint.
    with open(workdir / "records.jsonl", "ab") as fh:
        fh.write(b'{"window": 4, "session_id": "u1/0", "activ')
    with StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG, resume=True) as proc:
        proc.run_log(log)
        records = proc.records
    _assert_same_run(workdir, clean_dir, records, clean_records)


def test_resume_refuses_damaged_or_old_state(stream_archive, clean_stream,
                                             tmp_path):
    log, _, _ = clean_stream
    workdir = tmp_path / "w"
    with StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                         serve_config=SERVE_CONFIG) as proc:
        proc.run_log(log, max_windows=3, flush=False)
    records_path = workdir / "records.jsonl"
    intact = records_path.read_bytes()
    records_path.write_bytes(intact[:-10])
    with pytest.raises(ValueError, match="cannot be resumed"):
        StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                        serve_config=SERVE_CONFIG, resume=True)
    records_path.write_bytes(intact)

    checkpoint = workdir / "checkpoint.json"
    state = json.loads(checkpoint.read_text())
    state["records"] = []
    checkpoint.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="records.jsonl"):
        StreamProcessor(stream_archive, workdir, config=STREAM_CONFIG,
                        serve_config=SERVE_CONFIG, resume=True)


def test_compare_with_frozen_scores_past_the_queue_bound(stream_archive,
                                                         clean_stream):
    _, _, records = clean_stream
    small = compare_with_frozen(records, stream_archive,
                                ServeConfig(verbose=False, max_queue=8))
    large = compare_with_frozen(records, stream_archive,
                                ServeConfig(verbose=False, max_queue=4096))
    assert small["n_sessions"] > 8
    assert small == large


def test_quantized_archive_skips_recorrection(stream_archive, tmp_path):
    from repro.quant import quantize_archive

    quantized = quantize_archive(stream_archive,
                                 tmp_path / "model-int8.npz",
                                 precision="int8")
    workdir = tmp_path / "w"
    proc, summaries = _run(quantized, workdir, drifting_events())
    # The label-prevalence statistic still fires (it needs no model),
    # but re-correction is structurally unavailable: no corrector.
    assert any(s["alarm"] for s in summaries)
    assert proc.recorrections == 0
    assert proc.model_generation == 0
    with open(workdir / "journal.jsonl") as fh:
        events = [json.loads(line).get("event") for line in fh]
    assert "recorrect-skipped" in events
    scored = [r["score"] for r in proc.records if r["score"] is not None]
    assert scored and all(0.0 <= s <= 1.0 for s in scored)
