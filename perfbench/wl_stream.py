"""``stream``: ``StreamProcessor`` replaying a drifting cert stream.

About 5000 sessions (about 250 windows) of a seeded ``archetype+noise``
stream, fed one event per ``process_events`` call as fast as the
processor accepts them, replayed again into a fresh processor when a
whole replay fits in the run's time.  Event time is logical, so this
is a batch replay; the processor re-corrects on alarm and hot-swaps
the engine.
Settings follow ``repro stream``'s defaults.
"""

from __future__ import annotations

import shutil
import time

from bench_stats import median, nan_equal, tail_percentile
from common import (check_repeatable, digest, peak_rss_mb, reset_peak_rss,
                    serving_archive)

SESSIONS = 5000
SETUP_REPEATS = 2  # before the replays, and again after them


def prepare(seed, workdir):
    return {"archive": serving_archive()}


def _config():
    from repro.stream import StreamConfig

    return StreamConfig(window_size=60.0, session_gap=4.0,
                        max_session_len=16, recorrect_windows=5,
                        head_epochs=30)


def _events(seed):
    from repro.stream import synthesize_drifting_events

    return synthesize_drifting_events(
        "cert", n_sessions=SESSIONS, drift="archetype+noise", eta=0.1,
        eta_after=0.45, malicious_rate=0.1, malicious_rate_after=0.45,
        max_session_length=16, rng=seed)


def _replay(proc, events, trace_bytes):
    """Feed ``events`` one per call; returns what the replay produced."""
    from repro.train import deterministic_entries, read_journal

    window_ms, summaries, checkpoint_bytes = [], [], 0
    checkpoint = proc.workdir / "checkpoint.json"
    try:
        t0 = time.perf_counter()
        for event in events:
            c0 = time.perf_counter()
            closed = proc.process_events((event,))
            if closed:
                window_ms.append((time.perf_counter() - c0) * 1e3)
                summaries += closed
                if trace_bytes:
                    checkpoint_bytes += checkpoint.stat().st_size
        summaries += proc.finish()
        wall = time.perf_counter() - t0
        records = proc.records
        snapshot = proc.engine.metrics_snapshot()
        max_batch = proc.engine.config.max_batch
    finally:
        proc.close()
    journal = proc.workdir / "journal.jsonl"
    windows = [e for e in read_journal(journal) if e.get("event") == "window"]
    return {
        "wall": wall, "window_ms": window_ms, "records": records,
        "alarms": sum(1 for s in summaries if s["alarm"]),
        "recorrections": proc.recorrections, "windows": windows,
        "snapshot": snapshot, "max_batch": max_batch,
        "checkpoint_bytes": checkpoint_bytes,
        "outputs": {"windows": windows,
                    "epochs": deterministic_entries(journal),
                    "scores": digest([r["score"] for r in records])},
    }


def graph_nodes(prepared, seed, workdir):
    """Autograd graph nodes per window, counted over one replay under
    ``nn.profile``, apart from the timed and traced passes."""
    from repro import nn
    from repro.stream import StreamProcessor

    proc = StreamProcessor(prepared["archive"], workdir / "profiled",
                           config=_config(), seed=seed)
    with nn.profile() as prof:
        replay = _replay(proc, _events(seed), False)
    return prof.total_nodes / max(len(replay["windows"]), 1), "window"


def run(prepared, seed, seconds, workdir, tracer=None):
    from repro.serve import ServeConfig
    from repro.stream import StreamProcessor, compare_with_frozen

    archive = prepared["archive"]
    reset_peak_rss()
    setups, proc = [], None
    for k in range(SETUP_REPEATS):
        if proc is not None:
            proc.close()
            shutil.rmtree(proc.workdir)
        t0 = time.perf_counter()
        events = _events(seed)
        proc = StreamProcessor(archive, workdir / f"state{k}",
                               config=_config(), seed=seed)
        setups.append(time.perf_counter() - t0)

    start = time.perf_counter()
    replays = [_replay(proc, events, tracer is not None)]
    # The traced pass runs one replay, so its per-layer sums are per
    # replay.  Otherwise another runs while at least half of one fits.
    while (tracer is None and
           time.perf_counter() - start + replays[-1]["wall"] / 2 <= seconds):
        proc = StreamProcessor(archive, workdir / f"replay{len(replays)}",
                               config=_config(), seed=seed)
        replays.append(_replay(proc, events, tracer is not None))
    peak = peak_rss_mb()
    # As many set-up samples again after the replays, so that the median
    # does not rest on one moment of the run.
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _events(seed)
        spare = StreamProcessor(archive, workdir / f"after{k}",
                                config=_config(), seed=seed)
        setups.append(time.perf_counter() - t0)
        spare.close()

    first = replays[0]
    records, windows = first["records"], first["windows"]
    # compare_with_frozen submits every post-swap session at once, so
    # its engine's queue must hold them all.
    frozen = compare_with_frozen(
        records, archive, ServeConfig(max_queue=max(len(records), 1)))
    unscored = {r["window"] for r in records if r["score"] is None}
    failed = sum(1 for w in windows if w["window"] in unscored)
    alarms, recorrections = first["alarms"], first["recorrections"]
    checks = [
        ("at least one drift alarm", alarms >= 1, f"{alarms} alarms"),
        ("at least one re-correction", recorrections >= 1,
         f"{recorrections} re-corrections"),
        ("replays in this run agree on the window journal",
         all(nan_equal(r["outputs"], first["outputs"]) for r in replays),
         f"{len(replays)} replay(s)"),
    ]
    # Online re-correction does not beat the frozen model on every
    # stream (it loses on some seeds), so this comparison is reported
    # with every run but does not decide `correct`.
    reported = [
        ("post-swap live AUC >= frozen AUC",
         frozen["live_auc"] >= frozen["frozen_auc"],
         f"live={frozen['live_auc']:.4f}% frozen={frozen['frozen_auc']:.4f}%"
         f" over {frozen['n_sessions']} sessions"),
    ]
    if tracer is None:
        checks.append(("window journal matches earlier runs of this seed",
                       check_repeatable("stream", seed,
                                        digest(first["outputs"])),
                       f"{len(windows)} windows"))
    window_ms = [ms for r in replays for ms in r["window_ms"]]
    walls = [r["wall"] for r in replays]
    q, tail = tail_percentile(window_ms)
    n_events = len(events)
    snapshot = first["snapshot"]
    return {
        "setup_s": median(setups), "wall_s": median(walls),
        # A window's cost grows along the stream (the checkpoint holds
        # every record so far), so a median over windows would time only
        # the middle of the replay; the mean covers all of it.
        "item_ms": sum(window_ms) / len(window_ms), "peak_rss_mb": peak,
        "samples": {"setup_s": len(setups), "wall_s": len(walls),
                    "item_ms": len(window_ms)},
        "named": {
            "events_per_s": (median(n_events / w for w in walls), "1/s",
                             len(walls)),
            "window_p50_ms": (median(window_ms), "ms", len(window_ms)),
            f"window_p{q}_ms": (tail, "ms", len(window_ms)),
            "auc": (frozen["live_auc"], "%", frozen["n_sessions"]),
            "frozen_auc": (frozen["frozen_auc"], "%", frozen["n_sessions"]),
            "error_rate": (failed / max(len(windows), 1), "ratio",
                           len(windows)),
        },
        "attempted": len(windows), "failed": failed, "checks": checks,
        "reported": reported, "repeats": (len(replays), "replay"),
        "outputs": first["outputs"],
        "extra": {
            "stream.checkpoint_mb_total": first["checkpoint_bytes"] / 1e6,
            "serve.batch_size_mean": snapshot["mean_batch_size"],
            "serve.useful_row_share": (snapshot["mean_batch_size"]
                                       / first["max_batch"]),
            "stream.alarms": alarms,
            "stream.windows": len(windows),
            "stream.recorrections": recorrections,
            "stream.live_minus_frozen_auc": (frozen["live_auc"]
                                             - frozen["frozen_auc"]),
        },
    }
