"""``serve`` and ``serve-int8``: an in-process ``InferenceEngine``.

Three regimes against one engine built with the default
``ServeConfig`` (``precision="int8"`` for serve-int8):

* light: open loop, seeded Poisson arrivals at 100 req/s;
* heavy: open loop, seeded Poisson arrivals at 2000 req/s;
* saturation: closed loop, one client keeping 128 requests outstanding,
  rounds of a fixed count.

The run cycles through the three regimes in ten segments instead of
running each once.  On a shared two-vCPU VM a fixed loop's speed
changed by up to 2x in episodes of a few seconds; spreading every
regime's samples over the whole run keeps their medians from landing
in one episode.  Each segment waits for its requests before the next
starts.

Payloads are token-string sessions, what ``/v1/score`` clients send,
drawn from the cert generator apart from the training data; a fixed
share carries a token the model has never seen.  The generator runs in
this process's main thread; completions are stamped by a future
callback, so load comes from one process with two threads.
"""

from __future__ import annotations

import functools
import gc
import threading
import time

import numpy as np

from bench_stats import median, poisson_offsets, tail_percentile
from common import peak_rss_mb, reset_peak_rss, serving_archive

LIGHT_RATE, HEAVY_RATE, OUTSTANDING = 100.0, 2000.0, 128
POOL, MALICIOUS_SHARE, UNSEEN_SHARE = 1024, 0.25, 0.05
SETUP_PER_SEGMENT, SEGMENTS, SAT_ROUND = 4, 10, 4000
TIMEOUT_S = 30.0
# A phase is invalid when the generator sent its 99th-percentile
# request later than this after it was due: the load was not applied.
LAG_LIMIT_MS = 50.0
INT8_AUC_BUDGET = 0.2  # percentage points
# Percent.  The reference model (the seed-0 ``repro save`` recipe,
# retrained whenever the program changes) scored 97.2-99.3% on the
# held-out pools of 50 seeds; a change that degrades training or
# scoring falls below this.
REFERENCE_AUC_FLOOR = 95.0


def _payload_pool(seed):
    from repro.data import DATASET_GENERATORS

    gen = DATASET_GENERATORS["cert"](max_session_length=16)
    rng = np.random.default_rng([seed, 7])
    tokens, labels = [], []
    for i in range(POOL):
        label = int(rng.random() < MALICIOUS_SHARE)
        session = gen.sample_session(label, rng, session_id=f"pool-{i}")
        toks = gen.vocab.decode(session.activities)
        if rng.random() < UNSEEN_SHARE:
            toks.insert(int(rng.integers(len(toks) + 1)), f"unseen-{i}")
        tokens.append(toks)
        labels.append(label)
    return tokens, np.asarray(labels)


def _offline_scores(model, tokens, rows):
    """Offline ``predict_proba`` over the pool, ``rows`` sessions per
    call — the engine's fixed forward row count."""
    from repro.data.sessions import Session, SessionDataset

    vocab, max_len = model.vectorizer.vocab, model.vectorizer.max_len
    sessions = [Session(activities=[vocab[t] if t in vocab else vocab.pad_id
                                    for t in toks][:max_len],
                        label=0, session_id=f"pool-{i}")
                for i, toks in enumerate(tokens)]
    scores = []
    for lo in range(0, len(sessions), rows):
        chunk = sessions[lo:lo + rows]
        chunk += [Session(activities=[0], label=0, session_id="pad")] * (
            rows - len(chunk))
        probs = model.predict_proba(SessionDataset(chunk, vocab, "offline"))
        scores.extend(probs[:len(sessions) - lo, 1])
    return np.asarray(scores[:len(sessions)], dtype=np.float64)


def prepare(seed, workdir):
    from repro.core import load_clfd
    from repro.serve import ServeConfig

    archive = serving_archive()
    tokens, labels = _payload_pool(seed)
    reference = _offline_scores(load_clfd(archive), tokens,
                                ServeConfig().max_batch)
    return {"archive": archive, "tokens": tokens, "labels": labels,
            "reference": reference}


def reference_auc_check(prepared):
    """Gated check: the reference model's offline AUC on the held-out
    pool is above :data:`REFERENCE_AUC_FLOOR`."""
    from repro.metrics import auc_roc

    auc = auc_roc(prepared["labels"], prepared["reference"])
    return (f"reference model's held-out AUC above {REFERENCE_AUC_FLOOR}%",
            auc > REFERENCE_AUC_FLOOR,
            f"auc={auc:.4f}% over {len(prepared['labels'])} sessions")


class _Phase:
    """Requests of one phase: pool index, due/sent/done times, result."""

    def __init__(self, name, idx):
        n = len(idx)
        self.name, self.idx = name, idx
        self.due = np.zeros(n)
        self.sent = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.scores = np.full(n, np.nan)
        self.failed = np.zeros(n, dtype=bool)
        self.futures = [None] * n

    def stamp(self, i, future):
        self.done[i] = time.perf_counter()

    def collect(self):
        from repro.serve import RequestError

        rejected = int(self.failed.sum())
        for i, future in enumerate(self.futures):
            if future is None:
                continue
            try:
                self.scores[i] = future.result(timeout=TIMEOUT_S).score
            except (RequestError, TimeoutError):
                self.failed[i] = True
        self.failed |= ~np.isfinite(self.scores)
        # Done futures hold their requests and results; kept, they would
        # grow the heap every later garbage collection scans.
        self.futures = None
        return rejected

    def latencies_ms(self):
        lat = (self.done - self.due) * 1e3
        lat[self.failed] = TIMEOUT_S * 1e3  # misses any latency limit
        return lat

    def lag_ms(self):
        return (self.sent - self.due) * 1e3


def _payloads(phase, tokens):
    return [{"activities": tokens[j], "session_id": f"{phase.name}-{i}"}
            for i, j in enumerate(phase.idx)]


def _open_loop(engine, phase, tokens, rate, rng):
    from repro.serve import RequestError

    payloads = _payloads(phase, tokens)
    offsets = poisson_offsets(rate, len(payloads), rng)
    t0 = time.perf_counter() + 0.02
    phase.due[:] = t0 + offsets
    for i, payload in enumerate(payloads):
        delay = phase.due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.sent[i] = time.perf_counter()
        try:
            future = engine.submit(payload)
        except RequestError:
            phase.failed[i] = True
            continue
        phase.futures[i] = future
        future.add_done_callback(functools.partial(phase.stamp, i))
    return phase.collect()


def _closed_loop(engine, phase, tokens):
    from repro.serve import RequestError

    payloads = _payloads(phase, tokens)
    slots = threading.Semaphore(OUTSTANDING)

    def finished(i, future):
        phase.stamp(i, future)
        slots.release()

    t0 = time.perf_counter()
    for i, payload in enumerate(payloads):
        slots.acquire()
        phase.due[i] = phase.sent[i] = time.perf_counter()
        try:
            future = engine.submit(payload)
        except RequestError:
            phase.failed[i] = True
            slots.release()
            continue
        phase.futures[i] = future
        future.add_done_callback(functools.partial(finished, i))
    rejected = phase.collect()
    return rejected, float(np.nanmax(phase.done)) - t0


def run(prepared, seed, seconds, workdir, tracer=None, precision=None):
    from repro.metrics import auc_roc
    from repro.serve import InferenceEngine, ServeConfig

    config = ServeConfig(precision=precision)
    tokens, labels = prepared["tokens"], prepared["labels"]
    setups = []

    def build():
        t0 = time.perf_counter()
        built = InferenceEngine.from_archive(prepared["archive"], config)
        setups.append(time.perf_counter() - t0)
        return built

    engine = build()
    reset_peak_rss()

    rng = np.random.default_rng([seed, 11])
    per_light = max(1000, int(LIGHT_RATE * 0.5 * seconds)) // SEGMENTS
    per_heavy = max(1000, int(HEAVY_RATE * 0.1 * seconds)) // SEGMENTS
    lights, heavies, rounds = ([_Phase(f"{name}{k}",
                                       rng.integers(POOL, size=size))
                                for k in range(SEGMENTS)]
                               for name, size in (("light", per_light),
                                                  ("heavy", per_heavy),
                                                  ("sat", SAT_ROUND)))
    rejected, sat_walls = 0, []
    try:
        for light, heavy, sat in zip(lights, heavies, rounds):
            # More set-up samples, taken between segments so that they
            # spread over the run like the regimes' samples.
            for _ in range(SETUP_PER_SEGMENT):
                build().close()
            # Their garbage is the benchmark's, not the served load's.
            gc.collect()
            rejected += _open_loop(engine, light, tokens, LIGHT_RATE, rng)
            rejected += _open_loop(engine, heavy, tokens, HEAVY_RATE, rng)
            r, wall = _closed_loop(engine, sat, tokens)
            rejected += r
            sat_walls.append(wall)
        snapshot = engine.metrics_snapshot()
    finally:
        engine.close()
    peak = peak_rss_mb()

    phases = [*lights, *heavies, *rounds]
    served = {}
    mismatched = 0
    for phase in phases:
        for i, j in enumerate(phase.idx):
            if phase.failed[i]:
                continue
            score = phase.scores[i]
            served.setdefault(int(j), score)
            if precision is None:
                mismatched += int(score != prepared["reference"][j])
            else:
                mismatched += int(score != served[int(j)])
    seen = np.asarray(sorted(served))
    served_auc = auc_roc(labels[seen], [served[j] for j in seen])
    float_auc = auc_roc(labels[seen], prepared["reference"][seen])

    lat_light = np.concatenate([p.latencies_ms() for p in lights])
    lat_heavy = np.concatenate([p.latencies_ms() for p in heavies])
    lags = {name: tail_percentile(np.concatenate([p.lag_ms()
                                                  for p in group]))[1]
            for name, group in (("light", lights), ("heavy", heavies))}
    kept = {name: (f"{name} phase: generator kept to its schedule",
                   lag <= LAG_LIMIT_MS,
                   f"lateness p99={lag:.2f} ms, limit {LAG_LIMIT_MS} ms")
            for name, lag in lags.items()}
    checks = [reference_auc_check(prepared)]
    if precision is None:
        checks.append((
            "every served score is bitwise equal to offline predict_proba",
            mismatched == 0, f"{mismatched} mismatches"))
    else:
        checks.append((
            "every served score of a session is identical",
            mismatched == 0, f"{mismatched} mismatches"))
        checks.append((
            f"served AUC within {INT8_AUC_BUDGET} pct-points of float",
            abs(served_auc - float_auc) <= INT8_AUC_BUDGET,
            f"int8={served_auc:.4f}% float={float_auc:.4f}%"))

    attempted = sum(len(p.idx) for p in phases)
    failed = int(sum(p.failed.sum() for p in phases))
    n_light, n_heavy = len(lat_light), len(lat_heavy)
    q_light, light_tail = tail_percentile(lat_light)
    q_heavy, heavy_tail = tail_percentile(lat_heavy)
    sat_rate = median(SAT_ROUND / w for w in sat_walls)
    return {
        "setup_s": median(setups), "wall_s": median(sat_walls),
        "item_ms": median(lat_light), "peak_rss_mb": peak,
        "samples": {"setup_s": len(setups), "wall_s": len(sat_walls),
                    "item_ms": n_light},
        "named": {
            "light_p50_ms": (median(lat_light), "ms", n_light),
            f"light_p{q_light}_ms": (light_tail, "ms", n_light),
            "heavy_p50_ms": (median(lat_heavy), "ms", n_heavy),
            f"heavy_p{q_heavy}_ms": (heavy_tail, "ms", n_heavy),
            "sat_sessions_per_s": (sat_rate, "1/s", SEGMENTS),
            "light_gen_lag_p99_ms": (lags["light"], "ms", n_light),
            "heavy_gen_lag_p99_ms": (lags["heavy"], "ms", n_heavy),
            "auc": (served_auc, "%", len(seen)),
            "error_rate": (failed / attempted, "ratio", attempted),
        },
        "attempted": attempted, "failed": failed, "checks": checks,
        # The light phase feeds the gated item_ms; the heavy phase's
        # numbers are printed only, so its validity is reported.
        "validity": [kept["light"]], "reported": [kept["heavy"]],
        "repeats": (SEGMENTS, "segment"),
        "outputs": {"auc": served_auc},
        "extra": {
            "serve.batch_size_mean": snapshot["mean_batch_size"],
            # Real rows over forwarded rows: every batch is padded to
            # max_batch before its forward pass.
            "serve.useful_row_share": (snapshot["mean_batch_size"]
                                       / config.max_batch),
            "serve.rejected": rejected,
            "serve.gen_lag_ms_p99": max(lags.values()),
        },
    }


def run_int8(prepared, seed, seconds, workdir, tracer=None):
    return run(prepared, seed, seconds, workdir, tracer, precision="int8")


def graph_nodes(prepared, seed, workdir, precision=None):
    """Autograd graph nodes per served batch, counted over one
    saturation round under ``nn.profile``, on an engine of its own."""
    from repro import nn
    from repro.serve import InferenceEngine, ServeConfig

    engine = InferenceEngine.from_archive(prepared["archive"],
                                          ServeConfig(precision=precision))
    phase = _Phase("profiled", np.random.default_rng([seed, 13]).integers(
        POOL, size=SAT_ROUND))
    try:
        before = engine.metrics_snapshot()["batches_total"]
        with nn.profile() as prof:
            _closed_loop(engine, phase, prepared["tokens"])
        batches = engine.metrics_snapshot()["batches_total"] - before
    finally:
        engine.close()
    return prof.total_nodes / max(batches, 1), "batch"


def graph_nodes_int8(prepared, seed, workdir):
    return graph_nodes(prepared, seed, workdir, precision="int8")
