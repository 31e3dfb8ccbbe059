"""Per-layer metrics of the traced run: what is wrapped, what is derived.

Layers are the program's modules.  Every traced run reports every
metric in :data:`PER_LAYER`; a layer that does no work on a workload
reports 0, which is itself the measurement (e.g. the ``parallel``
layer on ``serve``).  ``moves`` names the end-to-end metric, and the
workload, that the layer metric is expected to move (see METRICS.md).
"""

from __future__ import annotations

from bench_stats import median, union_length

# (target, span name): the program's public functions, wrapped where
# the callers look them up.
WRAPS = [
    ("repro.data.pipeline:SessionVectorizer.fit", "data.vectorizer"),
    ("repro.core.label_corrector:LabelCorrector.fit", "core.corrector_fit"),
    ("repro.core.label_corrector:LabelCorrector.correct", "core.correct"),
    ("repro.core.fraud_detector:FraudDetector.fit", "core.detector_fit"),
    ("repro.core.clfd:CLFD.predict", "core.predict"),
    ("repro.quant.runtime:QuantizedCLFD.predict", "quant.predict"),
    ("repro.train.journal:MetricJournal.log", "train.journal"),
    ("repro.nn.lstm:fused_lstm_sequence", "nn.rnn_forward"),
    ("repro.nn.gru:fused_gru_sequence", "nn.rnn_forward"),
    ("repro.nn.tensor:Tensor.backward", "nn.backward"),
    ("repro.nn.optim:Adam.step", "nn.optim"),
    ("repro.nn.optim:SGD.step", "nn.optim"),
    ("repro.core.training:sample_mixup", "augment.mixup"),
    ("repro.core.label_corrector:reorder_ids", "augment.reorder"),
    ("repro.core.label_corrector:nt_xent_loss", "losses.contrastive"),
    ("repro.core.fraud_detector:sup_con_from_weights", "losses.contrastive"),
    ("repro.core.fraud_detector:sup_con_loss", "losses.contrastive"),
    ("repro.core.training:gce_loss", "losses.robust"),
    ("repro.core.training:cce_loss", "losses.robust"),
    ("repro.serve.engine:InferenceEngine.score_many", "serve.score_many"),
    ("repro.serve.engine:InferenceEngine.reload", "serve.reload"),
    ("repro.stream.window:SessionWindower.process", "stream.windower"),
    ("repro.stream.drift:DriftMonitor.observe", "stream.drift"),
    ("repro.stream.processor:recorrect_model", "stream.recorrect"),
    ("repro.stream.processor:StreamProcessor.process_events",
     "stream.process"),
    ("repro.stream.processor:StreamProcessor.finish", "stream.process"),
    ("repro.parallel.executor:GridExecutor.run", "parallel.run"),
]


def _checkpoint_bytes(span, result, args):
    span.attrs = {"bytes": result.stat().st_size}


def _request_id(args, kwargs):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return payload.get("session_id") if isinstance(payload, dict) else None


def _batch_rows(span, result, args):
    dataset = args[1] if len(args) > 1 else None
    if getattr(dataset, "name", None) == "serve-batch":
        span.attrs = {"rows": [s.session_id for s in dataset.sessions]}


def _cells(span, result, args):
    span.attrs = {"cells": [[r.seconds, r.attempts, r.ok, r.cached]
                            for r in result]}


def install(tracer) -> None:
    for target, name in WRAPS:
        after = _batch_rows if name in ("core.predict", "quant.predict") \
            else _cells if name == "parallel.run" else None
        tracer.wrap(target, name, after=after)
    tracer.wrap("repro.train.checkpoint:CheckpointManager.save",
                "train.checkpoint", after=_checkpoint_bytes)
    tracer.wrap("repro.serve.engine:InferenceEngine.submit", "serve.submit",
                trace=_request_id)


# name -> (unit, better, moves)
PER_LAYER = {
    "data.vectorizer_s": ("s", "lower", "wall_s@train"),
    "core.corrector_fit_s": ("s", "lower", "wall_s@train, wall_s@grid"),
    "core.correct_s": ("s", "lower", "wall_s@train, wall_s@grid"),
    "core.detector_fit_s": ("s", "lower", "wall_s@train, wall_s@grid"),
    "core.predict_s": ("s", "lower", "wall_s@train"),
    "core.save_s": ("s", "lower", "wall_s@train"),
    "train.checkpoint_s": ("s", "lower", "wall_s@train"),
    "train.checkpoint_calls": ("count", "lower", "wall_s@train"),
    "train.checkpoint_mb": ("MB", "lower", "wall_s@train"),
    "train.journal_s": ("s", "lower", "wall_s@train"),
    "train.other_s": ("s", "lower", "wall_s@train"),
    "nn.rnn_forward_s": ("s", "lower",
                         "wall_s@train, item_ms@serve (none on serve-int8)"),
    "nn.rnn_forward_calls": ("count", "lower", "wall_s@train, item_ms@serve"),
    "nn.backward_s": ("s", "lower", "wall_s@train"),
    "nn.optim_s": ("s", "lower", "wall_s@train"),
    "nn.graph_nodes": ("count", "lower",
                       "per epoch: wall_s@train; per batch: item_ms, "
                       "wall_s@serve (0 on serve-int8)"),
    "augment.mixup_s": ("s", "lower", "wall_s@train"),
    "augment.mixup_calls": ("count", "lower", "wall_s@train"),
    "augment.reorder_s": ("s", "lower", "wall_s@train"),
    "losses.contrastive_s": ("s", "lower", "wall_s@train"),
    "losses.robust_s": ("s", "lower", "wall_s@train"),
    "metrics.eval_s": ("s", "lower", "wall_s@train"),
    "serve.submit_us_p50": ("us", "lower", "wall_s@serve"),
    "serve.forward_ms_p50": ("ms", "lower", "item_ms, wall_s@serve"),
    "serve.queue_wait_ms_p50": ("ms", "lower", "heavy_p99_ms@serve"),
    "serve.batch_size_mean": ("count", "higher", "item_ms@serve"),
    "serve.useful_row_share": ("ratio", "higher", "item_ms@serve"),
    "serve.rejected": ("count", "lower", "failed@serve"),
    "serve.gen_lag_ms_p99": ("ms", "lower", "validity of the open loop"),
    "stream.windower_s": ("s", "lower", "wall_s, item_ms@stream"),
    "stream.score_s": ("s", "lower", "wall_s, item_ms@stream"),
    "stream.drift_s": ("s", "lower", "wall_s, item_ms@stream"),
    "stream.recorrect_s": ("s", "lower", "wall_s@stream"),
    "stream.recorrections": ("count", "lower", "wall_s@stream"),
    "stream.reload_s": ("s", "lower", "wall_s@stream"),
    "stream.self_s": ("s", "lower", "wall_s, window_p96_ms@stream"),
    "stream.checkpoint_mb_total": ("MB", "lower", "wall_s@stream"),
    "stream.alarms": ("count", "lower", "wall_s@stream"),
    "stream.windows": ("count", "higher", "item_ms@stream"),
    "stream.live_minus_frozen_auc": ("pp", "higher",
                                     "reported AUC comparison@stream"),
    "parallel.cell_s_sum": ("s", "lower", "wall_s@grid"),
    "parallel.cell_s_p50": ("s", "lower", "wall_s, item_ms@grid"),
    "parallel.busy_share": ("ratio", "higher",
                            "pool grid wall (traced run only)"),
    "parallel.pool_wall_s": ("s", "lower", "pool grid wall (traced run only)"),
    "parallel.pool_speedup": ("ratio", "higher",
                              "pool grid vs wall_s@grid (traced run only)"),
    "parallel.retries": ("count", "lower", "failed@grid"),
    "parallel.failed_cells": ("count", "lower", "failed@grid"),
    "parallel.warm_resume_s": ("s", "lower", "setup_s@grid"),
    "experiments.aggregate_s": ("s", "lower", "wall_s@grid"),
    "analysis.analyze_s": ("s", "lower", "wall_s@grid"),
    "trace.spans": ("count", "lower", "tracing cost"),
    "trace.overhead_wall_pct": ("%", "lower", "tracing cost on wall_s"),
    "trace.overhead_item_pct": ("%", "lower", "tracing cost on item_ms"),
}


def derive(tracer, extra: dict, graph_nodes: int) -> dict:
    """Every :data:`PER_LAYER` metric from the spans of one traced run
    plus the counts the workload measured itself (``extra``)."""
    t = tracer.total
    out = {name: 0.0 for name in PER_LAYER}
    for name in ("data.vectorizer", "core.corrector_fit", "core.correct",
                 "core.detector_fit", "core.predict", "core.save",
                 "train.checkpoint", "train.journal", "nn.rnn_forward",
                 "nn.backward", "nn.optim", "augment.mixup",
                 "augment.reorder", "losses.contrastive", "losses.robust",
                 "metrics.eval", "stream.windower", "stream.drift",
                 "stream.recorrect", "analysis.analyze"):
        out[f"{name}_s"] = t(name)
    out["train.checkpoint_calls"] = len(tracer.named("train.checkpoint"))
    out["train.checkpoint_mb"] = sum(
        s.attrs["bytes"] for s in tracer.named("train.checkpoint")) / 1e6
    out["nn.rnn_forward_calls"] = len(tracer.named("nn.rnn_forward"))
    out["augment.mixup_calls"] = len(tracer.named("augment.mixup"))
    out["nn.graph_nodes"] = graph_nodes

    # Time inside each recipe that no top-level span covers.
    for recipe in tracer.named("train.recipe"):
        kids = [(c.start, c.end) for c in tracer.children(recipe)]
        out["train.other_s"] += recipe.seconds - union_length(kids)

    submits = tracer.named("serve.submit")
    forwards = tracer.named("core.predict") + tracer.named("quant.predict")
    if submits:
        out["serve.submit_us_p50"] = median(
            s.seconds * 1e6 for s in submits)
    batches = [s for s in forwards if s.attrs and "rows" in s.attrs]
    if batches:
        out["serve.forward_ms_p50"] = median(s.seconds * 1e3 for s in batches)
        enqueued = {s.trace: s.end for s in submits}
        waits = [(b.start - enqueued[row]) * 1e3 for b in batches
                 for row in b.attrs["rows"] if row in enqueued]
        if waits:
            out["serve.queue_wait_ms_p50"] = median(waits)

    out["stream.score_s"] = sum(
        s.seconds for s in tracer.named("serve.score_many")
        if s.parent is not None)
    out["stream.reload_s"] = t("serve.reload")
    # Processor self time: checkpointing and bookkeeping, journal
    # writes included, everything else it calls excluded.
    out["stream.self_s"] = tracer.self_seconds(
        "stream.process", exclude=("train.journal",))

    comparisons = tracer.named("experiments.run_comparison")

    def grid(kind):
        """The ``GridExecutor.run`` spans of one kind of comparison and
        the cells they computed (cache hits left out)."""
        runs = [c for s in comparisons if s.attrs and s.attrs.get(kind)
                for c in tracer.children(s) if c.name == "parallel.run"]
        return runs, [c for r in runs for c in r.attrs["cells"] if not c[3]]

    runs, cells = grid("cold")
    if cells:
        seconds = [c[0] for c in cells]
        out["parallel.cell_s_sum"] = sum(seconds)
        out["parallel.cell_s_p50"] = median(seconds)
        out["parallel.retries"] = sum(max(c[1] - 1, 0) for c in cells)
        out["parallel.failed_cells"] = sum(1 for c in cells if not c[2])
        out["experiments.aggregate_s"] = sum(
            s.seconds for s in comparisons
            if s.attrs and s.attrs.get("cold")) - sum(r.seconds for r in runs)
    runs, cells = grid("pool")
    if cells:
        busy = sum(r.seconds for r in runs) * extra.get("workers", 1)
        out["parallel.busy_share"] = sum(c[0] for c in cells) / busy
    out["trace.spans"] = len(tracer.spans)
    out.update({k: v for k, v in extra.items() if k in PER_LAYER})
    return out

