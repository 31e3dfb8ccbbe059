"""``train``: the ``repro train`` recipe, end to end, in-process.

CLFD on cert at scale 0.1 with eta 0.3 and
``ExperimentSettings.clfd_config()``, with a checkpoint directory and
a journal, then predict, evaluate and save the archive — the steps of
``repro train --checkpoint-dir D --metrics-out M --out A``.
"""

from __future__ import annotations

import math
import time

from bench_stats import median, nan_equal, tail_percentile
from bench_trace import no_span
from common import check_repeatable, digest, peak_rss_mb, reset_peak_rss

SCALE, ETA = 0.1, 0.3
# Percent: better than chance.  This seed's own test AUC depends on
# how well the label corrector happens to do on its data (it ranged
# 29-100% over ten seeds), so it is reported against this floor; the
# gated floor is wl_serve.REFERENCE_AUC_FLOOR, on the seed-0 model.
AUC_FLOOR = 50.0
SETUP_REPEATS = 2  # before the recipes, and again after each


def prepare(seed, workdir):
    """The seed-0 reference model and its held-out sessions, for the
    gated AUC floor (see ``wl_serve.reference_auc_check``)."""
    import wl_serve

    return wl_serve.prepare(seed, workdir)


def _data(seed):
    from repro.data import apply_uniform_noise, make_dataset
    from repro.train import seed_everything

    rng = seed_everything(seed)
    train, test = make_dataset("cert", rng, scale=SCALE)
    apply_uniform_noise(train, eta=ETA, rng=rng)
    return train, test


def _recipe(train, test, seed, ckdir, span=no_span):
    """One run of the recipe: its outputs and its journal entries."""
    from repro import CLFD
    from repro.core import model_fingerprint, save_clfd
    from repro.experiments import ExperimentSettings
    from repro.metrics import evaluate_detector
    from repro.train import TrainRun, read_journal, seed_everything

    run_ = TrainRun(ckdir, journal=ckdir / "journal.jsonl")
    model = CLFD(ExperimentSettings().clfd_config())
    model.fit(train, rng=seed_everything(seed), run=run_)
    labels, scores = model.predict(test)
    with span("metrics.eval"):
        metrics = evaluate_detector(test.labels(), labels, scores)
    fingerprint = model_fingerprint(model)
    with span("core.save"):
        save_clfd(model, ckdir / "model")
    outcome = {"metrics": {k: float(v) for k, v in metrics.items()},
               "params_sha256": fingerprint}
    return outcome, read_journal(ckdir / "journal.jsonl")


def graph_nodes(prepared, seed, workdir):
    """Autograd graph nodes per training epoch, counted over one recipe
    run under ``nn.profile``, apart from the timed and traced passes."""
    from repro import nn

    train, test = _data(seed)
    with nn.profile() as prof:
        _, journal = _recipe(train, test, seed, workdir / "profiled")
    epochs = sum(1 for e in journal if "epoch" in e and "event" not in e)
    return prof.total_nodes / max(epochs, 1), "epoch"


def run(prepared, seed, seconds, workdir, tracer=None):
    import wl_serve

    span = tracer.span if tracer else no_span
    setups = []

    def set_up():
        t0 = time.perf_counter()
        data = _data(seed)
        setups.append(time.perf_counter() - t0)
        return data

    for _ in range(SETUP_REPEATS):
        train, test = set_up()

    reset_peak_rss()
    walls, head_epochs, head_phases, outcomes = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with span("train.recipe", trace=f"recipe-{len(walls)}"):
            outcome, journal = _recipe(train, test, seed,
                                       workdir / f"recipe{len(walls)}", span)
        walls.append(time.perf_counter() - t0)
        phases = {}
        for e in journal:
            if str(e.get("phase", "")).endswith("/head") and "wall_s" in e:
                phases.setdefault(e["phase"], []).append(e["wall_s"] * 1e3)
        head_epochs += [ms for v in phases.values() for ms in v]
        head_phases += [sum(v) / len(v) for v in phases.values()]
        # F1 and precision are NaN when the detector flags no session,
        # a defined outcome; a recipe fails when its scores rank nothing.
        if not math.isfinite(outcome["metrics"]["auc_roc"]):
            failed += 1
        outcomes.append(outcome)
        # Set-up samples between and after the recipes too, so that the
        # median does not rest on one moment of the run.
        for _ in range(SETUP_REPEATS):
            set_up()
        # The traced pass runs one recipe, so its per-layer sums are per
        # recipe.  Otherwise another runs when at least half of it fits.
        if (tracer is not None
                or time.perf_counter() - start + walls[-1] / 2 > seconds):
            break
    peak = peak_rss_mb()

    auc = outcomes[0]["metrics"]["auc_roc"]
    same = all(nan_equal(o, outcomes[0]) for o in outcomes)
    checks = [
        ("recipes in this run agree on params_sha256 and metrics", same,
         f"{len(outcomes)} recipe(s)"),
        ("test AUC is finite", math.isfinite(auc), f"auc={auc:.4f}%"),
        wl_serve.reference_auc_check(prepared),
    ]
    reported = [("this seed's test AUC above chance", auc > AUC_FLOOR,
                 f"auc={auc:.4f}% floor={AUC_FLOOR}%")]
    if tracer is None:
        checks.append((
            "params_sha256 and metrics match earlier runs of this seed",
            check_repeatable("train", seed, digest(outcomes[0])),
            outcomes[0]["params_sha256"][:16]))
    q, tail = tail_percentile(head_epochs)
    return {
        "setup_s": median(setups), "wall_s": median(walls),
        "item_ms": median(head_phases), "peak_rss_mb": peak,
        "samples": {"setup_s": len(setups), "wall_s": len(walls),
                    "item_ms": len(head_phases)},
        "named": {"head_epoch_p50_ms": (median(head_epochs), "ms",
                                        len(head_epochs)),
                  f"head_epoch_p{q}_ms": (tail, "ms", len(head_epochs)),
                  "auc": (auc, "%", len(test)),
                  "error_rate": (failed / len(outcomes), "ratio",
                                 len(outcomes))},
        "attempted": len(outcomes), "failed": failed, "checks": checks,
        "reported": reported, "repeats": (len(outcomes), "recipe"),
        "outputs": outcomes[0], "extra": {},
    }
