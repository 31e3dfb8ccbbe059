"""``grid``: ``run_comparison`` over a 12-cell grid, then ``analyze_cache``.

CLFD, DeepLog and LogBert x eta in {0.2, 0.45} x 2 seeds on cert at
scale 0.02 into a fresh run cache, twice per run (once in the traced
pass).  The end-to-end numbers come from sequential grids
(``workers=1``): with ``workers=os.cpu_count()`` on two
cores the same grid took 18-28 s from run to run, a spread wider than
any bound the benchmark may set.  The traced run therefore also runs
the grid on a process pool of ``os.cpu_count()`` workers and reports
its wall time, busy share and speedup over the sequential grid as
per-layer metrics.  No thread environment variable is set: the
workers' BLAS threads compete for the cores exactly as they do for a
user.

The cold grid runs as one ``run_comparison`` per model.  Set-up is
timed on ``run_comparison`` over CLFD's four cells once they are in the
cache, which runs everything a cold run does except computing cells.

``run_comparison`` numbers a grid's seeds 0..seeds-1, so the workload
seed picks which cells are re-run for the cross-check rather than the
cells' inputs.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from bench_stats import median, nan_equal, tail_percentile
from bench_trace import no_span
from common import peak_rss_mb, reset_peak_rss

MODELS = ("CLFD", "DeepLog", "LogBert")
ETAS = (0.2, 0.45)
SEEDS, SCALE, DATASET = 2, 0.02, "cert"
SETUP_BATCH = 12
WARM_REPEATS = 5
# One cell per model (eta 0.2, seed 0): the profiled pass's cells.
PROFILED_CELLS = (0, 4, 8)
CROSS_CHECK_CELLS = 2
COLD_GRIDS = 2


def prepare(seed, workdir):
    return None


def _settings():
    from repro.experiments import ExperimentSettings

    return ExperimentSettings(scale=SCALE, seeds=SEEDS)


def _specs(settings):
    """The grid's cells as ``run_comparison`` lays them out."""
    from repro.parallel import TaskSpec, task_key

    specs = []
    for model in MODELS:
        estimator, config = (("clfd", settings.clfd_config())
                             if model == "CLFD"
                             else (model, settings.baseline_config()))
        for eta in ETAS:
            for seed in range(SEEDS):
                specs.append(TaskSpec(
                    model=model, estimator=estimator, config=config,
                    dataset=DATASET, noise_kind="uniform",
                    noise_params=(eta,), seed=seed, scale=SCALE))
    return specs, [task_key(s) for s in specs]


def graph_nodes(prepared, seed, workdir):
    """Autograd graph nodes per cell, counted over one cell of each
    model run in-process under ``nn.profile``."""
    from repro import nn
    from repro.parallel import GridExecutor

    specs, _ = _specs(_settings())
    with nn.profile() as prof:
        GridExecutor(workers=1).run([specs[i] for i in PROFILED_CELLS])
    return prof.total_nodes / len(PROFILED_CELLS), "cell"


def run(prepared, seed, seconds, workdir, tracer=None):
    from repro.analysis import analyze_cache
    from repro.experiments import run_comparison, uniform_noise
    from repro.parallel import GridExecutor, RunCache, SweepError

    span = tracer.span if tracer else no_span
    settings = _settings()
    noises = [uniform_noise(eta) for eta in ETAS]
    specs, keys = _specs(settings)

    reset_peak_rss()
    setups = []

    def set_up_batch(cache_dir):
        """Set-up samples: run_comparison over CLFD's cells in a filled
        cache, which does everything a cold run does before and after
        computing cells (estimator and cell specs, cache keys, opening
        the cache, the lookups, the aggregation) and nothing else.
        Batches are taken between the models' cold runs and between the
        cross-checked cells, so the samples spread over the whole run."""
        for _ in range(SETUP_BATCH):
            t1 = time.perf_counter()
            with span("experiments.run_comparison", trace="grid-warm"):
                run_comparison(settings, noises, models=[MODELS[0]],
                               datasets=(DATASET,), cache=str(cache_dir))
            setups.append(time.perf_counter() - t1)

    def cold_grid(k):
        """One cold grid into a fresh cache, one run_comparison per model
        (the same 12 cells and aggregates as one call, with room for
        set-up samples between), then analyze_cache."""
        cache_dir = workdir / f"cache{k}"
        results, failed, wall, report = {}, 0, 0.0, None
        for model in MODELS:
            t0 = time.perf_counter()
            with span("experiments.run_comparison",
                      trace=f"grid{k}-cold-{model}") as s:
                if s is not None:
                    s.attrs = {"cold": True}
                try:
                    results.update(run_comparison(
                        settings, noises, models=[model],
                        datasets=(DATASET,), cache=str(cache_dir)))
                except SweepError as exc:
                    failed += len(exc.failures)
            wall += time.perf_counter() - t0
            if not failed:
                set_up_batch(cache_dir)
        if not failed:
            t0 = time.perf_counter()
            with span("analysis.analyze"):
                report = analyze_cache(str(cache_dir), metric="auc_roc")
            wall += time.perf_counter() - t0
        return {"results": None if failed else results, "failed": failed,
                "wall": wall, "report": report, "cache": cache_dir}

    # The traced pass runs one grid, so its per-layer sums are per grid.
    grids = [cold_grid(k) for k in range(1 if tracer else COLD_GRIDS)]
    peak = peak_rss_mb()
    first = grids[0]
    results, cache_dir = first["results"], first["cache"]
    failed_cells = sum(g["failed"] for g in grids)
    wall = median(g["wall"] for g in grids)

    pick = np.random.default_rng(seed).choice(len(specs), CROSS_CHECK_CELLS,
                                              replace=False)
    rerun = []
    for i in pick:
        rerun += GridExecutor(workers=1).run([specs[i]])
        if results:
            set_up_batch(cache_dir)

    # A resume of the whole grid over the filled cache.
    resumes, warm = [], None
    for _ in range(WARM_REPEATS if results else 0):
        t1 = time.perf_counter()
        with span("experiments.run_comparison", trace="grid-warm"):
            warm = run_comparison(settings, noises, models=list(MODELS),
                                  datasets=(DATASET,), cache=str(cache_dir))
        resumes.append(time.perf_counter() - t1)

    extra = {"parallel.warm_resume_s": median(resumes or [math.nan])}
    if tracer is not None:
        workers = os.cpu_count() or 1
        t2 = time.perf_counter()
        with span("experiments.run_comparison", trace="grid-pool") as s:
            s.attrs = {"pool": True}
            pooled = run_comparison(settings, noises, models=list(MODELS),
                                    datasets=(DATASET,), workers=workers,
                                    cache=str(workdir / "pool-cache"))
        pool_s = time.perf_counter() - t2
        extra.update({"workers": workers, "parallel.pool_wall_s": pool_s,
                      "parallel.pool_speedup": wall / pool_s})
        checks_pool = [("pool grid equals the sequential grid "
                        "(NaN-aware exact)", nan_equal(pooled, results), "")]
    else:
        checks_pool = []

    records = [cache.get(k) for cache in (RunCache(g["cache"]) for g in grids)
               for k in keys]
    cells_ok = [r for r in records if r is not None]
    cell_ms = [r["seconds"] * 1e3 for r in cells_ok]
    same_cells = all(
        r.ok and records[i] is not None
        and nan_equal(r.metrics, records[i]["metrics"])
        for i, r in zip(pick, rerun))

    attempted = len(specs) * len(grids)
    clfd_auc = (float(np.mean([results["CLFD"][DATASET][n.label]["auc_roc"]
                               .mean for n in noises]))
                if results else float("nan"))
    checks = [
        ("every cell succeeded",
         failed_cells == 0 and len(cells_ok) == attempted,
         f"{len(cells_ok)}/{attempted} cached, {failed_cells} failed"),
        ("cold grids in this run agree (NaN-aware exact)",
         all(nan_equal(g["results"], results) for g in grids),
         f"{len(grids)} grid(s)"),
        ("re-run cells equal the cached cells (NaN-aware exact)", same_cells,
         f"cells {sorted(int(i) for i in pick)}"),
        ("warm resume aggregates equal the cold run's (NaN-aware exact)",
         results is not None and nan_equal(warm, results), ""),
        ("analysis report rendered",
         all(g["report"] for g in grids), ""),
        *checks_pool,
    ]
    q, tail = tail_percentile(cell_ms)
    return {
        "setup_s": median(setups or [math.nan]), "wall_s": wall,
        "item_ms": median(cell_ms), "peak_rss_mb": peak,
        "samples": {"setup_s": len(setups), "wall_s": len(grids),
                    "item_ms": len(cell_ms)},
        "named": {
            f"cell_p{q}_ms": (tail, "ms", len(cell_ms)),
            "auc": (clfd_auc, "%", 4),
            "error_rate": (failed_cells / attempted, "ratio", attempted),
        },
        "attempted": attempted, "failed": failed_cells, "checks": checks,
        "repeats": (len(grids), "grid"),
        "outputs": {"cells": [r["metrics"] if r else None
                              for r in records[:len(keys)]]},
        "extra": extra,
    }
