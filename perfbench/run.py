"""The repository benchmark: one command, five workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  The program under test is imported
from ``src/`` of that checkout; nothing is installed and no thread
environment variable is set.  With ``--trace 0`` the run is untraced
and its last stdout line is one JSON object holding every end-to-end
metric.  With ``--trace 1`` the workload runs untraced, then traced
(spans around the program's public functions, wrapped from here), then
briefly under ``nn.profile`` to count graph nodes; the JSON holds every
per-layer metric, including the tracing overhead, and the spans go to
``.perfbench-out/``.  Any failed
correctness check makes the exit code 1.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

import bench_layers
from bench_stats import nan_equal
from bench_trace import Tracer
from common import OUT, ROOT, SRC, WORK, fail, host_facts, log

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_ms": "ms",
              "peak_rss_mb": "MB"}
WORKLOADS = ("train", "serve", "serve-int8", "stream", "grid")


def _module(workload):
    import wl_grid
    import wl_serve
    import wl_stream
    import wl_train

    return {
        "train": (wl_train.prepare, wl_train.run, wl_train.graph_nodes),
        "serve": (wl_serve.prepare, wl_serve.run, wl_serve.graph_nodes),
        "serve-int8": (wl_serve.prepare, wl_serve.run_int8,
                       wl_serve.graph_nodes_int8),
        "stream": (wl_stream.prepare, wl_stream.run, wl_stream.graph_nodes),
        "grid": (wl_grid.prepare, wl_grid.run, wl_grid.graph_nodes),
    }[workload]


def _traced(run, prepared, args, workdir):
    """One traced pass: returns (result, tracer)."""
    tracer = Tracer()
    bench_layers.install(tracer)
    try:
        result = run(prepared, args.seed, args.seconds, workdir, tracer)
    finally:
        tracer.restore()
    return result, tracer


def _print_checks(checks):
    for name, ok, detail in checks:
        log(f"check {'ok  ' if ok else 'FAIL'} {name}"
            + (f" ({detail})" if detail else ""))


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    prepare, run, graph_nodes = _module(args.workload)

    facts = host_facts()
    log("host " + json.dumps(facts, sort_keys=True))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        prepared = prepare(args.seed, workdir)
        log(f"prepared in {time.perf_counter() - t0:.2f} s "
            "(outside setup_s)")
        result = run(prepared, args.seed, args.seconds, workdir / "untraced")
        # An open-loop phase whose generator fell behind applied less
        # load than claimed, which invalidates the gated numbers drawn
        # from it.  The traced pass only reports it, since tracing slows
        # the generator as well as the program.
        checks = result["checks"] + result.get("validity", [])
        reported = result.get("reported", [])
        if args.trace:
            traced, tracer = _traced(run, prepared, args, workdir / "traced")
            count, unit = traced["repeats"]
            log(f"traced pass: {count} {unit}(s), which the per-layer "
                "sums and counts cover")
            # Graph nodes come from a pass of their own: nn.profile
            # takes a lock per node and times every backward closure,
            # which the traced pass's timings must not include.
            nodes, per = graph_nodes(prepared, args.seed,
                                     workdir / "profiled")
            log(f"nn.graph_nodes counted per {per}")
            checks += [(f"traced pass: {name}", ok, detail)
                       for name, ok, detail in traced["checks"]]
            reported += [(f"traced pass: {name}", ok, detail)
                         for name, ok, detail in traced.get("validity", [])]
            checks.append(("traced pass produced the untraced outputs",
                           nan_equal(traced["outputs"], result["outputs"]),
                           ""))
            extra = dict(traced["extra"])
            for key, name in (("wall_s", "trace.overhead_wall_pct"),
                              ("item_ms", "trace.overhead_item_pct")):
                extra[name] = 100.0 * (traced[key] - result[key]) / result[key]
            layers = bench_layers.derive(tracer, extra, nodes)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            log(f"wrote {len(tracer.spans)} spans to "
                f"{spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log(f"workload {args.workload} seed {args.seed}: "
        f"{result['attempted']} attempted, {result['failed']} failed")
    for name, unit in END_TO_END.items():
        n = result["samples"].get(name, 1)
        log(f"  {name:22s} {result[name]:14.6f} {unit} (n={n})")
    for name, (value, unit, n) in result["named"].items():
        log(f"  {name:22s} {value:14.6f} {unit} (n={n})")
    _print_checks(checks)
    for name, ok, detail in reported:
        log(f"report {'ok  ' if ok else 'WARN'} {name} ({detail}); "
            "reported, not gating")
    correct = all(ok for _, ok, _ in checks) and all(
        math.isfinite(result[name]) for name in END_TO_END)

    if args.trace:
        per_layer = bench_layers.PER_LAYER
        for name, (unit, _, moves) in per_layer.items():
            log(f"  {name:28s} {layers[name]:14.6f} {unit:6s} -> {moves}")
        metrics = {name: {"value": float(layers[name]),
                          "unit": per_layer[name][0]} for name in per_layer}
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        if lines:
            try:
                summary[workload] = json.loads(lines[-1])
            except ValueError:
                code = 1
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()) or 1,
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items()
                    for k, v in r["metrics"].items()},
    }), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
