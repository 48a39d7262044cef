#!/usr/bin/env python3
"""Benchmark for meanmax: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload majorant-sweep --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload's fixed, seeded operation list for about
--seconds seconds (a round starts only when the previous one says it will end
in time, and there is always at least one after the warm-up round of a library
workload), checks every output, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, their times scaled to a
reference machine speed by a probe timed throughout each round (workloads.py,
speed_probe; the unscaled times go to stderr); with --trace 1 the run
alternates untraced and traced rounds and reports the per-layer metrics from
the traced ones.  --workload all runs every workload in a fresh process and
prints one line each.  The library is imported from src/ next to this
directory; without it the run exits with code 2.  Metric names and units come
from BENCHMARK.json at the root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread for this process and every process it starts: set
# before numpy loads, and inherited by the CLI subprocesses.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("majorant-sweep", "verify-suite", "cli-session")
DEFAULT_SEED = 1


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in a section."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def with_units(metrics: dict, section: str) -> dict:
    """The metrics in BENCHMARK.json's order and units; any mismatch is an error."""
    units = declared_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(f"computed and declared {section} metrics differ: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit": done.returncode}))
            worst = max(worst, done.returncode or 1)
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return worst


def tail_percentile(ops_per_round: int) -> int:
    """Highest whole percentile that leaves at least ten operations of a round above it."""
    return math.floor(100.0 * (ops_per_round - 10) / ops_per_round)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def rounds_for(seconds: float, run_round, minimum: int = 1):
    """Run whole rounds while the next one is expected to end within the budget,
    and at least minimum rounds."""
    from tracing import perf

    results, start, last = [], perf(), 0.0
    while len(results) < minimum or perf() - start + last <= seconds:
        t = perf()
        results.append(run_round())
        last = perf() - t
    return results


def time_metrics(rounds, scaled: bool) -> dict:
    """The four time metrics, each time multiplied by its round's speed scale
    (seconds at the reference speed) or, unscaled, as the clock read them."""
    ops = len(rounds[0].latencies)
    k = {id(r): r.scale if scaled else 1.0 for r in rounds}
    latencies = [x * k[id(r)] for r in rounds for x in r.latencies]
    return {
        "setup_s": statistics.median(x * k[id(r)] for r in rounds for x in r.setup_samples),
        "wall_s": statistics.median(r.wall_s * k[id(r)] for r in rounds),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * nearest_rank(latencies, tail_percentile(ops)),
    }


def end_to_end(rounds, source_evals: int, rss_mb: float) -> dict:
    raw = time_metrics(rounds, scaled=False)
    probe_ms = 1e3 * statistics.median(p for r in rounds for p in r.probes)
    print("unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())
          + f"; speed probe median {probe_ms:.4g} ms over {len(rounds)} rounds", file=sys.stderr)
    return {**time_metrics(rounds, scaled=True), "source_evals": source_evals,
            "peak_rss_mb": rss_mb}


def report_failures(rounds) -> tuple[int, int, bool]:
    """rounds: (operations attempted, failures) per round."""
    attempted = sum(n for n, _ in rounds)
    failed = sum(len(f) for _, f in rounds)
    correct = True
    seen = set()
    for _, failures in rounds:
        for label, msg, fault in failures:
            correct = correct and fault is not None
            if (label, msg) not in seen:
                seen.add((label, msg))
                tag = f"known fault: {fault}" if fault else "UNEXPECTED"
                print(f"failed ({tag}): {label}: {msg}", file=sys.stderr)
    return attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meanmax" / "__init__.py").is_file():
        print(f"error: no meanmax sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import meanmax

    if Path(meanmax.__file__).resolve().parent != SRC / "meanmax":
        print(f"error: imported meanmax from {meanmax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracles
    import tracing
    import workloads

    problems = oracles.self_test()
    if problems:
        print("error: oracle self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    counter = tracing.SourceCounter()
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        if args.workload == "majorant-sweep":
            wl = workloads.MajorantSweep(args.seed, counter)
        elif args.workload == "verify-suite":
            wl = workloads.VerifySuite(args.seed, counter)
        else:
            wl = workloads.CliSession(args.seed, counter, ROOT, workdir)
        if args.trace:
            result, spans = traced_run(wl, args.seconds, counter)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            result = plain_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def plain_run(wl, seconds: float) -> dict:
    import tracing
    import workloads

    null = tracing.NullTracer()
    rounds = rounds_for(seconds, lambda: wl.run_round(null), 1 + wl.warmup_rounds)
    # Warm-up rounds are checked and counted, but their times are left out.
    attempted, failed, correct = report_failures([(len(r.latencies), r.failures)
                                                  for r in rounds])
    rounds = rounds[wl.warmup_rounds:]
    if wl.name == "cli-session":
        source_evals = wl.replay()[0]
        rss = workloads.peak_rss_mb(children=True)
    else:
        per_round = {r.source_points for r in rounds}
        if len(per_round) > 1:
            print(f"warning: source points differ between rounds: {sorted(per_round)}",
                  file=sys.stderr)
        source_evals = int(statistics.median(r.source_points for r in rounds))
        rss = workloads.peak_rss_mb()
    metrics = end_to_end(rounds, source_evals, rss)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": with_units(metrics, "end_to_end")}


def traced_run(wl, seconds: float, counter):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    import tracing

    tracer = tracing.Tracer(counter)
    null = tracing.NullTracer()
    plain_walls, traced_walls, layer_rounds, spans = [], [], [], []
    checked = []  # (operations attempted, failures) of each traced round
    is_cli = wl.name == "cli-session"

    def one_pair():
        if is_cli:
            plain_walls.append(wl.replay()[1])
        else:
            plain_walls.append(wl.run_round(null, setup_repeats=1).wall_s)
        tracer.spans = []
        c0, p0 = counter.calls, counter.points
        tracer.install()
        try:
            if is_cli:
                _, wall, failures = wl.replay(tracer)
                checked.append((len(wl.calls), failures))
                rnd = None
            else:
                # One set-up, so the layer metrics count what one set-up builds.
                rnd = wl.run_round(tracer, setup_repeats=1)
                wall = rnd.wall_s
                checked.append((len(rnd.latencies), rnd.failures))
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        calls, points = counter.calls - c0, counter.points - p0
        if rnd is not None:
            # Set-up builds fall outside the operations; count what the operations used.
            calls, points = rnd.source_calls, rnd.source_points
        layer_rounds.append(tracing.layer_metrics(tracer.spans, calls, points))
        spans.append(tracer.dump())

    rounds_for(seconds, one_pair)
    metrics = tracing.median_metrics(layer_rounds)
    metrics["cli.start_ms"] = 1e3 * statistics.median(wl.bare_starts([])) if is_cli else 0.0
    metrics["trace.wall_ms"] = 1e3 * statistics.median(plain_walls)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced_walls)
                                          - statistics.median(plain_walls))
    attempted, failed, correct = report_failures(checked)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": with_units(metrics, "per_layer")}
    return result, spans


if __name__ == "__main__":
    sys.exit(main())
