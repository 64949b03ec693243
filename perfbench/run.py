"""pvflock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pvflock is imported from ./src.
Makes the workload's inputs from the seed and repeats whole rounds of the
workload's operations for S seconds, setting up again at points spread
over the run, then checks
the outputs apart from the program and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced run reports per-layer
self time and call counts, and writes every span to
.bench_build/perfbench/spans-NAME.npz.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
#: a run sets up in SETUPS blocks spread over the run, each at least one
#: set-up and SETUP_S / SETUPS seconds long; setup_s is the median set-up.
#: Spreading them lets slow drifts of the machine's speed hit the set-up
#: and the rounds alike.
SETUPS = 10
SETUP_S = 1.0
#: the workloads work on 3 x n arrays and one process; more BLAS/OpenMP
#: threads than one would only contend for the two cores
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS


def end_to_end(wl, tracer, tally, setup_times: list[float]) -> dict:
    med = statistics.median
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (med(setup_times), "s"),
        "wall_s": (med(tally.wall), "s"),
        "sim_building_steps_per_s": (
            wl.sim_work / med(tracer.durations("simulate.run_simulation")), "building-steps/s"),
        "trace_write_mb_per_s": (
            len(wl.raw) / 1e6 / med(tracer.durations("simulate.write_trace")), "MB/s"),
        "trace_read_mb_per_s": (
            len(wl.raw) / 1e6 / med(tracer.durations("simulate.read_trace")), "MB/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure(wl, tracer, tally, seconds: float) -> dict:
    """SETUPS blocks of set-ups, each followed by rounds until their time reaches its share."""
    setup_times: list[float] = []
    rounds_s = 0.0
    for block in range(1, SETUPS + 1):
        block_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if time.perf_counter() - block_start >= SETUP_S / SETUPS:
                break
        while rounds_s < seconds * block / SETUPS:
            t0 = time.perf_counter()
            wl.round(tally)
            rounds_s += time.perf_counter() - t0
    return end_to_end(wl, tracer, tally, setup_times)


def traced(wl, tracer, tally, seconds: float, workload: str) -> dict:
    """Pairs of one set-up plus one round, first with the stage probes only, then traced."""
    from tracing import LAYERS, STAGES

    def unit() -> float:
        tracer.run_id += 1
        t0 = time.perf_counter()
        wl.setup()
        wl.round(tally)
        return time.perf_counter() - t0

    unit()  # warm-up
    pairs = []
    deadline = time.perf_counter() + seconds
    while True:
        plain = unit()
        tracer.restore()
        tracer.install(LAYERS)
        pairs.append((unit() - plain, tracer.run_id))
        tracer.restore()
        tracer.install(STAGES)
        if time.perf_counter() >= deadline:
            break

    totals = [tracer.layer_totals(run_id) for _, run_id in pairs]
    tracer.save(OUT / f"spans-{workload}.npz")
    (OUT / f"layers-{workload}.json").write_text(json.dumps(totals, indent=1))

    def med(layer: str, key: str) -> float:
        return statistics.median(t.get(layer, {}).get(key, 0.0) for t in totals)

    metrics = {}
    for layer in ("control", "coordinator", "plant", "scenario"):
        metrics[f"{layer}.self_s"] = (med(layer, "self_s"), "s")
        metrics[f"{layer}.calls"] = (med(layer, "calls"), "count")
    metrics["coordinator.clamp_ratio"] = (float(wl.trace.clamped.mean()), "ratio")
    metrics["simulate.run_self_s"] = (med("simulate", "simulate.run_simulation.self"), "s")
    metrics["simulate.write_s"] = (med("simulate", "simulate.write_trace"), "s")
    metrics["simulate.read_s"] = (med("simulate", "simulate.read_trace"), "s")
    metrics["simulate.metrics_s"] = (med("simulate", "simulate.compute_metrics"), "s")
    metrics["simulate.trace_bytes"] = (len(wl.raw), "bytes")
    metrics["cli.self_s"] = (med("cli", "self_s"), "s")
    metrics["trace_overhead_s"] = (statistics.median(d for d, _ in pairs), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet_day", "long_horizon_csv", "trace_replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pvflock.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import pvflock from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from tracing import STAGES, Tracer
    from workloads import WORKLOADS, Tally

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.install(STAGES)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](args.seed, work, tracer)
        wl.write_inputs()
        if args.trace:
            metrics = traced(wl, tracer, tally, args.seconds, args.workload)
        else:
            metrics = measure(wl, tracer, tally, args.seconds)
        failures = wl.check()
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
