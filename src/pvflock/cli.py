"""Command line front end.

    pvflock run <config> [--out trace.csv] [--seed N] [--quiet]
    pvflock metrics <trace> [--epsilon E] [--comfort-low L] [--comfort-high H]
                            [--transient-hours T]
    pvflock gen-profile pv <out> [--horizon H] [--peak P]

--seed and --out override the config's scenario.seed and output.path, through
their checks.  Errors print one diagnostic line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .coordinator import FleetConfig
from .errors import PvflockError
from .scenario import PvSourceConfig, ScenarioConfig, load_config, synth_pv
from .simulate import compute_metrics, read_trace, run_simulation, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvflock",
        description="Model-free HVAC fleet control tracking a PV profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write the trace")
    run.add_argument("config", help="scenario config file")
    run.add_argument("--out", metavar="PATH", help="trace output path (default from config)")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--quiet", action="store_true", help="suppress the metrics summary")

    met = sub.add_parser("metrics", help="summarize an existing trace CSV")
    met.add_argument("trace", help="trace file produced by `pvflock run`")
    met.add_argument("--epsilon", type=float, default=FleetConfig.epsilon,
                     help="tracking band half-width (kW)")
    met.add_argument("--comfort-low", type=float, default=ScenarioConfig.comfort_low)
    met.add_argument("--comfort-high", type=float, default=ScenarioConfig.comfort_high)
    met.add_argument("--transient-hours", type=float, default=ScenarioConfig.transient_hours)

    gen = sub.add_parser("gen-profile", help="write a synthetic PV profile CSV")
    gen.add_argument("kind", choices=["pv"])
    gen.add_argument("out", help="output CSV path")
    gen.add_argument("--horizon", type=float, default=ScenarioConfig.horizon, help="hours to cover")
    gen.add_argument("--peak", type=float, default=PvSourceConfig.peak, help="peak output (kW)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = replace(load_config(args.config), **{key: value for key, value in
                  (("seed", args.seed), ("output_path", args.out)) if value is not None})
    trace = run_simulation(cfg)
    write_trace(trace, cfg.output_path)
    if not args.quiet:
        report = compute_metrics(trace, epsilon=cfg.fleet.epsilon, comfort_low=cfg.comfort_low,
                                 comfort_high=cfg.comfort_high, transient_hours=cfg.transient_hours)
        for line in report.lines():
            print(line)
        print(f"trace={cfg.output_path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    low, high = args.comfort_low, args.comfort_high
    if not (math.isfinite(low) and math.isfinite(high) and low < high):
        raise PvflockError("need finite --comfort-low < --comfort-high")
    # --epsilon is checked as the config key fleet.epsilon_kw is
    epsilon = FleetConfig(epsilon=args.epsilon).epsilon
    if not (args.transient_hours >= 0 and math.isfinite(args.transient_hours)):
        raise PvflockError("--transient-hours must be >= 0 and finite")
    report = compute_metrics(read_trace(args.trace), epsilon=epsilon, comfort_low=low,
                             comfort_high=high, transient_hours=args.transient_hours)
    for line in report.lines():
        print(line)
    return 0


def _cmd_gen_profile(args: argparse.Namespace) -> int:
    dt = FleetConfig.sample_dt
    # finite hours can still be more grid steps than a float, or one float64 array, holds
    if not 0 < args.horizon / dt < np.iinfo(np.intp).max // 8 - 2:
        raise PvflockError("--horizon must be positive, and its grid steps must fit one array")
    # --peak is checked as the config key pv.peak_kw is
    peak = PvSourceConfig(peak=args.peak).peak
    # the grid up to its first time that reaches the horizon (one step past
    # ceil(h / dt) covers any rounding); t[0] = 0 < h, so that is two rows or more
    t = np.arange(math.ceil(args.horizon / dt) + 2) * dt
    t = t[:np.searchsorted(t, args.horizon) + 1]
    values = synth_pv(t, peak)
    # times in full (repr of the Python float round-trips), so the loader reads
    # back exactly the grid a run samples
    lines = ["t_hours,value"] + [f"{tk!r},{v:.6g}" for tk, v in zip(t.tolist(), values.tolist())]
    with open(args.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        return _cmd_gen_profile(args)
    except (PvflockError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
