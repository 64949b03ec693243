"""Command line front end.

    pvflock run <config> [--out trace.csv] [--seed N] [--quiet]
    pvflock metrics <trace> [--epsilon E] [--comfort-low L] [--comfort-high H]
                            [--transient-hours T]
    pvflock gen-profile <kind> <out> [--horizon H] [--peak P]

Seeds resolve as: --seed flag, then the PVFLOCK_SEED environment variable,
then the config file's scenario.seed.  Errors print one diagnostic line to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .coordinator import FleetConfig
from .errors import PvflockError
from .scenario import (
    DisturbanceParams,
    PvSourceConfig,
    ScenarioConfig,
    load_config,
    synth_disturbances,
    synth_pv,
)
from .simulate import compute_metrics, read_trace, run_simulation, write_trace

PROFILE_KINDS = ("pv", "outdoor", "solar", "internal")


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
    met.add_argument("--epsilon", type=float, default=1.0, help="tracking band half-width (kW)")
    met.add_argument("--comfort-low", type=float, default=22.0)
    met.add_argument("--comfort-high", type=float, default=24.0)
    met.add_argument("--transient-hours", type=float, default=6.0)

    gen = sub.add_parser("gen-profile", help="write a synthetic profile CSV")
    gen.add_argument("kind", choices=PROFILE_KINDS)
    gen.add_argument("out", help="output CSV path")
    gen.add_argument("--horizon", type=float, default=72.0, help="hours to cover")
    gen.add_argument("--peak", type=float, default=None,
                     help="peak value (pv/solar kinds; defaults from the scenario)")
    return parser


def _resolve_seed(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("PVFLOCK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PvflockError(f"PVFLOCK_SEED must be an integer, got {env!r}") from None
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    trace = run_simulation(cfg)
    out = args.out or cfg.output_path
    write_trace(trace, out)
    if not args.quiet:
        for line in compute_metrics(trace, cfg).lines():
            print(line)
        print(f"trace={out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    low, high = args.comfort_low, args.comfort_high
    if not (math.isfinite(low) and math.isfinite(high) and low < high):
        raise PvflockError("need finite --comfort-low < --comfort-high")
    if not (args.epsilon > 0 and math.isfinite(args.epsilon)):
        raise PvflockError("--epsilon must be positive and finite")
    if not (args.transient_hours >= 0 and math.isfinite(args.transient_hours)):
        raise PvflockError("--transient-hours must be >= 0 and finite")
    trace = read_trace(args.trace)
    # the setpoint plays no part in the metrics; the band's midpoint only
    # satisfies ScenarioConfig's comfort_low < setpoint < comfort_high
    cfg = ScenarioConfig(
        fleet=FleetConfig(epsilon=args.epsilon),
        setpoint=low / 2 + high / 2,
        comfort_low=low,
        comfort_high=high,
        transient_hours=args.transient_hours,
    )
    for line in compute_metrics(trace, cfg).lines():
        print(line)
    return 0


def _cmd_gen_profile(args: argparse.Namespace) -> int:
    if not (args.horizon > 0 and math.isfinite(args.horizon)):
        raise PvflockError("--horizon must be positive and finite")
    # --peak is checked as the config keys pv.peak_kw and disturbance.d2_peak_kw are
    pv, dist = PvSourceConfig(), DisturbanceParams()
    if args.kind == "pv" and args.peak is not None:
        pv = replace(pv, peak=args.peak)
    if args.kind == "solar" and args.peak is not None:
        dist = replace(dist, d2_peak=args.peak)
    dt = 1.0 / 6.0
    t = np.arange(round(args.horizon / dt) + 1) * dt
    if args.kind == "pv":
        values = synth_pv(t, pv.peak)
    else:
        values = synth_disturbances(t, dist)[:, ("outdoor", "solar", "internal").index(args.kind)]
    # times in full (repr of the Python float round-trips): at %.6g the grid
    # stops looking uniform to the loader from 10 h on
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
    except PvflockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
