"""The three workloads: their inputs, one round of their operations, their checks.

Every operation enters the program through `pvflock.cli.main`, as a user
typing `pvflock run`, `pvflock metrics` or `pvflock gen-profile` would.
The in-memory trace and the timings of the stage calls come from the
tracer's probes on `pvflock.simulate`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from pathlib import Path

import pvflock.cli
import pvflock.scenario
import pvflock.simulate
from pvflock.errors import PvflockError

import checks
from inputs import Scenario, cloudy_pv_csv

#: fleet_day size: ten times the shipped 13-building fleet, about 1 s a run,
#: so that a run of the benchmark holds some twenty of them
FLEET_N = 130
#: long_horizon_csv length: four weeks
LONG_H = 672.0
#: the shipped fleet's PV peak for 13 buildings, scaled with the fleet
PEAK_PER_13 = 12.0


def cli(argv: list[str]) -> tuple[int, str, float]:
    """Run `pvflock <argv>`; return the exit code, its stdout and its wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = pvflock.cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


class Tally:
    """Operations attempted and failed, and the wall time of each timed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []

    def op(self, ok: bool, seconds: float | None) -> None:
        self.attempted += 1
        self.failed += not ok
        if ok and seconds is not None:
            self.wall.append(seconds)


class Workload:
    """Inputs from a seed, a set-up that writes them, rounds of operations, checks."""

    def __init__(self, seed: int, work: Path, tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.sc = self.scenario(seed)
        self.cfg = work / "scenario.cfg"
        self.out = work / "trace.csv"
        self.digests: set[str] = set()
        self.failures: list[str] = []
        self.trace = None  # the last simulated trace, in memory
        self.raw = b""  # the last written trace, as bytes
        self.back = None  # the last trace read back from the file

    def scenario(self, seed: int) -> Scenario:
        return Scenario(n_buildings=FLEET_N, horizon_h=72.0, seed=seed,
                        pv_peak_kw=PEAK_PER_13 * FLEET_N / 13)

    def write_inputs(self) -> None:
        self.cfg.write_text(self.sc.config_text(None))

    def setup(self) -> None:
        """Load the inputs as the program does; trace_replay also writes its trace."""
        pvflock.scenario.load_config(self.cfg)

    def run(self, tally: Tally | None) -> None:
        """`pvflock run`; counted as an operation unless it is part of the set-up."""
        code, printed, seconds = cli(["run", str(self.cfg), "--out", str(self.out)])
        if tally is not None:
            tally.op(code == 0, seconds)
        elif code != 0:
            raise RuntimeError("pvflock run failed during set-up")
        if code == 0:
            self.trace = self.tracer.last["simulate.run_simulation"]
            self.printed = printed
            self.raw = self.out.read_bytes()
            self.digests.add(hashlib.sha256(self.raw).hexdigest())

    def read_back(self) -> None:
        self.back = pvflock.simulate.read_trace(self.out)

    def round(self, tally: Tally) -> None:
        self.run(tally)
        self.read_back()

    def check(self) -> list[str]:
        out = list(self.failures)
        if len(self.digests) > 1:
            out.append(f"{len(self.digests)} different trace files from one input")
        if self.trace is None:
            return out
        out += checks.check_run(self.sc, self.trace, self.printed)
        return out + checks.check_file(self.sc, self.raw, self.back, self.trace)

    @property
    def sim_work(self) -> int:
        return self.sc.building_steps


class FleetDay(Workload):
    """A 130-building fleet over the shipped 72 h synthetic day; each round is `pvflock run`."""


class LongHorizonCsv(Workload):
    """The shipped 13-building fleet over four weeks of cloudy PV read from a CSV."""

    def scenario(self, seed: int) -> Scenario:
        sc = Scenario(n_buildings=13, horizon_h=LONG_H, seed=seed, pv_peak_kw=PEAK_PER_13)
        self.pv_text, *grid = cloudy_pv_csv(seed, LONG_H, PEAK_PER_13)
        sc.pv_grid = tuple(grid)
        return sc

    def write_inputs(self) -> None:
        self.csv = self.work / "pv.csv"
        self.csv.write_text(self.pv_text)
        self.cfg.write_text(self.sc.config_text(self.csv.resolve()))

    def setup(self) -> None:
        super().setup()
        pvflock.scenario.load_profile_csv(self.csv, non_negative=True)

    def round(self, tally: Tally) -> None:
        self.gen_profile(tally)
        super().round(tally)

    def gen_profile(self, tally: Tally) -> None:
        """`pvflock gen-profile pv` over the horizon, loaded as a PV source.

        Fails today on every input: gen-profile writes times with %.6g, which
        keeps 4 decimals from 10 h on, and the loader then finds the grid
        not uniform.
        """
        path = self.work / "gen_pv.csv"
        code, _, _ = cli(["gen-profile", "pv", str(path), "--horizon", repr(LONG_H),
                          "--peak", repr(PEAK_PER_13)])
        try:
            profile = pvflock.scenario.load_profile_csv(path, non_negative=True) if code == 0 else None
        except PvflockError:
            profile = None
        tally.op(profile is not None, None)
        if profile is not None:
            self.failures += checks.check_generated_pv(profile, LONG_H, PEAK_PER_13)


class TraceReplay(Workload):
    """`pvflock metrics` on a fleet_day trace that the set-up writes with `pvflock run`."""

    def setup(self) -> None:
        super().setup()
        self.run(None)

    def round(self, tally: Tally) -> None:
        code, printed, seconds = cli([
            "metrics", str(self.out), "--epsilon", repr(self.sc.epsilon),
            "--comfort-low", repr(self.sc.comfort[0]), "--comfort-high", repr(self.sc.comfort[1]),
            "--transient-hours", repr(self.sc.transient_h),
        ])
        tally.op(code == 0, seconds)
        if code == 0:
            self.replayed = printed
            self.back = self.tracer.last["simulate.read_trace"]

    def check(self) -> list[str]:
        out = super().check()
        if self.back is None:
            return out
        sc, tr, back = self.sc, self.trace, self.back
        ranges = checks.metric_ranges(sc, back.t, back.t1, back.pv, back.sum_p, back.infeasible, rel=0.0)
        out += checks.check_metrics(self.replayed, ranges, "replayed metrics of the read trace")
        # to the trace's precision: a step within %.6g rounding of a bound may count either way
        ranges = checks.metric_ranges(sc, tr.t, tr.t1, tr.pv, tr.sum_p, tr.infeasible, rel=checks.G6)
        return out + checks.check_metrics(self.replayed, ranges, "replayed metrics of the run")


WORKLOADS = {"fleet_day": FleetDay, "long_horizon_csv": LongHorizonCsv, "trace_replay": TraceReplay}
