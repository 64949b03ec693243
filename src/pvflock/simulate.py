"""Fleet simulation driver, trace serialization and scenario metrics.

A run first computes everything that depends only on the time grid and the
settings: the times, the PV output, the aggregate band with the
per-building bounds, the (steps, 3) disturbance forcing C w, the plant's
transition map and the estimator's kernel tables.  It then marches N
identical buildings at the control rate, and a control period does only the
arithmetic that needs the fleet's state: the estimate over the trace's last
c rows, the iP law on every building's air temperature, one clamp onto that
period's bounds, one RK4 update of the (3, N) state block and one range
check of it.
Initial air temperatures are drawn uniformly from the configured range with
a seeded generator; interior mass starts at the air temperature and the wall
core one degree above, so a hot start really is a hot building.

The trace CSV layout (one row per control period, LF line endings, floats at
6 significant digits):

    t_hours,pv_kw,sum_p_kw,band_lo_kw,band_hi_kw,infeasible,
    then per building i (1-based): T1_i,T2_i,T3_i,u_i_kw,p_i_kw,clamped_i

A (config, seed) pair fully determines every byte of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import estimate_f, estimator_kernel, ip_control, reference
from .coordinator import building_bounds, clamp_to_bounds
from .plant import check_sane, rk4_fleet, transition_map
from .scenario import ScenarioConfig, load_profile_csv, read_csv_table, synth_disturbances, synth_pv


@dataclass
class SimulationTrace:
    """Column-oriented record of a run; arrays are (steps,) or (steps, n).

    Temperatures in row k are the measurements at t[k] (before actuation);
    u and p are the controls applied over [t[k], t[k] + dt).
    """

    n_buildings: int
    t: np.ndarray
    pv: np.ndarray
    sum_p: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    infeasible: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    u: np.ndarray
    p: np.ndarray
    clamped: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.t)


def build_fleet(cfg: ScenarioConfig) -> np.ndarray:
    """Seeded initial (T1, T2, T3) of every building, as a (3, n) block."""
    rng = np.random.default_rng(cfg.seed)
    t1 = rng.uniform(cfg.initial_t1_low, cfg.initial_t1_high, cfg.fleet.n_buildings)
    return np.stack([t1, t1, t1 + 1.0])


def run_simulation(cfg: ScenarioConfig) -> SimulationTrace:
    """Run the configured scenario.

    Raises PlantDivergenceError naming the first building whose state leaves
    the sane temperature range.
    """
    n, steps, dt = cfg.fleet.n_buildings, cfg.n_steps, cfg.fleet.sample_dt
    c, alpha, kp = cfg.window_capacity, cfg.alpha, cfg.kp
    t = np.arange(steps) * dt
    if cfg.pv.kind == "csv":
        pv = load_profile_csv(cfg.pv.csv_path, non_negative=True).value_at(t)
    elif cfg.pv.kind == "synthetic":
        pv = synth_pv(t, cfg.pv.peak)
    else:
        pv = np.zeros(steps)
    band_lo, band_hi, lo, hi, infeasible = building_bounds(pv, cfg.fleet)
    tm = transition_map(cfg.building, dt, cfg.substeps)
    cw = synth_disturbances(t, cfg.disturbance) @ tm.c.T
    tr = SimulationTrace(
        n_buildings=n,
        t=t,
        pv=pv,
        sum_p=np.zeros(steps),
        band_lo=band_lo,
        band_hi=band_hi,
        infeasible=infeasible,
        t1=np.zeros((steps, n)),
        t2=np.zeros((steps, n)),
        t3=np.zeros((steps, n)),
        u=np.zeros((steps, n)),
        p=np.zeros((steps, n)),
        clamped=np.zeros((steps, n), dtype=bool),
    )
    states = build_fleet(cfg)
    y0 = states[0]
    # a finite setting can overflow the iP law (kp = 1e308); ip_control and
    # check_sane test every control and state, so numpy's warnings would
    # only repeat their one error
    with np.errstate(over="ignore", invalid="ignore"):
        ky, ku = estimator_kernel(t, c, alpha, dt)
        for k in range(steps):
            y_ref, y_ref_dot = reference(t[k], y0, cfg.setpoint, cfg.ramp_hours)
            # the estimator window is the last c rows of the measured T1 and applied u
            f_hat = (
                estimate_f(ky[k - c], ku[k - c], tr.t1[k - c:k], tr.u[k - c:k], dt)
                if k >= c else 0.0
            )
            u_raw = ip_control(f_hat, y_ref_dot, states[0] - y_ref, alpha, kp)
            tr.p[k], tr.u[k], tr.clamped[k] = clamp_to_bounds(u_raw, lo[k], hi[k])
            tr.t1[k], tr.t2[k], tr.t3[k] = states
            states = rk4_fleet(states, tr.u[k], cw[k], tm)
            check_sane(states, t[k] + dt)
    tr.sum_p = sum_rows(tr.p)
    return tr


#: elements in one block of sum_rows' running sums (512 KiB of doubles)
_SUM_BLOCK = 1 << 16


def sum_rows(p: np.ndarray) -> np.ndarray:
    """Row sums of a (steps, n) array, each added left to right, building by building.

    numpy's pairwise sum can differ in the last bit, which %.6g occasionally
    shows.  The running sums are taken over blocks of rows, so no (steps, n)
    temporary is built.
    """
    out = np.empty(len(p))
    block = max(1, _SUM_BLOCK // p.shape[1])
    for i in range(0, len(p), block):
        out[i:i + block] = np.cumsum(p[i:i + block], axis=1)[:, -1]
    return out


# ---------------------------------------------------------------------------
# metrics

#: slack added to the epsilon comparison so boundary-clamped steps are not
#: misclassified by accumulated rounding
_EPS_SLACK = 1e-9


@dataclass(frozen=True)
class MetricsReport:
    """Scenario-level summary; tracking fields are None when PV never ran."""

    empty: bool
    comfort_violation_steps: int
    comfort_max_depth: float
    tracking_rms: float | None
    tracking_within_eps_pct: float | None
    peak_sum_p: float
    infeasible_steps: int

    def lines(self) -> list[str]:
        def fmt(value) -> str:
            if value is None:
                return "n/a"
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, int):
                return str(value)
            return f"{value:.6g}"

        return [
            f"empty={fmt(self.empty)}",
            f"comfort_violation_steps={fmt(self.comfort_violation_steps)}",
            f"comfort_max_depth_c={fmt(self.comfort_max_depth)}",
            f"tracking_rms_kw={fmt(self.tracking_rms)}",
            f"tracking_within_eps_pct={fmt(self.tracking_within_eps_pct)}",
            f"peak_sum_p_kw={fmt(self.peak_sum_p)}",
            f"infeasible_steps={fmt(self.infeasible_steps)}",
        ]


def compute_metrics(trace: SimulationTrace, cfg: ScenarioConfig) -> MetricsReport:
    """Summarize comfort and tracking over a trace.

    Comfort counts building-steps with T1 outside [comfort_low, comfort_high]
    after the start-up transient.  Tracking statistics cover PV-active steps
    only and are reported as not-applicable when PV never produced.
    """
    empty = trace.n_steps == 0
    settled = trace.t >= cfg.transient_hours
    t1 = trace.t1[settled]
    below = np.maximum(cfg.comfort_low - t1, 0.0)
    above = np.maximum(t1 - cfg.comfort_high, 0.0)
    depth = np.maximum(below, above)
    violation_steps = int(np.count_nonzero(depth > 0))
    max_depth = float(depth.max()) if depth.size else 0.0

    active = trace.pv > 0
    if np.any(active):
        err = trace.sum_p[active] - trace.pv[active]
        rms = float(np.sqrt(np.mean(err**2)))
        within = float(
            100.0 * np.mean(np.abs(err) <= cfg.fleet.epsilon + _EPS_SLACK)
        )
    else:
        rms = None
        within = None

    return MetricsReport(
        empty=empty,
        comfort_violation_steps=violation_steps,
        comfort_max_depth=max_depth,
        tracking_rms=rms,
        tracking_within_eps_pct=within,
        peak_sum_p=0.0 if empty else float(trace.sum_p.max()),
        infeasible_steps=int(np.count_nonzero(trace.infeasible)),
    )


# ---------------------------------------------------------------------------
# trace serialization

def trace_header(n_buildings: int) -> str:
    cols = ["t_hours", "pv_kw", "sum_p_kw", "band_lo_kw", "band_hi_kw", "infeasible"]
    for i in range(1, n_buildings + 1):
        cols += [f"T1_{i}", f"T2_{i}", f"T3_{i}", f"u_{i}_kw", f"p_{i}_kw", f"clamped_{i}"]
    return ",".join(cols)


def write_trace(trace: SimulationTrace, path: str | Path) -> None:
    """Serialize a trace; floats at 6 significant digits, flags as 0/1, LF."""
    n = trace.n_buildings
    # one float table in file order; column j of building i is 6 + 6i + j
    table = np.empty((trace.n_steps, 6 * (n + 1)))
    for j, col in enumerate((trace.t, trace.pv, trace.sum_p, trace.band_lo, trace.band_hi,
                             trace.infeasible)):
        table[:, j] = col
    for j, col in enumerate((trace.t1, trace.t2, trace.t3, trace.u, trace.p, trace.clamped)):
        table[:, 6 + j::6] = col
    fmt = (["%.6g"] * 5 + ["%d"]) * (n + 1)
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=trace_header(n), comments="")


def _trace_header_error(fields: list[str]) -> str | None:
    if fields == [""]:
        return "empty file, not a trace"
    if fields[:6] != trace_header(0).split(","):
        return "unrecognized trace header"
    if len(fields) % 6:
        return "trace header has a partial building group"
    return None


def read_trace(path: str | Path) -> SimulationTrace:
    """Load a trace CSV back into arrays (used by the metrics subcommand)."""
    data, _ = read_csv_table(path, "trace", _trace_header_error)
    n = data.shape[1] // 6 - 1
    # file order: the six fleet columns, then six per building
    t, pv, sum_p, band_lo, band_hi, infeasible = data[:, :6].T
    t1, t2, t3, u, p, clamped = np.moveaxis(data[:, 6:].reshape(len(data), n, 6), -1, 0)
    return SimulationTrace(n, t, pv, sum_p, band_lo, band_hi, infeasible != 0,
                           t1, t2, t3, u, p, clamped != 0)
