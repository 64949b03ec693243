"""Fleet simulation driver, trace serialization and scenario metrics.

A run first computes everything that depends only on the time grid and the
settings: the times, the PV output, the aggregate band with the
per-building bounds, the (steps, 3) disturbance forcing C w, the plant's
transition map and the iP law's tables (control.control_tables).  The
fleet's history lives in one (steps + c + 1, 4, N) array z: entry c + k
holds the rows T1, T2, T3 and u of period k, and the first c entries are
zeros, so period k's window z[k .. k + c] always exists.  A control period
then writes three statements into the history:

    raw    the law's row, before or after the window fills, times the window's
           T1 and u rows, plus the bias: the estimate and the iP law at once
    clamp  np.maximum with -hi, then np.minimum with -lo, of the raw controls,
           into u's row
    plant  the increment x + S ([A | B] (x, u) + C w), in two products,
           into the next entry's T1, T2 and T3 rows

The trace's t1, t2, t3 and u are views of z; p = -u and the clamp flags
(u != raw) follow after the loop.  The run has one guard before the loop
and one after.  A window holds only zeros, the initial state, reached
states and clamped controls, so while every state is sane the law's tables
bound every raw control; a finite setting whose bound leaves float range
(kp = 1e308, alpha = 1e-308) fails before the first period.  After the
loop, check_sane tests every reached state at once and names the first
period that left the sane range: no raw control can fail before it does.
Initial air temperatures are drawn uniformly from the configured range with
a seeded generator; interior mass starts at the air temperature and the wall
core one degree above, so a hot start really is a hot building.

The trace CSV layout (one row per control period, LF line endings; each cell
holds the bytes of "%.6g" % cell, "%d" for a flag).  numpy makes a cell of
six digits 1000 hi + lo from two tables: the "%.6g" texts of 1000 hi and of
100000 + lo with a leading "0", ORed, and one bytes.translate per block drops
their NUL padding; "%.6g" itself writes a cell within 1e-6 of a rounding tie,
in exponent form or not finite:

    t_hours,pv_kw,sum_p_kw,band_lo_kw,band_hi_kw,infeasible,
    then per building i (1-based): T1_i,T2_i,T3_i,u_i_kw,p_i_kw,clamped_i

A (config, seed) pair fully determines every byte of the trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import control_tables
from .coordinator import building_bounds
from .errors import ConfigurationError
from .plant import SANITY_RANGE, check_sane, transition_map
from .scenario import ScenarioConfig, load_profile_csv, read_csv_table, synth_disturbances, synth_pv


@dataclass
class SimulationTrace:
    """Column-oriented record of a run; arrays are (steps,) or (steps, n).

    Temperatures in row k are the measurements at t[k] (before actuation);
    u and p are the controls applied over [t[k], t[k] + dt).  In a trace
    run_simulation returns, t1, t2, t3 and u are strided views of the run's
    one history array, not arrays of their own.
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

    Raises ConfigurationError before the first period when the iP law's
    tables do not bound every raw control of sane states within float range,
    and PlantDivergenceError after the last period, naming the first building
    whose state left the sane temperature range.
    """
    n, steps, dt = cfg.fleet.n_buildings, cfg.n_steps, cfg.fleet.sample_dt
    c = min(cfg.window_capacity, steps)  # a window longer than the run never fills
    t = np.arange(steps) * dt
    if cfg.pv.kind == "csv":
        pv = load_profile_csv(cfg.pv.csv_path, non_negative=True).value_at(t)
    elif cfg.pv.kind == "synthetic":
        pv = synth_pv(t, cfg.pv.peak)
    else:
        pv = np.zeros(steps)
    band_lo, band_hi, lo, hi, infeasible = building_bounds(pv, cfg.fleet)
    u_lo, u_hi = -hi, -lo
    tm = transition_map(cfg.building, dt)
    ab, s = np.column_stack([tm.a, tm.b]), tm.s
    cw = (synth_disturbances(t, cfg.disturbance) @ tm.c.T)[:, :, None]
    z = np.zeros((steps + c + 1, 4, n))
    z[c, :3] = build_fleet(cfg)
    raw, f = np.empty((steps, n)), np.empty((3, n))
    # a finite setting can overflow the law's tables (kp = 1e308) and a diverging
    # plant its states; the guards raise one error for each, which numpy's warnings
    # would only repeat
    with np.errstate(over="ignore", invalid="ignore"):
        rows, bias = control_tables(t, z[c, 0], c, cfg.alpha, cfg.kp, cfg.setpoint,
                                    cfg.ramp_hours, dt)
        # |T1| <= 60 while the states are sane and |u| <= hvac_max once clamped
        bound = np.abs(rows).max(axis=0).sum(axis=0) @ [np.abs(SANITY_RANGE).max(),
                                                         cfg.fleet.hvac_max]
        if not bound + np.abs(bias).max(initial=0.0) < np.finfo(float).max / 2:
            raise ConfigurationError(
                "computed iP control is not finite: controller.kp or controller.alpha overflows it"
            )
        for k in range(steps):
            x, x_next, r = z[k + c], z[k + c + 1, :3], raw[k]
            np.einsum("ij,ijn->n", rows[int(k >= c)], z[k:k + c + 1, ::3], out=r)
            r += bias[k]
            # [k, ...] is a 0-d array, which numpy combines faster than a float
            np.maximum(r, u_lo[k, ...], out=x[3])
            np.minimum(x[3], u_hi[k, ...], out=x[3])
            np.einsum("ij,jn->in", ab, x, out=f)
            f += cw[k]
            np.einsum("ij,jn->in", s, f, out=x_next)
            x_next += x[:3]
        check_sane(z[c + 1:, :3], t + dt)
    t1, t2, t3, u = z[c:steps + c].transpose(1, 0, 2)
    clamped = u != raw
    p = np.negative(u, out=raw)  # the raw controls are spent: their array takes p
    return SimulationTrace(n, t, pv, p.sum(axis=1), band_lo, band_hi, infeasible,
                           t1, t2, t3, u, p, clamped)


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


def compute_metrics(trace: SimulationTrace, *, epsilon: float, comfort_low: float,
                    comfort_high: float, transient_hours: float) -> MetricsReport:
    """Summarize comfort and tracking over a trace.

    Comfort counts building-steps with T1 outside [comfort_low, comfort_high]
    after the first transient_hours.  Tracking statistics cover PV-active
    steps only, counting a step within epsilon (kW) of PV, and are reported
    as not-applicable when PV never produced.  The settings are trusted: a
    run takes them from its checked ScenarioConfig, `pvflock metrics` checks
    its flags.
    """
    empty = trace.n_steps == 0
    settled = trace.t >= transient_hours
    t1 = trace.t1[settled]
    below = np.maximum(comfort_low - t1, 0.0)
    above = np.maximum(t1 - comfort_high, 0.0)
    depth = np.maximum(below, above)
    violation_steps = int(np.count_nonzero(depth > 0))
    max_depth = float(depth.max()) if depth.size else 0.0

    active = trace.pv > 0
    if np.any(active):
        err = trace.sum_p[active] - trace.pv[active]
        rms = float(np.sqrt(np.mean(err**2)))
        within = float(100.0 * np.mean(np.abs(err) <= epsilon + _EPS_SLACK))
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


#: cells per formatted block.  On the 2-core x86 machine the 130-building 72 h trace
#: wrote in 26 / 24 / 21 / 21 / 22 ms at 2^12 / 2^13 / 2^14 / 2^15 / 2^16 cells and the
#: four-week 13-building one in 27 / 24 / 21 / 21 / 23 ms (medians of 30 alternated
#: writes), and a write peaks at 0.83 / 1.65 / 3.37 MB at 2^13 / 2^14 / 2^15 cells
#: (tracemalloc): 2^14 is as fast as 2^15 in half the memory.  Smaller blocks pay the
#: fixed cost of _format_cells's numpy calls more often.
_FORMAT_BLOCK = 1 << 14
#: 10^(5 - e) at e + 4, for the decimal exponents e of -4 to 5
_SCALE = 10.0 ** np.arange(9, -1, -1)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit tables (hi_rows, lo_rows), built on the first write: hi_rows by
    1000 (e + 4) + hi and lo_rows by 1000 (e + 4) + lo, as (10000, 2) uint64: from byte 1
    of 16, the "%.6g" texts at exponent e of 1000 hi and of 100000 + lo with its leading
    "1" a "0", then "," at byte 15 of lo_rows.

    "%.6g" drops only a suffix of the fixed-point text, so at one exponent a digit place
    sits at the same byte in both texts, and "0" ORed onto a digit is that digit.  ORed,
    the two are the text of 1000 hi + lo: lo_rows puts back the zeros and the point that the
    text of 1000 hi dropped before a nonzero low digit.
    """
    hi, lo = [], []
    for e in range(-4, 6):
        scale = 10.0 ** (e - 5)
        for g in range(1000):
            hi.append(b"\0%.6g" % (1000 * g * scale))
            text = b"\0%.6g" % ((100000 + g) * scale)
            lo.append(text.replace(b"1", b"0", 1).ljust(15, b"\0") + b",")
    return tuple(np.array(t, "S16").view(np.uint64).reshape(-1, 2) for t in (hi, lo))


def _format_cells(x: np.ndarray, ncols: int) -> np.ndarray:
    """The bytes of "%.6g" % v for each v of x, ncols to a comma-separated row.

    The six digits of an |x| in [1e-4, 1e6) are q = rint(y), y = |x| 10^(5 - e) for
    its decimal exponent e: one rounding, under 1.2e-10, so they are exact unless
    y is within 1e-6 of a tie.  Such a cell, one whose e log10 got wrong (y leaves
    [1e5, 1e6)), exponent form and non-finite values are formatted by "%.6g" itself.
    A cell's 16-byte field is the _digit_tables texts of its high and low three digits
    hi and lo, those of 1000 hi and of 100000 + lo with a leading "0", ORed, with its
    sign and a newline at a row's end, or the "%.6g" text; the block's text is the
    fields' bytes less their NULs.
    """
    # in place where it can: each new temporary of a block is 128 KB, and enough of them
    # lift the heap's top, which glibc then trims after the block and refaults in the next
    ax = np.abs(x)
    w = np.where(ax > 0, ax, 1.0)  # in turn log10 |x| (0 for 0 and nan), y, |y - q|, q // 1000
    with np.errstate(invalid="ignore"):
        np.log10(w, out=w)
        np.floor(w, out=w)
        w += 4
        e = np.clip(w, 0, 9, out=w).astype(np.intp)  # e + 4
        y = np.take(_SCALE, e, out=w)
        y *= ax
        q = np.rint(y)
        fast = y >= 1e5
        fast &= y < 999999.5 - 1e-6
        y -= q
        fast &= np.abs(y, out=y) < 0.5 - 1e-6
        fast |= ax == 0
    slow = np.flatnonzero(~fast)
    q[slow] = 0
    hi = np.trunc(np.divide(q, 1000, out=w), out=w)
    lo = np.subtract(q, np.multiply(hi, 1000, out=ax), out=q)
    e *= 1000
    row = hi.astype(np.intp)
    row += e  # hi_rows's row: 1000 (e + 4) + hi
    e += lo.astype(np.intp)  # lo_rows's row: 1000 (e + 4) + lo
    hi_rows, lo_rows = _digit_tables()
    field = np.take(hi_rows, row, axis=0)
    field |= np.take(lo_rows, e, axis=0)
    cells = field.view(np.uint8)
    cells[:, 0] |= np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    cells[ncols - 1::ncols, 15] = ord("\n")
    text = np.array(["%.6g" % v for v in x[slow].tolist()], "S15")
    cells[slow, :15] = text.view(np.uint8).reshape(-1, 15)
    return np.frombuffer(cells.tobytes().translate(None, b"\0"), np.uint8)


def write_trace(trace: SimulationTrace, path: str | Path) -> None:
    """Serialize a trace; floats at 6 significant digits, flags as 0/1, LF.

    Rows are formatted a block at a time; no (steps, 6(n + 1)) table is built.
    """
    n, ncols = trace.n_buildings, 6 * (trace.n_buildings + 1)
    rows = max(1, _FORMAT_BLOCK // ncols)
    with open(path, "wb") as fh:
        fh.write(trace_header(n).encode() + b"\n")
        for i in range(0, trace.n_steps, rows):
            # the block's rows in file order; building i's column j is 6 + 6i + j
            block = np.empty((min(rows, trace.n_steps - i), ncols))
            for j, col in enumerate((trace.t, trace.pv, trace.sum_p, trace.band_lo, trace.band_hi,
                                     trace.infeasible)):
                block[:, j] = col[i:i + rows]
            for j, col in enumerate((trace.t1, trace.t2, trace.t3, trace.u, trace.p, trace.clamped)):
                block[:, 6 + j::6] = col[i:i + rows]
            # held until the next block is formatted: else malloc trims the heap and refaults it
            text = _format_cells(block.ravel(), ncols)
            fh.write(text)


def _trace_header_error(fields: list[str]) -> str | None:
    if fields == [""]:
        return "empty file, not a trace"
    # the fields must begin a trace header and hold at least its six fleet columns
    if fields != trace_header((len(fields) - 1) // 6).split(",")[:max(len(fields), 6)]:
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
