"""Fleet simulation driver, trace serialization and scenario metrics.

A run first computes everything that depends only on the time grid and the
settings: the times, the PV output, the aggregate band with the
per-building bounds, the (steps, 3) disturbance forcing C w, the plant's
transition map and the iP law's tables (control.control_tables).  The
fleet's history lives in one (steps + c + 1, 4, N) array z: entry c + k
holds the rows T1, T2, T3 and u of period k, and the first c entries are
zeros, so period k's window z[k .. k + c] always exists.  A control period
then writes three statements into the history:

    raw    one product of the period's row of coefficients with the window's
           T1 and u rows, plus its bias: the estimate and the iP law at once
    clamp  np.maximum with -hi, then np.minimum with -lo, of the raw controls,
           into u's row
    plant  the increment x + S ([A | B] (x, u) + C w), in two products,
           into the next entry's T1, T2 and T3 rows

The trace's t1, t2, t3 and u are views of z; p = -u and the clamp flags
(u != raw) follow after the loop.  The run's two guards, that every raw iP
control is finite and that every state stays in the sane range, run once
per block of _CHECK_BLOCK periods (_check_block), over the block's raw
controls and the states its plant steps reached.  The run stops with the
error of the first failing period, a period's control before its plant
step, as a check after every period would.
Initial air temperatures are drawn uniformly from the configured range with
a seeded generator; interior mass starts at the air temperature and the wall
core one degree above, so a hot start really is a hot building.

The trace CSV layout (one row per control period, LF line endings; each cell
holds the bytes of "%.6g" % cell, "%d" for a flag, made in numpy, or by "%.6g"
itself when within 1e-6 of a rounding tie, in exponent form or not finite):

    t_hours,pv_kw,sum_p_kw,band_lo_kw,band_hi_kw,infeasible,
    then per building i (1-based): T1_i,T2_i,T3_i,u_i_kw,p_i_kw,clamped_i

A (config, seed) pair fully determines every byte of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import control_tables
from .coordinator import building_bounds
from .errors import ConfigurationError
from .plant import check_sane, transition_map
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


#: periods whose controls and plant steps are checked together: one finiteness
#: test and one min and max per block, not per period
_CHECK_BLOCK = 64


def run_simulation(cfg: ScenarioConfig) -> SimulationTrace:
    """Run the configured scenario.

    Raises ConfigurationError when a computed iP control is not finite, and
    PlantDivergenceError naming the first building whose state leaves the
    sane temperature range; the error raised is the first in period order.
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
    # a finite setting can overflow the iP law (kp = 1e308); _check_block
    # tests every control and state, so numpy's warnings would only repeat
    # its one error
    with np.errstate(over="ignore", invalid="ignore"):
        rows, bias = control_tables(t, z[c, 0], c, cfg.alpha, cfg.kp, cfg.setpoint,
                                    cfg.ramp_hours, dt)
        for k0 in range(0, steps, _CHECK_BLOCK):
            k1 = min(k0 + _CHECK_BLOCK, steps)
            for k in range(k0, k1):
                x, x_next, r = z[k + c], z[k + c + 1, :3], raw[k]
                np.einsum("ij,ijn->n", rows[k], z[k:k + c + 1, ::3], out=r)
                r += bias[k]
                # [k, ...] is a 0-d array, which numpy combines faster than a float
                np.maximum(r, u_lo[k, ...], out=x[3])
                np.minimum(x[3], u_hi[k, ...], out=x[3])
                np.einsum("ij,jn->in", ab, x, out=f)
                f += cw[k]
                np.einsum("ij,jn->in", s, f, out=x_next)
                x_next += x[:3]
            _check_block(raw[k0:k1], z[k0 + c + 1:k1 + c + 1, :3], t[k0:k1] + dt)
    t1, t2, t3, u = z[c:steps + c].transpose(1, 0, 2)
    clamped = u != raw
    p = np.negative(u, out=raw)  # the raw controls are spent: their array takes p
    return SimulationTrace(n, t, pv, sum_rows(p), band_lo, band_hi, infeasible,
                           t1, t2, t3, u, p, clamped)


def _check_block(u_raw: np.ndarray, states: np.ndarray, t_next: np.ndarray) -> None:
    """Check a block of periods: their raw controls, and the states their plant
    steps reached at the times t_next.

    Raises the first failing period's error.  A period's control is checked
    before its plant step, so the states are checked up to the first period
    whose control is not finite, and that period's ConfigurationError is
    raised only if none of them left the sane range.
    """
    finite = np.isfinite(u_raw).all(axis=1)
    k = len(finite) if finite.all() else int(np.argmin(finite))
    if k:
        check_sane(states[:k], t_next[:k])
    if k < len(finite):
        raise ConfigurationError(
            "computed iP control is not finite: controller.kp or controller.alpha overflows it"
        )


def sum_rows(p: np.ndarray) -> np.ndarray:
    """Row sums of a (steps, n) array, each added left to right, building by building.

    numpy's pairwise sum can differ in the last bit, which %.6g occasionally
    shows.  The sums are taken a column at a time, so no (steps, n)
    temporary is built.
    """
    out = p[:, 0].copy()
    for col in p.T[1:]:
        out += col
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


#: cells per formatted block: _format_cells then peaks at about 2.1 MB of temporaries,
#: one core's 2 MB of L2 on the 2-core x86 machine where the 130-building 72 h trace
#: wrote in 64 / 56 / 54 / 70 / 78 ms at 2^12 / 2^13 / 2^14 / 2^15 / 2^16 cells and the
#: four-week 13-building one in 60 / 56 / 56 / 71 / 80 ms (medians of 30 alternated
#: writes).  Smaller blocks pay the fixed cost of its numpy calls more often; at this
#: size glibc may trim the heap after a block and refault it in the next.
_FORMAT_BLOCK = 1 << 14
#: a cell's field of five 4-byte words ("-ddd", "ddd.", "dddd", "dddd", "d," and two
#: spare bytes): per word, its table and the place and count of its digits
_WORDS = [(np.frombuffer("".join(f"{a}{i:0{w}d}{b}" for i in range(10**w)).encode(), np.uint32), p, w)
          for a, b, p, w in (("-", "", 12, 3), ("", ".", 9, 3), ("", "", 5, 4), ("", "", 1, 4),
                             ("", ",\0\0", 0, 1))]
_TRAILING_ZEROS = np.array([3 - len(f"{i:03d}".rstrip("0")) for i in range(1000)])
_POW10 = 10 ** np.arange(10)


def _keep_table() -> np.ndarray:
    """Field bytes %.6g keeps, by (e + 4) * 14 + trailing zeros * 2 + sign; last: the separator."""
    e, zeros, neg = np.mgrid[-4:6, :7, :2].reshape(3, -1, 1)
    decimals, cols = np.maximum(5 - e - zeros, 0), np.arange(20)
    keep = (cols >= 6 - np.maximum(e, 0)) & (cols <= 6 + decimals + (decimals > 0))
    keep |= (cols == 0) & (neg == 1) | (cols == 17)
    return np.vstack([keep, cols == 17]).view("V20").ravel()


_KEEP = _keep_table()


def _format_cells(x: np.ndarray, ncols: int) -> np.ndarray:
    """The bytes of "%.6g" % v for each v of x, ncols to a comma-separated row.

    The six digits of an |x| in [1e-4, 1e6) are rint(y), y = |x| 10^(5 - e) for
    its decimal exponent e: one rounding, under 1.2e-10, so they are exact unless
    y is within 1e-6 of a tie.  Such a cell, one whose e log10 got wrong (y leaves
    [1e5, 1e6)), exponent form and non-finite values are formatted by "%.6g" itself.
    """
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):
        e = np.clip(np.floor(np.log10(ax, out=np.zeros_like(ax), where=ax > 0)), -4, 5).astype(int)
        y = ax * _POW10[5 - e]
        q = np.rint(y)
        fast = (y >= 1e5) & (y < 999999.5 - 1e-6) & (np.abs(y - q) < 0.5 - 1e-6) | (ax == 0)
    q = np.where(fast, q, 0).astype(np.int64)
    high = q // 1000
    zeros = _TRAILING_ZEROS[q - high * 1000]
    zeros += (zeros == 3) * _TRAILING_ZEROS[high]
    keep = _KEEP[np.where(fast, (e + 4) * 14 + zeros * 2 + np.signbit(x), -1)].view(bool).reshape(-1, 20)
    d = q * _POW10[e + 4]  # the digits as a 15-digit integer, six before the point
    words = np.empty((len(x), 5), np.uint32)
    above = 0  # word j's d // 10**(place + width) is word j - 1's d // 10**place; d < 10**15
    for col, (table, place, width) in enumerate(_WORDS):
        rest = d // 10**place if place else d
        words[:, col] = table[rest - above * 10**width]
        above = rest
    field = words.view(np.uint8)
    field[ncols - 1::ncols, 17] = ord("\n")
    slow = np.flatnonzero(~fast)
    text = np.array(["%.6g" % v for v in x[slow].tolist()], "S13").view(np.uint8).reshape(-1, 13)
    field[slow, :13], keep[slow, :13] = text, text != 0
    return field[keep]


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
