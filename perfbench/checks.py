"""Output checks, computed apart from the program.

Each check rebuilds what the program should have produced from the
scenario the benchmark wrote and the paper's formulas: the PV band, the
RC plant's exact zero-order-hold solution, the iP law with the
annihilator-kernel estimate, the scenario metrics and the trace format.
The program's outputs are only read, never reused as a reference.
Every function returns a list of failure messages; empty means passed.
"""

from __future__ import annotations

import numpy as np

from inputs import DT, Scenario, disturbances, pv_at, solar_shape

#: largest relative error of a value written with %.6g
G6 = 5e-6
#: a trace's float columns: one value per step, and one per step and building
STEP_COLUMNS = ("t", "pv", "sum_p", "band_lo", "band_hi")
GRID_COLUMNS = ("t1", "t2", "t3", "u", "p")


def _fail(bad: np.ndarray, what: str) -> list[str]:
    n = int(np.count_nonzero(bad))
    return [f"{what}: {n} of {bad.size}"] if n else []


def building_bounds(sc: Scenario, pv: np.ndarray):
    """Even split of the band [max(0, pv - eps), pv + eps] against [0, hvac_max]."""
    n, eps, top = sc.n_buildings, sc.epsilon, sc.hvac_max
    active = pv > 0
    raw_lo, raw_hi = (pv - eps) / n, (pv + eps) / n
    lo = np.where(active, np.maximum(0.0, raw_lo), 0.0)
    hi = np.where(active, np.minimum(raw_hi, top), top)
    infeasible = active & (lo > hi)
    pin = np.where(raw_lo > top, top, 0.0)
    return np.where(infeasible, pin, lo), np.where(infeasible, pin, hi), infeasible


def check_shape(sc: Scenario, tr) -> list[str]:
    if tr.n_buildings != sc.n_buildings or tr.t1.shape != (sc.n_steps, sc.n_buildings):
        return [f"trace shape {tr.t1.shape}, expected {(sc.n_steps, sc.n_buildings)}"]
    out = _fail(np.abs(tr.t - np.arange(sc.n_steps) * DT) > 1e-9, "step times off the grid")
    expected_pv = pv_at(sc, tr.t)
    out += _fail(np.abs(tr.pv - expected_pv) > 1e-9 * (1.0 + expected_pv), "pv differs from the input")
    return out


def check_band(sc: Scenario, tr) -> list[str]:
    """sum_p inside [max(0, pv - eps), pv + eps] on PV-active feasible steps; p_i in [0, hvac_max]."""
    pv, eps = tr.pv, sc.epsilon
    active = pv > 0
    lo, hi = np.maximum(0.0, pv - eps), pv + eps
    _, _, infeasible = building_bounds(sc, pv)
    tol = 1e-9 * (1.0 + pv)
    out = _fail(active & ((np.abs(tr.band_lo - lo) > tol) | (np.abs(tr.band_hi - hi) > tol)),
                "band columns differ from [max(0, pv - eps), pv + eps]")
    out += _fail(~active & ((tr.band_lo != 0) | (tr.band_hi != 0)), "band not inert while pv = 0")
    out += _fail(tr.infeasible != infeasible, "infeasible flag differs from the even split")
    out += _fail(active & ~infeasible & ((tr.sum_p < lo - tol) | (tr.sum_p > hi + tol)),
                 "sum_p outside the band on a feasible step")
    out += _fail((tr.p < 0) | (tr.p > sc.hvac_max), "p_i outside [0, hvac_max]")
    out += _fail(np.abs(tr.sum_p - tr.p.sum(axis=1)) > 1e-9 * (1.0 + tr.sum_p), "sum_p != sum of p_i")
    out += _fail(tr.p != -tr.u, "p_i != -u_i")
    return out


def check_plant(sc: Scenario, tr) -> list[str]:
    """Re-integrate every building-step with the exact ZOH solution of the RC model.

    The program integrates with classical RK4.  For a linear plant with
    inputs held over the period, RK4 maps the deviation from the period's
    equilibrium x_eq = -A^-1 f through R(hA)^m, R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24, where the exact solution applies exp(A dt).  So the
    recorded next state may differ from the exact one by at most
    ||R(hA)^m - exp(A dt)|| * ||x - x_eq|| plus rounding.
    """
    from scipy.linalg import expm

    b = sc.building
    k12 = b["k1"] + b["k2"]
    # dT/dt in degC/h, written from the ODEs: air, interior mass, wall core
    a = 3600.0 * np.array([
        [-(k12 + b["k5"]) / b["c1"], k12 / b["c1"], b["k5"] / b["c1"]],
        [k12 / b["c2"], -k12 / b["c2"], 0.0],
        [b["k5"] / b["c3"], 0.0, -(b["k5"] + b["k4"]) / b["c3"]],
    ])
    d1, d2, d3 = (d[:-1, None] for d in disturbances(tr.t, sc.disturbance))
    u = tr.u[:-1]
    f = 3600.0 * np.stack(np.broadcast_arrays(
        (u + d2 + d3) / b["c1"], d2 / b["c2"], b["k4"] * d1 / b["c3"]))
    aug = np.zeros((6, 6))
    aug[:3, :3], aug[:3, 3:] = a, np.eye(3)
    e = expm(aug * DT)
    phi, gamma = e[:3, :3], e[:3, 3:]
    x = np.stack([tr.t1, tr.t2, tr.t3])
    exact = np.einsum("ij,jkn->ikn", phi, x[:, :-1]) + np.einsum("ij,jkn->ikn", gamma, f)

    z = (DT / sc.substeps) * a
    r = np.eye(3) + z + z @ z / 2 + z @ z @ z / 6 + z @ z @ z @ z / 24
    gap = np.linalg.norm(np.linalg.matrix_power(r, sc.substeps) - phi, 2)
    x_eq = -np.linalg.solve(a, f.reshape(3, -1)).reshape(f.shape)
    bound = gap * np.linalg.norm(x[:, :-1] - x_eq, axis=0) + 1e-9
    return _fail(np.linalg.norm(exact - x[:, 1:], axis=0) > bound,
                 "next state beyond RK4 truncation error of the exact ZOH solution")


def check_control(sc: Scenario, tr) -> list[str]:
    """Recompute every raw control from the recorded T1 and applied-u history.

    Until the window holds `window` samples F_hat is 0; after, F_hat is the
    annihilator-kernel estimate over the last `window` samples,
        -(6/tau^3) * int_0^tau [(tau - 2s) y(s) + alpha s (tau - s) u(s)] ds,
    with composite Simpson weights.  The iP law gives u = -(F_hat + kp e) / alpha.
    An unclamped step must carry that u; a clamped one must sit on the
    bound the raw draw crossed.
    """
    c, steps = sc.window, sc.n_steps
    y, t = tr.t1, tr.t
    f_hat = np.zeros_like(y)
    if steps > c:
        simpson = np.ones(c)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        simpson *= DT / 3.0
        tau = (c - 1) * DT
        rows = np.arange(c, steps)[:, None] - c + np.arange(c)
        s = (t[rows] - t[rows[:, :1]])[:, :, None]
        integrand = (tau - 2.0 * s) * y[rows] + sc.alpha * s * (tau - s) * tr.u[rows]
        f_hat[c:] = -(6.0 / tau**3) * np.einsum("m,kmn->kn", simpson, integrand)
    p_want = (f_hat + sc.kp * (y - sc.setpoint)) / sc.alpha  # the draw, -u
    lo, hi, _ = building_bounds(sc, tr.pv)
    lo, hi = lo[:, None], hi[:, None]
    tol = 1e-9 * (1.0 + np.abs(p_want))
    free = ~tr.clamped
    out = _fail(free & (np.abs(tr.p - p_want) > tol), "unclamped u differs from the iP law")
    on_bound = (np.abs(tr.p - lo) <= tol) | (np.abs(tr.p - hi) <= tol)
    crossed = (p_want <= lo + tol) | (p_want >= hi - tol)
    out += _fail(tr.clamped & ~(on_bound & crossed), "clamped u not on the crossed bound")
    if not free[c:].any():
        out.append("no unclamped building-step after the window fills")
    return out


def metric_ranges(sc: Scenario, t, t1, pv, sum_p, infeasible, rel: float) -> dict:
    """The range each printed metric may take on data known to relative precision rel."""
    settled = t >= sc.transient_h
    low, high = sc.comfort
    over = np.maximum(low - t1[settled], t1[settled] - high)  # > 0 is a violation
    fuzz_t = rel * np.abs(t1[settled]) + 1e-12
    depth = np.maximum(over, 0.0)
    ranges = {
        "empty": "false",
        "comfort_violation_steps": (np.count_nonzero(over > fuzz_t), np.count_nonzero(over > -fuzz_t)),
        "comfort_max_depth_c": _around(depth.max() if depth.size else 0.0, fuzz_t.max(initial=0.0)),
        "peak_sum_p_kw": _around(sum_p.max(), rel * np.abs(sum_p).max()),
        "infeasible_steps": (np.count_nonzero(infeasible),) * 2,
    }
    active = pv > 0
    if not active.any():
        ranges["tracking_rms_kw"] = ranges["tracking_within_eps_pct"] = "n/a"
        return ranges
    err = sum_p[active] - pv[active]
    fuzz_e = rel * (np.abs(sum_p[active]) + np.abs(pv[active]))
    ranges["tracking_rms_kw"] = _around(np.sqrt(np.mean(err**2)), fuzz_e.max())
    # A step clamped onto the band edge has |err| = eps up to the rounding of
    # a sum of n draws (~1e-11 kW), and counts as within.
    edge = sc.epsilon + 1e-9
    within = [100.0 * np.mean(np.abs(err) <= edge + s * fuzz_e) for s in (-1, 1)]
    ranges["tracking_within_eps_pct"] = tuple(within)
    return ranges


def _around(x: float, fuzz: float) -> tuple[float, float]:
    return (x - fuzz, x + fuzz)


def check_metrics(printed: str, ranges: dict, what: str) -> list[str]:
    """Compare `key=value` lines with the ranges; floats carry %.6g rounding."""
    got = dict(line.split("=", 1) for line in printed.splitlines() if "=" in line)
    out = []
    for key, want in ranges.items():
        value = got.get(key)
        if value is None:
            out.append(f"{what}: {key} missing")
        elif isinstance(want, str):
            if value != want:
                out.append(f"{what}: {key}={value}, expected {want}")
        elif value == "n/a" or not (
            want[0] - G6 * abs(want[0]) <= float(value) <= want[1] + G6 * abs(want[1])
        ):
            out.append(f"{what}: {key}={value}, expected within {want}")
    return out


def header(n: int) -> bytes:
    cols = ["t_hours", "pv_kw", "sum_p_kw", "band_lo_kw", "band_hi_kw", "infeasible"]
    for i in range(1, n + 1):
        cols += [f"T1_{i}", f"T2_{i}", f"T3_{i}", f"u_{i}_kw", f"p_{i}_kw", f"clamped_{i}"]
    return ",".join(cols).encode()


def check_file(sc: Scenario, raw: bytes, back, tr) -> list[str]:
    """The written trace: LF lines, the header, one row per step, values at %.6g of the run's."""
    lines = raw.split(b"\n")
    out = []
    if b"\r" in raw or lines[-1] != b"":
        out.append("trace file is not LF-terminated lines")
    if lines[0] != header(sc.n_buildings):
        out.append("trace header differs")
    if len(lines) != sc.n_steps + 2:
        out.append(f"trace has {len(lines) - 2} rows, expected {sc.n_steps}")
    if back.t1.shape != tr.t1.shape:
        return out + [f"read trace shape {back.t1.shape} != {tr.t1.shape}"]
    for name in STEP_COLUMNS + GRID_COLUMNS:
        mine, theirs = getattr(tr, name), getattr(back, name)
        out += _fail(np.abs(theirs - mine) > G6 * np.abs(mine) * (1 + 1e-9), f"read {name} beyond %.6g")
    for name in ("infeasible", "clamped"):
        out += _fail(getattr(back, name) != getattr(tr, name), f"read {name} flags differ")
    return out


def check_run(sc: Scenario, tr, printed: str) -> list[str]:
    """Every check on one simulated run and the metrics `pvflock run` printed for it."""
    out = check_shape(sc, tr)
    if out:
        return out
    out += check_band(sc, tr) + check_plant(sc, tr) + check_control(sc, tr)
    ranges = metric_ranges(sc, tr.t, tr.t1, tr.pv, tr.sum_p, tr.infeasible, rel=0.0)
    return out + check_metrics(printed, ranges, "run metrics")


def check_generated_pv(profile, horizon_h: float, peak: float) -> list[str]:
    """A loaded `gen-profile pv` file: the 10-minute grid and the synthetic bell at %.6g."""
    k = np.arange(round(horizon_h / DT) + 1)
    if len(profile.t) != len(k):
        return [f"generated profile has {len(profile.t)} rows, expected {len(k)}"]
    want = peak * solar_shape(k * DT)
    out = _fail(np.abs(profile.t - k * DT) > G6 * k * DT, "generated profile times")
    return out + _fail(np.abs(profile.values - want) > G6 * want + 1e-12, "generated profile values")
