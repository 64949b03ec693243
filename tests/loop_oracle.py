"""A plain per-period control loop, for checking pvflock.simulate.run_simulation.

run_simulation_reference marches the fleet one control period at a time,
each period's estimate, iP law, clamp, plant step and checks written out as
separate array expressions in the order the model is stated, every error
raised in the period that caused it.  It shares with run_simulation only the
run constants (time grid, PV column, bounds, disturbance forcing, transition
map, estimator kernel and initial states).  The run folds the estimate and
the law into one table and sums in another order, so the two agree to
rounding, not bit for bit; the clamp flags and the errors agree exactly.
"""

from __future__ import annotations

import numpy as np

from pvflock import ConfigurationError, PlantDivergenceError, SimulationTrace
from pvflock.control import estimator_kernel
from pvflock.coordinator import building_bounds
from pvflock.plant import SANITY_RANGE, transition_map
from pvflock.scenario import load_profile_csv, synth_disturbances, synth_pv
from pvflock.simulate import build_fleet


def run_simulation_reference(cfg) -> SimulationTrace:
    """The trace of cfg's run, or its first error, one period at a time."""
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
    tm = transition_map(cfg.building, dt)
    cw = synth_disturbances(t, cfg.disturbance) @ tm.c.T
    t1, t2, t3, u, p = (np.zeros((steps, n)) for _ in range(5))
    clamped = np.zeros((steps, n), dtype=bool)
    states = build_fleet(cfg)
    y0 = states[0]
    lo_ok, hi_ok = SANITY_RANGE
    with np.errstate(over="ignore", invalid="ignore"):
        ky, ku = estimator_kernel(t, c, alpha, dt)
        for k in range(steps):
            if cfg.ramp_hours > 0 and t[k] < cfg.ramp_hours:
                y_ref_dot = (cfg.setpoint - y0) / cfg.ramp_hours
                y_ref = y0 + y_ref_dot * t[k]
            else:
                y_ref, y_ref_dot = cfg.setpoint, 0.0
            f_hat = 0.0
            if k >= c:
                # the annihilator kernel over rows k-c .. k-1, end points first
                terms = ky[k - c][:, None] * t1[k - c:k] + ku[k - c][:, None] * u[k - c:k]
                acc = terms[0] + terms[-1]
                for term in terms[1:-1]:
                    acc += term
                tau = (c - 1) * dt
                f_hat = -(6.0 / tau**3) * (acc * dt / 3.0)
            u_raw = -(f_hat - y_ref_dot + kp * (states[0] - y_ref)) / alpha
            if not np.isfinite(u_raw).all():
                raise ConfigurationError(
                    "computed iP control is not finite: controller.kp or controller.alpha overflows it"
                )
            p_want = -u_raw
            p[k] = np.minimum(np.maximum(p_want, lo[k]), hi[k])
            u[k] = -p[k]
            clamped[k] = p[k] != p_want
            t1[k], t2[k], t3[k] = states
            forcing = tm.b[:, None] * u[k][None, :] + cw[k][:, None]
            states = states + tm.s @ (tm.a @ states + forcing)
            if not (lo_ok <= states.min() and states.max() <= hi_ok):
                i = int(np.argmax(~np.all((states >= lo_ok) & (states <= hi_ok), axis=0)))
                x1, x2, x3 = states[:, i]
                raise PlantDivergenceError(
                    f"building {i} left the sane range at t = {t[k] + dt:.4f} h "
                    f"(T = {x1:.2f}, {x2:.2f}, {x3:.2f})"
                )
    sum_p = np.cumsum(p, axis=1)[:, -1]  # each row added left to right
    return SimulationTrace(n, t, pv, sum_p, band_lo, band_hi, infeasible, t1, t2, t3, u, p, clamped)
