"""Model-free control core: ultra-local model, iP law and the F estimator.

Each building's room temperature y is treated as the scalar ultra-local model

    dy/dt = F + alpha * u

where F lumps everything unmodeled (envelope physics, weather, internal
gains) and alpha is a practitioner-chosen input gain.  The loop closes with
an intelligent proportional (iP) law,

    u = -(F_hat - dy_ref/dt + kp * e) / alpha,        e = y - y_ref,

which cancels the estimated F_hat and leaves first-order error dynamics
de/dt + kp * e = 0, stable for any kp > 0.

F_hat is refreshed every control period by the algebraic (annihilator-kernel)
estimator over the last c samples,

    F_hat = -(6/tau^3) * int_0^tau [(tau - 2s) * y(s) + alpha * s * (tau - s) * u(s)] ds

with s measured from the start of the window of span tau = (c - 1) dt.  The
kernel annihilates any constant offset in y, so for affine y and constant u
the estimate is exact.  The integral is evaluated with composite Simpson
weights on the uniform sample grid, which is why windows hold an odd number
of samples.  Until c samples exist the simulation uses F_hat = 0.

The kernel's coefficients depend only on the sample times, alpha and dt,
so estimator_kernel computes them once per run, for every window of the
time grid, with the Simpson weights folded in.  A control period then only
multiplies its window's samples by one row of those tables and sums them
(estimate_f).

The iP law and the reference work on one building (floats) or on a whole
fleet at once (arrays with one entry per building); the estimator takes
(c, n) blocks with one column per building, (c, 1) for one.  Times are in hours,
temperatures in degC, controls in kW with the thermal sign convention
(u <= 0 extracts heat).  The estimator reads the control that was actually
applied after any clamping, so saturation cannot wind up the estimate.

These functions trust the settings they are given: alpha, kp and the
window size were checked once, when the ScenarioConfig holding them was
built.  They check no computed value either.  A finite setting can still
overflow the control (kp = 1e308 or alpha = 1e-308); run_simulation keeps
each block of periods' raw controls and checks them with the block's plant
states.
"""

from __future__ import annotations

import numpy as np


def reference(t: float, y0, setpoint: float, ramp_hours: float):
    """Reference value and slope at time t, for first measurements y0 taken at t = 0.

    The reference is the constant setpoint; if ramp_hours > 0 it instead
    ramps linearly from y0 to the setpoint over that horizon (useful to
    soften cold starts), after which it is constant.
    """
    if ramp_hours > 0 and t < ramp_hours:
        slope = (setpoint - y0) / ramp_hours
        return y0 + slope * t, slope
    return setpoint, 0.0


def ip_control(f_hat, y_ref_dot, e, alpha, kp, out=None):
    """Intelligent proportional law: u = -(f_hat - y_ref_dot + kp*e) / alpha.

    Returns the control, or writes it into out when given.
    """
    return np.divide(-(f_hat - y_ref_dot + kp * e), alpha, out=out)


def estimator_kernel(t: np.ndarray, c: int, alpha: float, dt: float):
    """Kernel coefficients of every window of c consecutive samples of the time grid t.

    Returns (ky, ku), each shaped (len(t) - c + 1, c): row j belongs to the
    window of samples j .. j + c - 1 and holds the coefficients of y and u,
    (tau - 2s) and alpha*s*(tau - s), each times its composite Simpson
    weight.  c must be odd and at least 3.
    """
    if len(t) < c:  # no window fits: allocate nothing, however large c is
        return np.empty((0, c)), np.empty((0, c))
    i = np.arange(c)
    times = t[np.arange(len(t) - c + 1)[:, None] + i]
    # s from the sample times, as the integral is written; the Simpson
    # weights are powers of two, so folding them in rounds nothing
    sigma = times - times[:, :1]
    tau = (c - 1) * dt
    simpson = np.where(i % 2, 4.0, 2.0)
    simpson[[0, -1]] = 1.0
    return (tau - 2.0 * sigma) * simpson, alpha * sigma * (tau - sigma) * simpson


def estimate_f(ky: np.ndarray, ku: np.ndarray, y: np.ndarray, u: np.ndarray, dt: float):
    """Annihilator-kernel estimate of F over one window, one entry per building.

    ky and ku are the window's row of the estimator_kernel tables; y and u
    are (c, n) blocks of its outputs and applied controls, one row per
    sample.  Exact (up to rounding) whenever y is affine in time and u
    constant across the window.
    """
    tau = (len(ky) - 1) * dt
    terms = ky[:, None] * y + ku[:, None] * u
    # summed row after row, end points first, as the composite Simpson sum
    # is written: np.add.reduce sums a (c, 1) block pairwise once c > 8, and
    # np.add.accumulate is several times slower on wide fleets
    acc = terms[0] + terms[-1]
    for i in range(1, len(terms) - 1):
        acc += terms[i]
    acc *= dt
    acc /= 3.0
    acc *= -(6.0 / tau**3)
    return acc
