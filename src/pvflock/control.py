"""Model-free control core: the iP law and the F estimator, as tables over the history.

Each building's room temperature y is treated as the scalar ultra-local model

    dy/dt = F + alpha * u

where F lumps everything unmodeled (envelope physics, weather, internal
gains) and alpha is a practitioner-chosen input gain.  The loop closes with
an intelligent proportional (iP) law,

    u = -(F_hat - dy_ref/dt + kp * e) / alpha,        e = y - y_ref,

which cancels the estimated F_hat and leaves first-order error dynamics
de/dt + kp * e = 0, stable for any kp > 0.  The reference y_ref is the
setpoint; with ramp_hours > 0 it instead ramps linearly from each building's
first measurement y0 to the setpoint over that horizon, then holds.

F_hat is refreshed every control period by the algebraic (annihilator-kernel)
estimator over the last c samples,

    F_hat = -(6/tau^3) * int_0^tau [(tau - 2s) * y(s) + alpha * s * (tau - s) * u(s)] ds

with s measured from the start of the window of span tau = (c - 1) dt.  The
kernel annihilates any constant offset in y, so for affine y and constant u
the estimate is exact.  The integral is evaluated with composite Simpson
weights on the uniform sample grid, which is why windows hold an odd number
of samples.  Until c samples exist F_hat = 0.

The estimate and the law are both linear in the history of y and of the
applied u, and their coefficients depend only on the time grid and the
settings.  So control_tables writes period k's raw control as one row of
coefficients on the c + 1 history entries k - c .. k of (y, u) plus a bias,
for every period, once per run (estimator_kernel gives the window part);
a control period is then one product and a sum.  Times are in hours,
temperatures in degC, controls in kW with the thermal sign convention
(u <= 0 extracts heat).  The window reads the control that was actually
applied after any clamping, so saturation cannot wind up the estimate.

These functions trust the settings they are given: alpha, kp and the
window size were checked once, when the ScenarioConfig holding them was
built.  A finite setting can still overflow a table (kp = 1e308 or
alpha = 1e-308); run_simulation checks every period's raw control.
"""

from __future__ import annotations

import numpy as np


def estimator_kernel(t: np.ndarray, c: int, alpha: float, dt: float):
    """Kernel coefficients of every window of c consecutive samples of the time grid t.

    Returns (ky, ku), each shaped (len(t) - c + 1, c): row j belongs to the
    window of samples j .. j + c - 1 and holds the coefficients of y and u,
    (tau - 2s) and alpha*s*(tau - s), each times its composite Simpson
    weight.  c must be odd and at least 3.
    """
    i = np.arange(c)
    times = t[np.arange(len(t) - c + 1)[:, None] + i]
    # s from the sample times, as the integral is written; the Simpson
    # weights are powers of two, so folding them in rounds nothing
    sigma = times - times[:, :1]
    tau = (c - 1) * dt
    simpson = np.where(i % 2, 4.0, 2.0)
    simpson[[0, -1]] = 1.0
    return (tau - 2.0 * sigma) * simpson, alpha * sigma * (tau - sigma) * simpson


def control_tables(t: np.ndarray, y0: np.ndarray, c: int, alpha: float, kp: float,
                   setpoint: float, ramp_hours: float, dt: float):
    """The iP law of every period of the time grid t as a linear map of the history.

    Returns (rows, bias): period k's raw control is the sum of rows[k] * (y, u)
    over the history entries k - c .. k, the last one being period k's own,
    plus bias[k].  rows is (len(t), c + 1, 2); its window part folds the
    scale (6/tau^3) (dt/3) / alpha into the kernel and is zero until c samples
    exist, and -kp/alpha weighs the current y.  bias is (len(t), 1), or one
    column per first measurement y0 when a ramp runs.
    """
    rows = np.zeros((len(t), c + 1, 2))
    if len(t) > c:  # the window fills in the run
        ky, ku = estimator_kernel(t[:-1], c, alpha, dt)
        rows[c:, :c] = np.stack([ky, ku], axis=-1) * (6.0 / ((c - 1) * dt) ** 3 * dt / 3.0 / alpha)
    rows[:, c, 0] = -kp / alpha
    bias = np.full((len(t), 1), kp * setpoint / alpha)
    ramp = t < ramp_hours
    if ramp.any():
        slope = (setpoint - y0) / ramp_hours
        bias = np.where(ramp[:, None], (slope + kp * (y0 + slope * t[:, None])) / alpha, bias)
    return rows, bias
