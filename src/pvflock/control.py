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

F_hat is refreshed each control period by the algebraic (annihilator-kernel)
estimator over the last c samples,

    F_hat = -(6/tau^3) * int_0^tau [(tau - 2s) * y(s) + alpha * s * (tau - s) * u(s)] ds

with s measured from the start of the window of span tau = (c - 1) dt.  The
kernel annihilates any constant offset in y, so for affine y and constant u
the estimate is exact.  The integral is evaluated with composite Simpson
weights on the uniform sample grid, which is why windows hold an odd number
of samples.  Until c samples exist F_hat = 0.

The estimate and the law are both linear in the history of y and of the
applied u, with coefficients that depend only on the settings.  So
control_tables writes period k's raw control as one row of coefficients on
the c + 1 history entries k - c .. k of (y, u), the row before the window
fills or the one after (estimator_kernel gives its window part), and a bias,
which the row takes with a coefficient of 1 from period k's own u; the loop
that applies them is pvflock.simulate's.  Times are in hours, temperatures in
degC, controls in kW with the thermal sign convention (u <= 0 extracts heat).
The window reads u as clamped, so saturation cannot wind up the estimate.

These functions trust the settings they are given: alpha, kp and the
window size were checked once, when the ScenarioConfig holding them was
built.  A finite setting can still overflow the law (kp = 1e308 or
alpha = 1e-308); run_simulation bounds every raw control from these tables
before its first period, and rejects a law whose bound leaves float range.
"""

from __future__ import annotations

import numpy as np


def estimator_kernel(c: int, alpha: float, dt: float):
    """Kernel coefficients of a window of c samples dt apart.

    Returns (ky, ku), each (c,): the coefficients of y and u at s = i dt,
    (tau - 2s) and alpha*s*(tau - s), each times its composite Simpson weight.
    c must be odd and at least 3, or 0: the empty window of a run of no steps.
    """
    i = np.arange(c)
    s = i * dt
    tau = (c - 1) * dt
    # the Simpson weights are powers of two, so folding them in rounds nothing
    simpson = np.where(i % 2, 4.0, np.where(i % (c - 1), 2.0, 1.0))  # 1, 4, 2, ..., 2, 4, 1
    return (tau - 2.0 * s) * simpson, alpha * s * (tau - s) * simpson


def control_tables(t: np.ndarray, y0: np.ndarray, c: int, alpha: float, kp: float,
                   setpoint: float, ramp_hours: float, dt: float):
    """The iP law over the time grid t as a linear map of the history.

    Returns (rows, bias).  With bias[k] in the u of period k's own entry, the
    last of the history entries k - c .. k of (y, u), rows[int(k >= c)] · window
    is period k's raw control.  rows is (2, c + 1, 2): row 0 serves the periods
    before the window fills and holds only -kp/alpha on the current y and 1 on
    the current u; row 1 serves the periods after and adds the window's kernel,
    with the scale (6/tau^3) (dt/3) / alpha folded in.  bias is (len(t), 1),
    or one column per first measurement y0 when a ramp runs.
    """
    rows = np.zeros((2, c + 1, 2))
    ky, ku = estimator_kernel(c, alpha, dt)
    rows[1, :c] = np.stack([ky, ku], axis=-1) * (6.0 / ((c - 1) * dt) ** 3 * dt / 3.0 / alpha)
    rows[:, c] = -kp / alpha, 1.0
    bias = np.full((len(t), 1), kp * setpoint / alpha)
    ramp = t < ramp_hours
    if ramp.any():
        slope = (setpoint - y0) / ramp_hours
        bias = np.where(ramp[:, None], (slope + kp * (y0 + slope * t[:, None])) / alpha, bias)
    return rows, bias
