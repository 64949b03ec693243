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

Every function works on one building (floats) or on a whole fleet at once
(arrays with one entry, or one column, per building).  Times are in hours,
temperatures in degC, controls in kW with the thermal sign convention
(u <= 0 extracts heat).  The estimator reads the control that was actually
applied after any clamping, so saturation cannot wind up the estimate.

These functions run every control period and trust the settings they are
given: alpha, kp and the window size were checked once, when the
ScenarioConfig holding them was built.  The one check left guards a
computed value, the control itself.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


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


def ip_control(f_hat, y_ref_dot, e, alpha: float, kp: float):
    """Intelligent proportional law: u = -(f_hat - y_ref_dot + kp*e) / alpha."""
    u = -(f_hat - y_ref_dot + kp * e) / alpha
    if not np.all(np.isfinite(u)):
        raise ConfigurationError("iP law inputs must be finite")
    return u


def estimate_f(t: np.ndarray, y, u, alpha: float, dt: float):
    """Annihilator-kernel estimate of F over a window of c uniformly spaced samples.

    t holds the c sample times (spaced by dt); y and u hold the matching
    outputs and applied controls, one row per sample.  Integrates
    (tau - 2s)*y + alpha*s*(tau - s)*u with s measured from the window
    start, then scales by -6/tau^3.  Exact (up to rounding) whenever y is
    affine in time and u constant across the window, which must hold an odd
    number c >= 3 of samples.
    """
    c = len(t)
    tau = (c - 1) * dt

    def integrand(i: int):
        sigma = t[i] - t[0]
        return (tau - 2.0 * sigma) * y[i] + alpha * sigma * (tau - sigma) * u[i]

    # composite Simpson accumulated in sample order, with s from the sample
    # times: a precomputed-weight dot product rounds differently and moves
    # trace digits
    acc = integrand(0) + integrand(c - 1)
    for i in range(1, c - 1):
        acc = acc + integrand(i) * (4.0 if i % 2 else 2.0)
    return -(6.0 / tau**3) * (acc * dt / 3.0)
