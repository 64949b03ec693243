"""Unit and property tests for the iP law, the reference, the estimator window and F estimator."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvflock import (
    ConfigurationError,
    FleetConfig,
    PvSourceConfig,
    ScenarioConfig,
    run_simulation,
)
from pvflock.control import estimate_f, estimator_kernel, ip_control, reference

DT = 1.0 / 6.0


def window(capacity: int, dt: float, y_of, u_of, t0: float = 0.0):
    """Sample times, outputs and controls of a window from callables y(sigma), u(sigma)."""
    t = t0 + np.arange(capacity) * dt
    sigma = t - t0
    return t, np.array([y_of(s) for s in sigma]), np.array([u_of(s) for s in sigma])


def estimate(t, y, u, alpha: float, dt: float):
    """estimate_f on the one window of samples at times t; y and u are (c,) or (c, n)."""
    ky, ku = estimator_kernel(np.asarray(t), len(t), alpha, dt)
    y, u = np.asarray(y, dtype=float), np.asarray(u, dtype=float)
    f = estimate_f(ky[0], ku[0], y.reshape(len(t), -1), u.reshape(len(t), -1), dt)
    return f if y.ndim == 2 else f[0]


def small_run(**kw):
    cfg = replace(
        ScenarioConfig(fleet=FleetConfig(n_buildings=3), horizon=4.0), **kw
    )
    return cfg, run_simulation(cfg)


# ---------------------------------------------------------------------------
# estimator window: the last c rows of the trace

class TestSampleWindow:
    """The estimator window is rows k-c .. k-1 of the run's trace."""

    def test_fifo_eviction_at_capacity(self):
        # at every step k >= c the unclamped control is the iP law on the
        # estimate from rows k-c .. k-1 of the measured T1 and applied u
        for capacity in (3, 5):
            cfg, tr = small_run(window_capacity=capacity)
            checked = 0
            for k in range(capacity, tr.n_steps):
                rows = slice(k - capacity, k)
                f_hat = estimate(tr.t[rows], tr.t1[rows], tr.u[rows], cfg.alpha, DT)
                u = ip_control(f_hat, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
                free = ~tr.clamped[k]
                assert np.array_equal(tr.u[k][free], u[free])
                checked += int(free.sum())
            assert checked > 0

    @pytest.mark.parametrize("capacity", [0, 1, 2, 4, 6])
    def test_capacity_must_be_odd_and_at_least_three(self, capacity):
        # checked once, by the config; the estimator trusts the window it is given
        with pytest.raises(ConfigurationError):
            ScenarioConfig(window_capacity=capacity)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_dt_must_be_positive_finite(self, dt):
        with pytest.raises(ConfigurationError):
            FleetConfig(sample_dt=dt)


# ---------------------------------------------------------------------------
# iP law

class TestIpLaw:
    def test_pinned_value(self):
        # u = -(f_hat - y_ref_dot + kp*e) / alpha = -(2 - 0 + 2*0.5)/5
        assert ip_control(2.0, 0.0, 0.5, 5.0, 2.0) == pytest.approx(-0.6, abs=1e-15)

    def test_cancels_estimate_at_zero_error(self):
        assert ip_control(1.5, 0.0, 0.0, 5.0, 2.0) == pytest.approx(-0.3)

    def test_reference_slope_feeds_through(self):
        assert ip_control(0.0, 1.0, 0.0, 2.0, 2.0) == pytest.approx(0.5)

    @given(
        f_hat=st.floats(-10, 10),
        e=st.floats(-5, 5),
        alpha=st.floats(0.5, 10),
        kp=st.floats(0.1, 10),
    )
    def test_closed_loop_identity(self, f_hat, e, alpha, kp):
        # substituting the law into dy/dt = F + alpha*u with F = f_hat leaves
        # de/dt = -kp * e
        u = ip_control(f_hat, 0.0, e, alpha, kp)
        assert f_hat + alpha * u == pytest.approx(-kp * e, abs=1e-9)


# ---------------------------------------------------------------------------
# algebraic estimator

class TestAlgebraicEstimator:
    def test_exact_for_pure_drift(self):
        t, y, u = window(3, DT, y_of=lambda s: 2.0 * s, u_of=lambda s: 0.0)
        assert estimate(t, y, u, 5.0, DT) == pytest.approx(2.0, abs=1e-9)

    def test_exact_for_affine_output_constant_control(self):
        # dy/dt = 3 with alpha*u = 2.5 leaves F = 0.5
        t, y, u = window(3, DT, y_of=lambda s: 1.0 + 3.0 * s, u_of=lambda s: 0.5, t0=10.0)
        assert estimate(t, y, u, 5.0, DT) == pytest.approx(0.5, abs=1e-9)

    def test_constant_output_no_control_gives_zero(self):
        t, y, u = window(5, 0.25, y_of=lambda s: 7.0, u_of=lambda s: 0.0)
        assert estimate(t, y, u, 2.0, 0.25) == pytest.approx(0.0, abs=1e-9)

    def test_kernel_ignores_output_offset(self):
        base = window(3, DT, y_of=lambda s: 2.0 * s, u_of=lambda s: -0.3)
        shifted = window(3, DT, y_of=lambda s: 50.0 + 2.0 * s, u_of=lambda s: -0.3)
        assert estimate(*base, 5.0, DT) == pytest.approx(estimate(*shifted, 5.0, DT), abs=1e-9)

    def test_fleet_columns_match_single_buildings(self):
        # one column per building gives each building's own estimate,
        # bitwise, also past the 8 rows where numpy starts summing one
        # column pairwise
        rng = np.random.default_rng(3)
        for capacity in (5, 9, 11):
            t = 5.0 + np.arange(capacity) * DT
            y = rng.uniform(20, 27, size=(capacity, 4))
            u = rng.uniform(-3, 0, size=(capacity, 4))
            fleet = estimate(t, y, u, 5.0, DT)
            for i in range(4):
                assert fleet[i] == estimate(t, y[:, i], u[:, i], 5.0, DT)

    def test_kernel_rows_match_single_windows(self):
        # the run's tables, built once over the whole time grid, hold the
        # same coefficients as a table built from each window's own times
        t = np.arange(40) * DT
        ky, ku = estimator_kernel(t, 5, 5.0, DT)
        assert ky.shape == ku.shape == (36, 5)
        for j in range(36):
            wy, wu = estimator_kernel(t[j:j + 5], 5, 5.0, DT)
            assert np.array_equal(ky[j], wy[0]) and np.array_equal(ku[j], wu[0])
        assert estimator_kernel(t[:4], 5, 5.0, DT)[0].shape == (0, 5)

    @settings(max_examples=200)
    @given(
        f0=st.floats(-10, 10),
        y0=st.floats(-50, 50),
        u=st.floats(-3, 3),
        alpha=st.floats(0.5, 10),
        dt=st.floats(0.01, 1.0),
        capacity=st.sampled_from([3, 5, 7]),
        t0=st.floats(0, 1000),
    )
    def test_exact_on_any_affine_trajectory(self, f0, y0, u, alpha, dt, capacity, t0):
        # y follows dy/dt = f0 + alpha*u exactly; the estimate must recover f0
        # regardless of window placement on the time axis
        slope = f0 + alpha * u
        t, y, uu = window(capacity, dt, y_of=lambda s: y0 + slope * s, u_of=lambda s: u, t0=t0)
        scale = max(1.0, abs(f0), abs(y0) / dt)
        assert estimate(t, y, uu, alpha, dt) == pytest.approx(f0, abs=1e-6 * scale)


# ---------------------------------------------------------------------------
# the iP loop: reference, estimate and law over time

class TestIpController:
    """The iP controller over time: reference, estimate and law, alone or in run_simulation."""

    def test_cold_start_is_pure_proportional(self):
        # no samples yet -> f_hat = 0 -> u = -(kp * e)/alpha, before clamping
        cfg, tr = small_run(pv=PvSourceConfig(kind="off"))
        e = tr.t1[0] - cfg.setpoint
        assert np.allclose(tr.p[0], np.clip(2.0 * e / 5.0, 0.0, cfg.fleet.hvac_max), rtol=0, atol=1e-15)

    def test_default_f_hat_used_until_window_full(self):
        # the first c steps run on F_hat = 0, the step after on the estimate
        cfg, tr = small_run(window_capacity=5, pv=PvSourceConfig(kind="off"))
        for k in range(5):
            u = ip_control(0.0, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
            free = ~tr.clamped[k]
            assert free.any() and np.array_equal(tr.u[k][free], u[free])
        u_p = ip_control(0.0, 0.0, tr.t1[5] - cfg.setpoint, cfg.alpha, cfg.kp)
        assert not np.array_equal(tr.u[5], u_p)

    def test_constructor_validation(self):
        # the controller settings fail when the scenario is built, before any run
        for bad in (
            dict(alpha=0.0), dict(alpha=math.inf), dict(kp=0.0), dict(kp=-1.0),
            dict(kp=math.nan), dict(ramp_hours=-1.0), dict(setpoint=math.inf),
        ):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(**bad)

    def test_reference_constant_by_default(self):
        y0 = np.array([27.0, 21.0])
        assert reference(0.0, y0, 23.0, 0.0) == (23.0, 0.0)
        assert reference(100.0, y0, 23.0, 0.0) == (23.0, 0.0)

    def test_reference_ramp_from_first_measurement(self):
        # ramp origin (0, 27), target 23 over 2 h
        y_ref, slope = reference(1.0, 27.0, 23.0, 2.0)
        assert y_ref == pytest.approx(25.0)
        assert slope == pytest.approx(-2.0)
        y_ref, slope = reference(5.0, 27.0, 23.0, 2.0)  # past the ramp
        assert (y_ref, slope) == (23.0, 0.0)
        # the simulation ramps from each building's first measurement, so
        # its first control is the slope feed-forward alone
        cfg, tr = small_run(ramp_hours=2.0, pv=PvSourceConfig(kind="off"))
        y_ref, slope = reference(0.0, tr.t1[0], cfg.setpoint, cfg.ramp_hours)
        assert np.array_equal(y_ref, tr.t1[0])
        u = ip_control(0.0, slope, 0.0, cfg.alpha, cfg.kp)
        free = ~tr.clamped[0]
        assert free.any() and np.array_equal(tr.u[0][free], u[free])

    def test_error_contracts_by_one_minus_kp_dt(self, scalar_plant):
        # with the true F supplied, each period multiplies the error by
        # (1 - kp*dt) = 2/3 exactly (exact ZOH plant, no estimation error)
        f0, alpha, kp = 1.5, 5.0, 2.0
        plant = scalar_plant(f0, alpha, y0=24.0)
        e = plant.y - 23.0
        for _ in range(10):
            u = ip_control(f0, 0.0, e, alpha, kp)
            e_next = plant.step(u, DT) - 23.0
            assert e_next / e == pytest.approx(2.0 / 3.0, abs=1e-6)
            e = e_next

    def test_window_sees_applied_not_raw_control(self):
        # the estimate reads the clamped u of the trace: recomputing it from
        # the applied controls reproduces the law on steps after a clamp bit
        cfg, tr = small_run(horizon=12.0)  # PV starts at 6 h and the clamps bite
        hits = 0
        for k in range(3, tr.n_steps):
            after_clamp = tr.clamped[k - 3:k].any(axis=0) & ~tr.clamped[k]
            f_hat = estimate(tr.t[k - 3:k], tr.t1[k - 3:k], tr.u[k - 3:k], cfg.alpha, DT)
            u = ip_control(f_hat, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
            assert np.array_equal(tr.u[k][after_clamp], u[after_clamp])
            hits += int(after_clamp.sum())
        assert hits > 0

    def test_self_driven_loop_reaches_the_model_fixed_point(self, scalar_plant):
        # capacity 5 here: the 3-point window self-excites on this idealized
        # pure integrator, so the convergent steady-regime check uses the
        # next odd capacity up
        f0, alpha, kp, capacity = 2.0, 5.0, 2.0, 5
        plant = scalar_plant(f0, alpha, y0=23.1)
        t, y, u = [], [], []
        f_hat = 0.0
        for k in range(120):
            if k >= capacity:
                f_hat = estimate(t[-capacity:], y[-capacity:], u[-capacity:], alpha, DT)
            t.append(k * DT)
            y.append(plant.y)
            u.append(ip_control(f_hat, 0.0, plant.y - 23.0, alpha, kp))
            plant.step(u[-1], DT)
        assert f_hat == pytest.approx(f0, abs=1e-6)
        assert u[-1] == pytest.approx(-f0 / alpha, abs=1e-6)
