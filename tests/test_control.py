"""Unit and property tests of the iP law and the F estimator as the run's tables
hold them, the reference ramp, and the estimator window of a run."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvflock.simulate
from pvflock import (
    ConfigurationError,
    FleetConfig,
    PvSourceConfig,
    ScenarioConfig,
    run_simulation,
)
from pvflock.control import control_tables, estimator_kernel
from pvflock.simulate import build_fleet

DT = 1.0 / 6.0
#: the largest difference between the run's controls and the formulas as written, in kW
FORMULA_TOLERANCE = 1e-11


def window(capacity: int, dt: float, y_of, u_of, t0: float = 0.0):
    """Sample times, outputs and controls of a window from callables y(sigma), u(sigma)."""
    t = t0 + np.arange(capacity) * dt
    sigma = t - t0
    return t, np.array([y_of(s) for s in sigma]), np.array([u_of(s) for s in sigma])


def ip_law(f_hat, y_ref_dot, e, alpha, kp):
    """The iP law as written: u = -(f_hat - y_ref_dot + kp*e) / alpha."""
    return -(f_hat - y_ref_dot + kp * e) / alpha


def kernel_estimate(t, y, u, alpha: float, dt: float):
    """F over the window at times t as the estimator's integral is written:
    -(6/tau^3) (dt/3) times the kernel row's sum; y and u are (c,) or (c, n)."""
    ky, ku = estimator_kernel(np.asarray(t), len(t), alpha, dt)
    tau = (len(t) - 1) * dt
    return -(6.0 / tau**3) * dt / 3.0 * (ky[0] @ np.asarray(y) + ku[0] @ np.asarray(u))


def estimate(t, y, u, alpha: float, dt: float):
    """F over the window at times t as the run's control table holds it: the
    window part of the next period's row is -F_hat / alpha.  y and u are (c,) or (c, n)."""
    c = len(t)
    rows, _ = control_tables(np.append(t, t[-1] + dt), np.zeros(1), c, alpha, 1.0, 0.0, 0.0, dt)
    return -alpha * (rows[c, :c, 0] @ np.asarray(y) + rows[c, :c, 1] @ np.asarray(u))


def table_law(rows, bias, k: int, y, u) -> float:
    """Period k's raw control of one building from the run's tables, given its
    history y and applied u of periods 0 .. k (u[k] is not read)."""
    c = rows.shape[1] - 1
    hist = np.zeros((c + k + 1, 2))  # c zero entries in front, as the run keeps them
    hist[c:, 0], hist[c:c + k, 1] = y[:k + 1], u[:k]
    return float(np.sum(rows[k] * hist[k:]) + bias[k, 0])


def law_after_window(y, u, y_now, alpha=5.0, kp=2.0, setpoint=23.0, ramp_hours=0.0, y0=None):
    """The raw control the run's tables give one building at y_now after the window y, u."""
    c = len(y)
    t = np.arange(c + 1) * DT
    y0 = np.array([y[0] if y0 is None else y0])
    rows, bias = control_tables(t, y0, c, alpha, kp, setpoint, ramp_hours, DT)
    return table_law(rows, bias, c, np.append(y, y_now), u)


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
                f_hat = kernel_estimate(tr.t[rows], tr.t1[rows], tr.u[rows], cfg.alpha, DT)
                u = ip_law(f_hat, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
                free = ~tr.clamped[k]
                np.testing.assert_allclose(tr.u[k][free], u[free], rtol=0, atol=FORMULA_TOLERANCE)
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
# iP law: the run's control table after a window of known F

class TestIpLaw:
    def test_pinned_value(self):
        # F = 2 over the window, e = 0.5: u = -(2 - 0 + 2*0.5)/5
        y = 23.0 + 2.0 * np.arange(3) * DT
        assert law_after_window(y, np.zeros(3), 23.5) == pytest.approx(-0.6, abs=1e-13)

    def test_cancels_estimate_at_zero_error(self):
        y = 23.0 + 1.5 * np.arange(3) * DT
        assert law_after_window(y, np.zeros(3), 23.0) == pytest.approx(-0.3, abs=1e-13)

    def test_reference_slope_feeds_through(self):
        # F = 0 and e = 0 on a ramp of slope 1 degC/h: u = slope / alpha
        u = law_after_window(np.full(3, 20.0), np.zeros(3), 13.5, alpha=2.0, kp=2.0,
                             ramp_hours=10.0, y0=13.0)
        assert u == pytest.approx(0.5, abs=1e-13)

    @given(
        f_hat=st.floats(-10, 10),
        e=st.floats(-5, 5),
        alpha=st.floats(0.5, 10),
        kp=st.floats(0.1, 10),
    )
    def test_closed_loop_identity(self, f_hat, e, alpha, kp):
        # substituting the law into dy/dt = F + alpha*u with F = f_hat leaves
        # de/dt = -kp * e
        y = 23.0 + f_hat * np.arange(3) * DT
        u = law_after_window(y, np.zeros(3), 23.0 + e, alpha=alpha, kp=kp)
        assert f_hat + alpha * u == pytest.approx(-kp * e, abs=1e-9)


# ---------------------------------------------------------------------------
# algebraic estimator, as the control table holds it

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

    def test_fleet_columns_match_single_buildings(self, monkeypatch):
        # a building's run does not depend on the fleet around it: beside any
        # other building it is bitwise the same, as each einsum product sums
        # every column on its own, also past the 8 rows where numpy starts
        # summing one column pairwise; alone, einsum drops the fleet axis and
        # sums in another order, so it agrees to rounding and in every flag.
        # PV is off, so the bounds do not depend on the fleet's size.
        for capacity in (5, 9, 11):
            cfg = replace(ScenarioConfig(fleet=FleetConfig(n_buildings=4), horizon=12.0,
                                         pv=PvSourceConfig(kind="off"), initial_t1_low=21.0),
                          window_capacity=capacity)
            fleet, states = run_simulation(cfg), build_fleet(cfg)
            assert fleet.clamped.any() and not fleet.clamped.all()
            for cols in ([3, 0], [1, 2], [2], [0]):
                monkeypatch.setattr(pvflock.simulate, "build_fleet",
                                    lambda _, cols=cols: states[:, cols])
                part = run_simulation(replace(cfg, fleet=FleetConfig(n_buildings=len(cols))))
                for name in ("t1", "t2", "t3", "u", "p", "clamped"):
                    got, want = getattr(part, name), getattr(fleet, name)[:, cols]
                    if len(cols) > 1 or name == "clamped":
                        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name
                    else:
                        np.testing.assert_allclose(got, want, rtol=0, atol=FORMULA_TOLERANCE)
            monkeypatch.undo()

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
        np.testing.assert_allclose(tr.p[0], np.clip(2.0 * e / 5.0, 0.0, cfg.fleet.hvac_max), rtol=0,
                                   atol=FORMULA_TOLERANCE)

    def test_default_f_hat_used_until_window_full(self):
        # the first c steps run on F_hat = 0, the step after on the estimate
        cfg, tr = small_run(window_capacity=5, pv=PvSourceConfig(kind="off"))
        for k in range(5):
            u = ip_law(0.0, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
            free = ~tr.clamped[k]
            assert free.any()
            np.testing.assert_allclose(tr.u[k][free], u[free], rtol=0, atol=FORMULA_TOLERANCE)
        u_p = ip_law(0.0, 0.0, tr.t1[5] - cfg.setpoint, cfg.alpha, cfg.kp)
        assert np.max(np.abs(tr.u[5] - u_p)) > 1e-6

    def test_constructor_validation(self):
        # the controller settings fail when the scenario is built, before any run
        for bad in (
            dict(alpha=0.0), dict(alpha=math.inf), dict(kp=0.0), dict(kp=-1.0),
            dict(kp=math.nan), dict(ramp_hours=-1.0), dict(setpoint=math.inf),
        ):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(**bad)

    def test_reference_constant_by_default(self):
        # no ramp: every period's bias is kp * setpoint / alpha, shared by the fleet
        t = np.arange(601) * DT
        rows, bias = control_tables(t, np.array([27.0, 21.0]), 3, 5.0, 2.0, 23.0, 0.0, DT)
        assert bias.shape == (601, 1) and np.all(bias == 2.0 * 23.0 / 5.0)
        assert np.all(rows[:, 3, 0] == -2.0 / 5.0)

    def test_reference_ramp_from_first_measurement(self):
        # ramp origin (0, 27), target 23 over 2 h: at 1 h y_ref = 25 with slope
        # -2, and the bias is (slope + kp * y_ref) / alpha; past the ramp, the setpoint's
        t = np.arange(31) * DT
        _, bias = control_tables(t, np.array([27.0]), 3, 5.0, 2.0, 23.0, 2.0, DT)
        assert bias.shape == (31, 1)
        assert bias[6, 0] == pytest.approx((-2.0 + 2.0 * 25.0) / 5.0, abs=1e-14)
        assert bias[30, 0] == 2.0 * 23.0 / 5.0  # 5 h, past the ramp
        # the simulation ramps from each building's first measurement, so
        # its first control is the slope feed-forward alone
        cfg, tr = small_run(ramp_hours=2.0, pv=PvSourceConfig(kind="off"))
        slope = (cfg.setpoint - tr.t1[0]) / cfg.ramp_hours
        u = ip_law(0.0, slope, 0.0, cfg.alpha, cfg.kp)
        free = ~tr.clamped[0]
        assert free.any()
        np.testing.assert_allclose(tr.u[0][free], u[free], rtol=0, atol=FORMULA_TOLERANCE)

    def test_error_contracts_by_one_minus_kp_dt(self, scalar_plant):
        # with the true F supplied in place of the window's estimate, the
        # table's current-T1 coefficient and bias multiply the error by
        # (1 - kp*dt) = 2/3 each period (exact ZOH plant, no estimation error)
        f0, alpha, kp = 1.5, 5.0, 2.0
        rows, bias = control_tables(np.arange(11) * DT, np.zeros(1), 3, alpha, kp, 23.0, 0.0, DT)
        plant = scalar_plant(f0, alpha, y0=24.0)
        e = plant.y - 23.0
        for k in range(10):
            u = rows[k, -1, 0] * plant.y + bias[k, 0] - f0 / alpha
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
            f_hat = kernel_estimate(tr.t[k - 3:k], tr.t1[k - 3:k], tr.u[k - 3:k], cfg.alpha, DT)
            u = ip_law(f_hat, 0.0, tr.t1[k] - cfg.setpoint, cfg.alpha, cfg.kp)
            np.testing.assert_allclose(tr.u[k][after_clamp], u[after_clamp], rtol=0,
                                       atol=FORMULA_TOLERANCE)
            hits += int(after_clamp.sum())
        assert hits > 0

    def test_self_driven_loop_reaches_the_model_fixed_point(self, scalar_plant):
        # the run's tables close the loop on the pure integrator.  Capacity 5
        # here: the 3-point window self-excites on this idealized pure
        # integrator, so the convergent steady-regime check uses the next odd
        # capacity up
        f0, alpha, kp, capacity = 2.0, 5.0, 2.0, 5
        t = np.arange(120) * DT
        rows, bias = control_tables(t, np.array([23.1]), capacity, alpha, kp, 23.0, 0.0, DT)
        plant = scalar_plant(f0, alpha, y0=23.1)
        y, u = [], []
        for k in range(120):
            y.append(plant.y)
            u.append(table_law(rows, bias, k, y, u))
            plant.step(u[-1], DT)
        f_hat = estimate(t[-capacity:], y[-capacity:], u[-capacity:], alpha, DT)
        assert f_hat == pytest.approx(f0, abs=1e-6)
        assert u[-1] == pytest.approx(-f0 / alpha, abs=1e-6)
