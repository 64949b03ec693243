"""Acceptance suite: the seven headline guarantees, one test each.

Every test ends with a single [acceptance] PASS line naming the criterion
and the measured numbers, so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Tolerances are stated inline next to each assert.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

from plant_oracles import OFFICE, equilibrium, plant_derivative
from pvflock import (
    FleetConfig,
    PvSourceConfig,
    ScenarioConfig,
    compute_metrics,
    run_simulation,
)
from pvflock.control import estimate_f, estimator_kernel, ip_control
from pvflock.coordinator import building_bounds, clamp_to_bounds
from pvflock.plant import build_matrices, check_sane, rk4_fleet, transition_map

DT = 1.0 / 6.0


def timed_run(cfg: ScenarioConfig):
    t0 = time.perf_counter()
    trace = run_simulation(cfg)
    return trace, time.perf_counter() - t0


def test_criterion_1_regulation_comfort_and_runtime():
    """13 buildings, 72 h, no PV: no comfort violations, p in [0,3], < 1 s."""
    cfg = ScenarioConfig(pv=PvSourceConfig(kind="off"))
    walls = []
    for _ in range(2):  # two timings; the min discards scheduler hiccups
        trace, wall = timed_run(cfg)
        walls.append(wall)
    report = compute_metrics(trace, cfg)
    assert report.comfort_violation_steps == 0
    assert report.comfort_max_depth == 0.0
    assert np.all(trace.p >= -1e-12) and np.all(trace.p <= 3.0 + 1e-12)
    wall = min(walls)
    assert wall < 1.0
    print(
        f"\n[acceptance] criterion 1 PASS — 72 h x 13 buildings regulate with "
        f"0 violations, p within [0, 3] kW, wall {wall:.3f} s < 1 s"
    )


def test_criterion_2_pv_tracking_quality():
    """Default PV day: >= 95% of active steps within epsilon, rms <= 1 kW,
    comfort excursions no deeper than 0.5 degC."""
    cfg = ScenarioConfig()
    trace, _ = timed_run(cfg)
    report = compute_metrics(trace, cfg)
    assert report.tracking_within_eps_pct is not None
    assert report.tracking_within_eps_pct >= 95.0
    assert report.tracking_rms is not None and report.tracking_rms <= 1.0
    assert report.comfort_max_depth <= 0.5
    assert report.infeasible_steps == 0
    print(
        f"\n[acceptance] criterion 2 PASS — tracking within epsilon "
        f"{report.tracking_within_eps_pct:.1f}% (>= 95), rms "
        f"{report.tracking_rms:.3f} kW (<= 1), comfort depth "
        f"{report.comfort_max_depth:.3f} degC (<= 0.5)"
    )


def test_criterion_3_extra_building_relieves_overcooling():
    """A 14th building strictly reduces comfort-violation steps while the
    fleet keeps meeting the PV-tracking quality bar."""
    cfg13 = ScenarioConfig()
    cfg14 = replace(cfg13, fleet=FleetConfig(n_buildings=14))
    viol13 = compute_metrics(run_simulation(cfg13), cfg13).comfort_violation_steps
    report14 = compute_metrics(run_simulation(cfg14), cfg14)
    viol14 = report14.comfort_violation_steps
    assert viol13 > 0  # the 13-building fleet really is overcooled at midday
    assert viol14 < viol13
    # the relief must not come at the cost of tracking quality
    assert report14.tracking_within_eps_pct is not None
    assert report14.tracking_within_eps_pct >= 95.0
    assert report14.tracking_rms is not None and report14.tracking_rms <= 1.0
    assert report14.comfort_max_depth <= 0.5
    print(
        f"\n[acceptance] criterion 3 PASS — violation steps drop from "
        f"{viol13} (13 buildings) to {viol14} (14 buildings) with tracking "
        f"within epsilon {report14.tracking_within_eps_pct:.1f}%, rms "
        f"{report14.tracking_rms:.3f} kW"
    )


def test_criterion_4_estimators_settle_within_three_window_spans():
    """The F estimator recovers a constant F to 1e-3 within 3 window spans
    of the window filling, for F in {-2, 0, 3} (exact scalar loop)."""
    alpha, kp, setpoint = 5.0, 2.0, 23.0
    capacity = 3
    spans_to_settle = 3 * (capacity - 1)  # 3 window spans, in steps
    worst = 0.0
    for f0 in (-2.0, 0.0, 3.0):
        y = setpoint + 0.01
        ts, ys, us = [], [], []
        filled_at = capacity - 1  # the step whose sample fills the window
        for k in range(40):
            u = ip_control(f0, 0.0, y - setpoint, alpha, kp)
            ts.append(k * DT)
            ys.append(y)
            us.append(u)
            if k - filled_at == spans_to_settle:
                ky, ku = estimator_kernel(np.array(ts[-capacity:]), capacity, alpha, DT)
                window = np.array(ys[-capacity:])[:, None], np.array(us[-capacity:])[:, None]
                err = abs(estimate_f(ky[0], ku[0], *window, DT)[0] - f0)
                assert err < 1e-3
                worst = max(worst, err)
            y += (f0 + alpha * u) * DT  # exact ZOH integration of dy/dt = F + alpha u

    # On an affine y with constant u the algebraic integral is a polynomial
    # the window quadrature resolves exactly, so F = dy/dt - alpha*u must
    # come back to 1e-9.
    worst_affine = 0.0
    affine_cases = [
        # (y0, slope, u, alpha, t0) -> expected F = slope - alpha*u
        (0.0, 2.0, 0.0, 5.0, 0.0),
        (1.0, 3.0, 0.5, 5.0, 10.0),
        (23.0, 0.0, 0.0, 5.0, 4.0),
    ]
    for y0, slope, u, alpha_c, t0 in affine_cases:
        sigma = np.arange(capacity) * DT
        t = t0 + sigma
        ky, ku = estimator_kernel(t, capacity, alpha_c, DT)
        y, uu = (y0 + slope * sigma)[:, None], np.full((capacity, 1), u)
        err = abs(estimate_f(ky[0], ku[0], y, uu, DT)[0] - (slope - alpha_c * u))
        assert err < 1e-9
        worst_affine = max(worst_affine, err)
    print(
        f"\n[acceptance] criterion 4 PASS — estimator error at 3 window spans "
        f"{worst:.2e} < 1e-3 for F in {{-2, 0, 3}}; exact to "
        f"{worst_affine:.2e} (< 1e-9) on affine windows"
    )


def test_criterion_5_error_contracts_at_two_thirds_per_period():
    """With the true F supplied, e(k+1)/e(k) = 1 - kp*dt = 2/3 to 1e-6 for
    10 consecutive periods."""
    f0, alpha, kp, setpoint = 1.5, 5.0, 2.0, 23.0
    y = 24.0
    e = y - setpoint
    worst = 0.0
    for _ in range(10):
        u = ip_control(f0, 0.0, e, alpha, kp)
        y += (f0 + alpha * u) * DT
        e_next = y - setpoint
        ratio = e_next / e
        worst = max(worst, abs(ratio - 2.0 / 3.0))
        assert abs(ratio - 2.0 / 3.0) < 1e-6
        e = e_next
    print(
        f"\n[acceptance] criterion 5 PASS — contraction ratio within "
        f"{worst:.2e} of 2/3 over 10 periods (< 1e-6)"
    )


def test_criterion_6_plant_integration_matches_adaptive_reference():
    """24 h of chained rk4_fleet periods on one building stays within 1e-6
    degC of a 1e-10 adaptive reference, and the uniform state (T_out, T_out,
    T_out) with the HVAC off and no gains is a bitwise-exact fixed point."""
    p = OFFICE  # literature constants
    w = np.array([30.0, 0.1, 1.0])  # (d1, d2, d3)
    x0 = np.array([24.0, 23.0, 26.0])  # (T1, T2, T3)
    a, b, c = build_matrices(p)
    forcing = b * (-2.0) + c @ w
    sol = solve_ivp(
        lambda t, x: a @ x + forcing, (0.0, 24.0), x0,
        rtol=1e-10, atol=1e-10,
    )
    tm = transition_map(p, DT, 10)
    state = x0[:, None]  # one building is a (3, 1) block
    for k in range(1, 145):
        state = rk4_fleet(state, np.array([-2.0]), tm.c @ w, tm)
        check_sane(state, k * DT)
    diff = float(np.max(np.abs(state[:, 0] - sol.y[:, -1])))
    assert diff < 1e-6

    # with no HVAC, sun, or occupants, a building at outdoor temperature
    # must stay there exactly — 24 h of steps may not move a single bit
    t_out = 30.0
    calm = np.array([t_out, 0.0, 0.0])
    uniform = np.full((3, 1), t_out)
    for k in range(1, 145):
        uniform = rk4_fleet(uniform, np.array([0.0]), tm.c @ calm, tm)
        check_sane(uniform, k * DT)
    assert uniform[:, 0].tolist() == [t_out, t_out, t_out]

    eq = equilibrium(-2.0, w, p)
    resid = float(np.max(np.abs(plant_derivative(eq, -2.0, w, p))))
    assert resid < 1e-9
    print(
        f"\n[acceptance] criterion 6 PASS — 24 h of rk4_fleet off by "
        f"{diff:.2e} degC (< 1e-6) from the 1e-10 reference; uniform "
        f"equilibrium preserved bitwise; analytic equilibrium residual "
        f"{resid:.2e} degC/h"
    )


def test_criterion_7_band_decomposition_over_random_cases():
    """10^4 random (pv, epsilon, n, controls): per-building clamps always
    land in [0, hvac_max], sums stay inside the aggregate band whenever the
    split is feasible, and infeasibility is flagged exactly when the even
    split cannot fit the HVAC range."""
    rng = np.random.default_rng(2026)
    hvac_max = 3.0
    cases = 10_000
    infeasible_seen = 0
    for _ in range(cases):
        pv = float(rng.uniform(0.0, 50.0))
        epsilon = float(rng.uniform(0.1, 4.0))
        n = int(rng.integers(1, 26))
        cfg = FleetConfig(n_buildings=n, epsilon=epsilon, hvac_max=hvac_max)
        band_lo, band_hi, lo, hi, infeasible = (
            col.item() for col in building_bounds(pv, cfg)
        )

        if pv == 0:
            assert (band_lo, band_hi, lo, hi, infeasible) == (0.0, 0.0, 0.0, hvac_max, False)
            continue

        # independent feasibility predicate from the raw even split
        raw_lo = (pv - epsilon) / n
        raw_hi = (pv + epsilon) / n
        expect_infeasible = max(0.0, raw_lo) > min(raw_hi, hvac_max)
        assert infeasible == expect_infeasible
        if infeasible:
            infeasible_seen += 1
            continue

        draws = rng.uniform(-6.0, 6.0, size=n)
        total = 0.0
        for u_raw in draws:
            p_i, u_i, _ = clamp_to_bounds(float(u_raw), lo, hi)
            assert -1e-12 <= p_i <= hvac_max + 1e-12
            assert u_i == -p_i
            total += p_i
        slack = 1e-9 * max(1.0, pv)
        assert band_lo - slack <= total <= band_hi + slack
    assert infeasible_seen > 0  # the random sweep exercised the flag path
    print(
        f"\n[acceptance] criterion 7 PASS — {cases} random band splits: sums "
        f"in band, p in [0, {hvac_max}] kW, {infeasible_seen} infeasible "
        f"cases flagged correctly"
    )
