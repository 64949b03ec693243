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

from plant_oracles import OFFICE, equilibrium, plant_derivative, plant_period
from pvflock import (
    FleetConfig,
    PvSourceConfig,
    ScenarioConfig,
    compute_metrics,
    run_simulation,
)
from pvflock.control import control_tables
from pvflock.coordinator import building_bounds
from pvflock.plant import build_matrices, check_sane, transition_map

DT = 1.0 / 6.0


def table_f_hat(rows, k: int, alpha: float, y, u) -> float:
    """F_hat of period k's window of samples y, u as the run's control table
    holds it: the row's window part is -F_hat / alpha."""
    c = rows.shape[1] - 1
    return -alpha * (rows[k, :c, 0] @ y + rows[k, :c, 1] @ u)


def scenario_metrics(trace, cfg: ScenarioConfig):
    """The metrics `pvflock run` prints: cfg's epsilon, comfort band and transient."""
    return compute_metrics(trace, epsilon=cfg.fleet.epsilon, comfort_low=cfg.comfort_low,
                           comfort_high=cfg.comfort_high, transient_hours=cfg.transient_hours)


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
    report = scenario_metrics(trace, cfg)
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
    report = scenario_metrics(trace, cfg)
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
    viol13 = scenario_metrics(run_simulation(cfg13), cfg13).comfort_violation_steps
    report14 = scenario_metrics(run_simulation(cfg14), cfg14)
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
    """The F estimator, as the run's control table holds it, recovers a
    constant F to 1e-3 within 3 window spans of the window filling, for F in
    {-2, 0, 3} (exact scalar loop driven by the table's law with the true F)."""
    alpha, kp, setpoint = 5.0, 2.0, 23.0
    capacity = 3
    spans_to_settle = 3 * (capacity - 1)  # 3 window spans, in steps
    rows, bias = control_tables(np.arange(41) * DT, np.zeros(1), capacity, alpha, kp, setpoint,
                                0.0, DT)
    worst = 0.0
    for f0 in (-2.0, 0.0, 3.0):
        y = setpoint + 0.01
        ys, us = [], []
        filled_at = capacity - 1  # the step whose sample fills the window
        for k in range(40):
            # the table's law with the true F in place of the window's estimate
            u = rows[k, capacity, 0] * y + bias[k, 0] - f0 / alpha
            ys.append(y)
            us.append(u)
            if k - filled_at == spans_to_settle:
                # the window of samples k - c + 1 .. k is the next period's
                err = abs(table_f_hat(rows, k + 1, alpha, ys[-capacity:], us[-capacity:]) - f0)
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
        t = t0 + np.arange(capacity + 1) * DT  # the window and the period it serves
        table, _ = control_tables(t, np.zeros(1), capacity, alpha_c, kp, setpoint, 0.0, DT)
        y, uu = y0 + slope * sigma, np.full(capacity, u)
        err = abs(table_f_hat(table, capacity, alpha_c, y, uu) - (slope - alpha_c * u))
        assert err < 1e-9
        worst_affine = max(worst_affine, err)
    print(
        f"\n[acceptance] criterion 4 PASS — estimator error at 3 window spans "
        f"{worst:.2e} < 1e-3 for F in {{-2, 0, 3}}; exact to "
        f"{worst_affine:.2e} (< 1e-9) on affine windows"
    )


def test_criterion_5_error_contracts_at_two_thirds_per_period():
    """With the true F supplied in place of the window's estimate, the run's
    control table (its current-T1 coefficient and bias) gives
    e(k+1)/e(k) = 1 - kp*dt = 2/3 to 1e-6 for 10 consecutive periods."""
    f0, alpha, kp, setpoint = 1.5, 5.0, 2.0, 23.0
    rows, bias = control_tables(np.arange(10) * DT, np.zeros(1), 3, alpha, kp, setpoint, 0.0, DT)
    y = 24.0
    e = y - setpoint
    worst = 0.0
    for k in range(10):
        u = rows[k, -1, 0] * y + bias[k, 0] - f0 / alpha
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
    """24 h of chained plant periods in the run's increment form on one
    building stay within 1e-6 degC of a 1e-10 adaptive reference, and the
    uniform state (T_out, T_out, T_out) with the HVAC off and no gains is a
    bitwise-exact fixed point, for one building and beside another."""
    p = OFFICE  # literature constants
    w = np.array([30.0, 0.1, 1.0])  # (d1, d2, d3)
    x0 = np.array([24.0, 23.0, 26.0])  # (T1, T2, T3)
    a, b, c = build_matrices(p)
    forcing = b * (-2.0) + c @ w
    sol = solve_ivp(
        lambda t, x: a @ x + forcing, (0.0, 24.0), x0,
        rtol=1e-10, atol=1e-10,
    )
    tm = transition_map(p, DT)
    state = x0[:, None]  # one building is a (3, 1) block
    for k in range(1, 145):
        state = plant_period(state, np.array([-2.0]), tm.c @ w, tm)
        check_sane(state, k * DT)
    diff = float(np.max(np.abs(state[:, 0] - sol.y[:, -1])))
    assert diff < 1e-6

    # with no HVAC, sun, or occupants, a building at outdoor temperature
    # must stay there exactly — 24 h of steps may not move a single bit
    t_out = 30.0
    calm = np.array([t_out, 0.0, 0.0])
    for n in (1, 2):  # einsum sums a lone column in another order than a fleet's
        uniform = np.full((3, n), t_out)
        for k in range(1, 145):
            uniform = plant_period(uniform, np.zeros(n), tm.c @ calm, tm)
            check_sane(uniform, k * DT)
        assert np.all(uniform == t_out)

    eq = equilibrium(-2.0, w, p)
    resid = float(np.max(np.abs(plant_derivative(eq, -2.0, w, p))))
    assert resid < 1e-9
    print(
        f"\n[acceptance] criterion 6 PASS — 24 h of the run's plant periods off by "
        f"{diff:.2e} degC (< 1e-6) from the 1e-10 reference; uniform "
        f"equilibrium preserved bitwise; analytic equilibrium residual "
        f"{resid:.2e} degC/h"
    )


def test_criterion_7_band_decomposition_over_random_cases():
    """10^4 random (pv, epsilon, n, controls): the run's clamp of the raw
    controls onto [-hi, -lo] always draws p in [0, hvac_max], the n draws sum
    inside the aggregate band whenever the split is feasible, and
    infeasibility is flagged exactly when the even split cannot fit the HVAC
    range."""
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

        u_raw = rng.uniform(-6.0, 6.0, size=n)
        p = -np.minimum(np.maximum(u_raw, -hi), -lo)  # as run_simulation clamps a period
        assert np.all((-1e-12 <= p) & (p <= hvac_max + 1e-12))
        total = sum(p.tolist())  # left to right, as the run's sum_p
        slack = 1e-9 * max(1.0, pv)
        assert band_lo - slack <= total <= band_hi + slack
    assert infeasible_seen > 0  # the random sweep exercised the flag path
    print(
        f"\n[acceptance] criterion 7 PASS — {cases} random band splits: sums "
        f"in band, p in [0, {hvac_max}] kW, {infeasible_seen} infeasible "
        f"cases flagged correctly"
    )
